"""Terms of the Datalog± / logic-programming language (Sec. 2.1, 2.2 of the paper).

The paper assumes three pairwise disjoint, infinite sets:

* data constants ``Δ`` — the "normal" domain of a database; under the unique
  name assumption (UNA) two distinct constants always denote distinct values,
* labelled nulls ``Δ_N`` — fresh Skolem terms acting as placeholders for
  unknown values (in the functional transformation these become *functional
  terms* ``f_σ(t₁, …, tₙ)`` built from Skolem function symbols),
* variables ``V`` — used in rules and queries.

This module provides immutable, hashable classes for each kind of term plus a
handful of utilities (collecting variables, deciding groundness, a total
lexicographic order in which every null follows every constant, as the paper
assumes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, Union


__all__ = [
    "Term",
    "Constant",
    "Variable",
    "FunctionTerm",
    "Null",
    "term_sort_key",
    "variables_of",
    "constants_of",
    "nulls_of",
    "is_ground_term",
    "fresh_variable_factory",
    "fresh_null_factory",
]


@dataclass(frozen=True, slots=True, order=False)
class Constant:
    """A data constant from the universe ``Δ``.

    Constants obey the unique name assumption: ``Constant("a") != Constant("b")``
    always denotes two different domain elements.  The ``name`` may be any
    string or number-like value converted to ``str`` by the parser.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.name)

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"


@dataclass(frozen=True, slots=True, order=False)
class Variable:
    """A variable from ``V`` (used in rules and queries, never in databases)."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.name)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class FunctionTerm:
    """A functional term ``f(t₁, …, tₙ)``.

    In the functional transformation ``Σ ↦ Σ^f`` (Sec. 2.4) every existential
    variable ``Z`` of an NTGD ``σ`` is replaced by a Skolem term
    ``f_{σ,Z}(X, Y)`` over the universally quantified variables.  Ground
    functional terms therefore play the role of the labelled nulls ``Δ_N``:
    they are placeholders for unknown values.  Under the UNA a ground
    functional term is *assumed different from every constant* and two ground
    functional terms are equal iff they are syntactically equal.

    Implementation note: the chase produces terms such as
    ``t_{i+2} = f(0, t_i, t_{i+1})`` whose expanded syntax trees grow
    exponentially with the chase depth even though, as Python objects, the
    sub-terms are shared.  The hash is therefore computed once at construction
    (the arguments' hashes are already cached, so this is O(arity)), and
    equality short-circuits on identity and on the cached hashes before
    falling back to a structural comparison.
    """

    __slots__ = ("function", "args", "_hash", "_is_ground")

    def __init__(self, function: str, args: Iterable["Term"] = ()):
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_hash", hash((function, self.args)))
        object.__setattr__(
            self, "_is_ground", all(is_ground_term(a) for a in self.args)
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FunctionTerm instances are immutable")

    @property
    def arity(self) -> int:
        """Number of arguments of the function symbol."""
        return len(self.args)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FunctionTerm):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.function == other.function and self.args == other.args

    def __str__(self) -> str:
        if not self.args:
            return f"{self.function}()"
        return f"{self.function}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"FunctionTerm({self.function!r}, {self.args!r})"


#: A labelled null is represented as a (ground) functional term.  The alias
#: exists purely for readability at call sites that deal with nulls produced
#: by the chase / Skolemisation.
Null = FunctionTerm

#: Union type of everything that can appear as an argument of an atom.
Term = Union[Constant, Variable, FunctionTerm]


def is_ground_term(term: Term) -> bool:
    """Return ``True`` iff *term* contains no variable.

    Constants are ground; variables are not; a functional term caches its
    groundness at construction (its sub-terms may be deeply nested and shared,
    so recomputing by recursion would be exponential in the chase depth).
    """
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return False
    return term._is_ground


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in *term* (with repetitions removed
    lazily by the caller if needed; duplicates may be yielded)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, FunctionTerm) and not term._is_ground:
        for arg in term.args:
            yield from variables_of(arg)


def constants_of(term: Term) -> Iterator[Constant]:
    """Yield every constant occurring in *term* (duplicates possible)."""
    if isinstance(term, Constant):
        yield term
    elif isinstance(term, FunctionTerm):
        for arg in term.args:
            yield from constants_of(arg)


def nulls_of(term: Term) -> Iterator[FunctionTerm]:
    """Yield every *ground* functional sub-term (labelled null) of *term*.

    Only maximal ground functional terms are yielded; their ground sub-terms
    are not yielded separately, because a labelled null is an opaque value.
    """
    if isinstance(term, FunctionTerm) and is_ground_term(term):
        yield term
    elif isinstance(term, FunctionTerm):
        for arg in term.args:
            yield from nulls_of(arg)


def term_depth(term: Term) -> int:
    """Return the nesting depth of *term* (constants/variables have depth 0)."""
    if isinstance(term, FunctionTerm):
        if not term.args:
            return 1
        return 1 + max(term_depth(arg) for arg in term.args)
    return 0


def term_sort_key(term: Term) -> tuple[Any, ...]:
    """Total order key on ground terms.

    The paper assumes a lexicographic order on ``Δ ∪ Δ_N`` in which every null
    follows every constant.  We realise this by sorting constants first
    (class rank 0), then nulls / functional terms (class rank 1), then
    variables (class rank 2, for convenience when ordering non-ground terms),
    each class ordered lexicographically by its printable form.
    """
    if isinstance(term, Constant):
        return (0, str(term.name))
    if isinstance(term, FunctionTerm):
        return (1, term.function, tuple(term_sort_key(a) for a in term.args))
    return (2, str(term.name))


def fresh_variable_factory(prefix: str = "V") -> "callable":
    """Return a zero-argument callable producing globally fresh variables.

    Each call of the returned factory yields ``Variable(f"{prefix}{i}")`` with
    an increasing counter ``i``; the counter is private to the factory so two
    factories with different prefixes never clash as long as user variables do
    not use the same prefix+digits shape.
    """
    counter = itertools.count()

    def make() -> Variable:
        return Variable(f"{prefix}{next(counter)}")

    return make


def fresh_null_factory(prefix: str = "null") -> "callable":
    """Return a zero-argument callable producing fresh labelled nulls.

    Used by the (non-Skolemising) chase variants, where each application of a
    TGD introduces brand-new nulls rather than functional terms.
    """
    counter = itertools.count()

    def make() -> FunctionTerm:
        return FunctionTerm(f"{prefix}{next(counter)}", ())

    return make


def uniquify(terms: Sequence[Term]) -> list[Term]:
    """Return the terms of *terms* with duplicates removed, preserving order."""
    seen: set[Term] = set()
    result: list[Term] = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            result.append(term)
    return result
