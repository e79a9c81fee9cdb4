"""Atoms and literals (Sec. 2.1, 2.2 of the paper).

An *atom* is ``P(t₁, …, tₙ)`` for an ``n``-ary predicate ``P`` and terms
``tᵢ``.  A *literal* is an atom or a (default-)negated atom.  Both are
immutable and hashable so they can live in sets and dictionaries — the whole
library manipulates sets of atoms/literals.

The module also implements the paper's ``pred(a)`` and ``dom(a)`` notations
(:attr:`Atom.predicate` / :meth:`Atom.domain`), groundness tests and a small
amount of convenience API for building atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .terms import (
    Constant,
    Term,
    Variable,
    is_ground_term,
    term_sort_key,
    variables_of,
)

__all__ = ["Atom", "Literal", "pos", "neg", "domain_of_atoms", "variables_of_atoms"]


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``P(t₁, …, tₙ)``.

    Parameters
    ----------
    predicate:
        The predicate (relation) name ``P``.
    args:
        The argument terms ``t₁, …, tₙ``; stored as a tuple.
    """

    predicate: str
    args: tuple[Term, ...]
    #: hash cached at construction: atoms are hashed constantly (label sets,
    #: rule indexes, waiter tables) and deep Skolem arguments make re-hashing
    #: per lookup measurably expensive; term hashes are already cached, so
    #: this is O(arity) once.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.predicate == other.predicate and self.args == other.args

    # -- basic structure ---------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of arguments of the atom."""
        return len(self.args)

    def is_ground(self) -> bool:
        """Return ``True`` iff the atom contains no variables."""
        return all(is_ground_term(t) for t in self.args)

    def domain(self) -> set[Term]:
        """The set ``dom(a)`` of all arguments of the atom (as a set).

        Following the paper, ``dom(a)`` is the set of the atom's arguments;
        for ground atoms these are constants and nulls.
        """
        return set(self.args)

    def variables(self) -> set[Variable]:
        """Return the set of variables occurring (possibly nested) in the atom."""
        result: set[Variable] = set()
        for arg in self.args:
            result.update(variables_of(arg))
        return result

    def constants(self) -> set[Constant]:
        """Return the set of constants occurring at the top level of the atom."""
        return {arg for arg in self.args if isinstance(arg, Constant)}

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"

    # -- ordering (used for deterministic output) ---------------------------

    def sort_key(self) -> tuple[Any, ...]:
        """A total-order key: predicate name first, then argument order."""
        return (self.predicate, len(self.args), tuple(term_sort_key(a) for a in self.args))


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal: an atom together with a polarity.

    ``Literal(a, positive=True)`` denotes the atom ``a`` itself and
    ``Literal(a, positive=False)`` denotes its default negation ``not a``
    (written ``¬a`` in the paper).
    """

    atom: Atom
    positive: bool = True
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.atom, self.positive)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.positive == other.positive
            and self.atom == other.atom
        )

    # -- construction helpers ----------------------------------------------

    def negate(self) -> "Literal":
        """Return the complementary literal (the paper's ``¬.ℓ``)."""
        return Literal(self.atom, not self.positive)

    # -- structure ----------------------------------------------------------

    @property
    def predicate(self) -> str:
        """Predicate name of the underlying atom."""
        return self.atom.predicate

    @property
    def args(self) -> tuple[Term, ...]:
        """Arguments of the underlying atom."""
        return self.atom.args

    def is_ground(self) -> bool:
        """Return ``True`` iff the underlying atom is ground."""
        return self.atom.is_ground()

    def domain(self) -> set[Term]:
        """``dom(ℓ)`` — the arguments of the underlying atom."""
        return self.atom.domain()

    def variables(self) -> set[Variable]:
        """Variables occurring in the literal."""
        return self.atom.variables()

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"

    def __repr__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"Literal({sign}{self.atom})"

    def sort_key(self) -> tuple[Any, ...]:
        """Total-order key: negative literals sort after positive ones."""
        return (0 if self.positive else 1,) + self.atom.sort_key()


def pos(atom: Atom) -> Literal:
    """Shorthand for a positive literal."""
    return Literal(atom, True)


def neg(atom: Atom) -> Literal:
    """Shorthand for a negative literal ``not atom``."""
    return Literal(atom, False)


def domain_of_atoms(atoms: Iterable[Atom]) -> set[Term]:
    """``dom(A)`` for a set of atoms: the union of the atoms' argument sets."""
    result: set[Term] = set()
    for atom in atoms:
        result.update(atom.args)
    return result


def variables_of_atoms(atoms: Iterable[Atom]) -> set[Variable]:
    """The set of variables occurring in any of the given atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return result
