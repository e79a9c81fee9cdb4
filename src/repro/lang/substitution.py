"""Substitutions, matching, unification and homomorphisms (Sec. 2.1).

The paper defines answers to conjunctive queries via *homomorphisms*: mappings
``μ : Δ ∪ Δ_N ∪ V → Δ ∪ Δ_N ∪ V`` that are the identity on constants and map
nulls to constants or nulls.  Operationally we work with *substitutions* —
finite mappings from variables (and, for homomorphisms, nulls) to terms — and
with two matching procedures:

* :func:`match` — one-way matching of a pattern atom against a target atom
  (the pattern's variables are bound, the target is left untouched).  This is
  what rule application and query evaluation over a set of ground atoms need.
* :func:`unify` — most general unifier of two atoms, used by some auxiliary
  analyses (e.g. detecting whether two rule heads can produce the same atom).

Substitutions are immutable; :meth:`Substitution.bind` returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, ItemsView, Mapping, Optional, Sequence

from .atoms import Atom, Literal
from .terms import Constant, FunctionTerm, Term, Variable

__all__ = ["Substitution", "match", "match_atoms", "unify"]


@dataclass(frozen=True)
class Substitution:
    """An immutable finite mapping from variables to terms.

    The mapping may also contain nulls (ground functional terms) as keys when
    it represents a homomorphism on nulls, as required by the definition of
    CQ answers in the paper.
    """

    mapping: Mapping[Term, Term] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mapping into a plain dict we own.
        object.__setattr__(self, "mapping", dict(self.mapping))

    # -- container protocol --------------------------------------------------

    def __contains__(self, key: Term) -> bool:
        return key in self.mapping

    def __getitem__(self, key: Term) -> Term:
        return self.mapping[key]

    def __len__(self) -> int:
        return len(self.mapping)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.mapping)

    def items(self) -> "ItemsView[Term, Term]":
        """Items view of the underlying mapping."""
        return self.mapping.items()

    def get(self, key: Term, default: Optional[Term] = None) -> Optional[Term]:
        """Return the image of *key* or *default* if unbound."""
        return self.mapping.get(key, default)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls) -> "Substitution":
        """The empty substitution."""
        return cls({})

    def bind(self, key: Term, value: Term) -> "Substitution":
        """Return a new substitution that additionally maps *key* to *value*.

        Raises
        ------
        ValueError
            If *key* is already bound to a different term.
        """
        existing = self.mapping.get(key)
        if existing is not None and existing != value:
            raise ValueError(f"variable {key} already bound to {existing}, cannot rebind to {value}")
        new_mapping = dict(self.mapping)
        new_mapping[key] = value
        return Substitution(new_mapping)

    def compose(self, other: "Substitution") -> "Substitution":
        """Return the composition ``self ∘ other`` applied as ``other`` after ``self``.

        Applying the result to a term ``t`` equals ``other.apply(self.apply(t))``.
        """
        new_mapping: dict[Term, Term] = {}
        for key, value in self.mapping.items():
            new_mapping[key] = other.apply_term(value)
        for key, value in other.mapping.items():
            new_mapping.setdefault(key, value)
        return Substitution(new_mapping)

    def restrict(self, keys: Iterable[Term]) -> "Substitution":
        """Return the restriction of the substitution to the given keys."""
        keys = set(keys)
        return Substitution({k: v for k, v in self.mapping.items() if k in keys})

    # -- application ------------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """Apply the substitution to a term (recursively inside function terms).

        The original term object is returned whenever nothing changes, which
        preserves structure sharing between the deeply nested Skolem terms the
        chase produces (important for performance: see
        :class:`repro.lang.terms.FunctionTerm`).
        """
        if term in self.mapping:
            return self.mapping[term]
        if isinstance(term, FunctionTerm):
            if not self.mapping:
                return term
            new_args = tuple(self.apply_term(a) for a in term.args)
            if all(new is old for new, old in zip(new_args, term.args)):
                return term
            return FunctionTerm(term.function, new_args)
        return term

    def apply_atom(self, atom: Atom) -> Atom:
        """Apply the substitution to every argument of an atom."""
        return Atom(atom.predicate, tuple(self.apply_term(a) for a in atom.args))

    def apply_literal(self, literal: Literal) -> Literal:
        """Apply the substitution to the atom of a literal, preserving polarity."""
        return Literal(self.apply_atom(literal.atom), literal.positive)

    def __str__(self) -> str:
        inner = ", ".join(f"{k} -> {v}" for k, v in sorted(self.mapping.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# One-way matching
# ---------------------------------------------------------------------------


def _match_term(pattern: Term, target: Term, subst: Substitution) -> Optional[Substitution]:
    """Match a single pattern term against a target term under *subst*.

    Variables in the pattern are bound; constants and function symbols must
    agree exactly.  The target is typically ground but is not required to be.
    Returns the extended substitution or ``None`` if matching fails.
    """
    if isinstance(pattern, Variable):
        bound = subst.get(pattern)
        if bound is None:
            return subst.bind(pattern, target)
        return subst if bound == target else None
    if isinstance(pattern, Constant):
        return subst if pattern == target else None
    # pattern is a FunctionTerm
    if not isinstance(target, FunctionTerm):
        return None
    if pattern.function != target.function or len(pattern.args) != len(target.args):
        return None
    current: Optional[Substitution] = subst
    for p_arg, t_arg in zip(pattern.args, target.args):
        current = _match_term(p_arg, t_arg, current)
        if current is None:
            return None
    return current


def match(pattern: Atom, target: Atom, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """One-way match of a *pattern* atom against a *target* atom.

    Only the pattern's variables may be bound.  Returns the extending
    substitution, or ``None`` if the atoms do not match.
    """
    if subst is None:
        subst = Substitution.empty()
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    current: Optional[Substitution] = subst
    for p_arg, t_arg in zip(pattern.args, target.args):
        current = _match_term(p_arg, t_arg, current)
        if current is None:
            return None
    return current


def match_atoms(
    patterns: Sequence[Atom],
    facts: Iterable[Atom],
    subst: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Enumerate all substitutions matching every pattern atom to some fact.

    This is the core join used by rule application and conjunctive-query
    evaluation: each pattern in *patterns* must be matched (independently) to
    some atom in *facts*, consistently with the bindings accumulated so far.
    The *facts* iterable is materialised once (indexed by predicate) so it may
    be any iterable.
    """
    if subst is None:
        subst = Substitution.empty()
    fact_index: dict[str, list[Atom]] = {}
    for fact in facts:
        fact_index.setdefault(fact.predicate, []).append(fact)
    yield from _match_atoms_indexed(list(patterns), fact_index, subst)


def _match_atoms_indexed(
    patterns: list[Atom],
    fact_index: Mapping[str, list[Atom]],
    subst: Substitution,
) -> Iterator[Substitution]:
    """Recursive helper of :func:`match_atoms` working on a predicate index."""
    if not patterns:
        yield subst
        return
    first, rest = patterns[0], patterns[1:]
    for fact in fact_index.get(first.predicate, ()):  # pragma: no branch
        extended = match(first, fact, subst)
        if extended is not None:
            yield from _match_atoms_indexed(rest, fact_index, extended)


# ---------------------------------------------------------------------------
# Unification (most general unifier)
# ---------------------------------------------------------------------------


def _occurs(variable: Variable, term: Term, subst: dict[Term, Term]) -> bool:
    """Occurs-check: does *variable* occur in *term* modulo *subst*?"""
    stack = [term]
    while stack:
        current = stack.pop()
        current = subst.get(current, current)
        if current == variable:
            return True
        if isinstance(current, FunctionTerm):
            stack.extend(current.args)
    return False


def _walk(term: Term, subst: dict[Term, Term]) -> Term:
    """Follow variable bindings in *subst* until a non-bound term is reached."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def _unify_terms(left: Term, right: Term, subst: dict[Term, Term]) -> bool:
    """Destructively extend *subst* to unify *left* and *right*; return success."""
    left = _walk(left, subst)
    right = _walk(right, subst)
    if left == right:
        return True
    if isinstance(left, Variable):
        if _occurs(left, right, subst):
            return False
        subst[left] = right
        return True
    if isinstance(right, Variable):
        if _occurs(right, left, subst):
            return False
        subst[right] = left
        return True
    if isinstance(left, FunctionTerm) and isinstance(right, FunctionTerm):
        if left.function != right.function or len(left.args) != len(right.args):
            return False
        return all(_unify_terms(a, b, subst) for a, b in zip(left.args, right.args))
    return False


def unify(left: Atom, right: Atom) -> Optional[Substitution]:
    """Return a most general unifier of the two atoms, or ``None``.

    The returned substitution is idempotent on the atoms' variables (bindings
    are fully resolved before being returned).
    """
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    raw: dict[Term, Term] = {}
    for l_arg, r_arg in zip(left.args, right.args):
        if not _unify_terms(l_arg, r_arg, raw):
            return None
    # Resolve chains so the result is directly applicable.
    resolver = Substitution(raw)
    resolved = {key: resolver.apply_term(_walk(key, raw)) for key in raw}
    return Substitution(resolved)
