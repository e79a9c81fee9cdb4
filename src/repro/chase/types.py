"""Atom types and X-isomorphisms (the locality machinery of Sec. 3).

The *type* of an atom ``a`` is the pair ``type_P(a) = (a, S)`` where ``S`` is
the set of literals of ``WFS(P)`` whose arguments all occur among the
arguments of ``a``.  Lemma 11 of the paper shows that nodes of the chase
forest with X-isomorphic types have X-isomorphic well-founded submodels below
them; Prop. 12 turns the finite number of non-isomorphic types into a depth
bound for query matching.

This module provides:

* :class:`AtomType` — the pair ``(a, S)`` with a canonical, hashable key that
  identifies types up to isomorphism fixing the constants (nulls are renamed
  by first occurrence);
* :func:`x_isomorphism` — compute an X-isomorphism between two literal sets if
  one exists (used by the test-suite to validate Lemma 11 style properties on
  small programs);
* :func:`count_types` / :func:`max_type_count` — the combinatorial counting
  underlying the δ bound of Prop. 12 (the bound itself is exposed in
  :mod:`repro.core.locality`).

The chase engine uses the canonical keys of *approximate* types (built from
the current three-valued approximation instead of the final WFS) as its
convergence criterion: once every frontier node's approximate type key has
already been seen at a smaller depth, deeper expansion cannot change the truth
values of literals over the stabilised region (this is the practical analogue
of Lemma 11).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..lang.atoms import Atom, Literal
from ..lang.terms import Constant, FunctionTerm, Term

__all__ = [
    "AtomType",
    "canonical_type_key",
    "x_isomorphism",
    "are_x_isomorphic",
    "max_type_count",
]


def _rename_nulls(
    terms: Iterable[Term], renaming: dict[Term, str]
) -> None:
    """Assign placeholder names (``"#0"``, ``"#1"``, …) to nulls by first occurrence."""
    for term in terms:
        if isinstance(term, FunctionTerm) and term not in renaming:
            renaming[term] = f"#{len(renaming)}"


def _term_key(term: Term, renaming: Mapping[Term, str]) -> tuple:
    """Canonical key of a term: constants by name, nulls by placeholder."""
    if isinstance(term, Constant):
        return ("c", term.name)
    if isinstance(term, FunctionTerm):
        return ("n", renaming[term])
    # Variables should not occur in ground types, but handle them for robustness.
    return ("v", term.name)


def canonical_type_key(atom: Atom, literals: Iterable[Literal]) -> tuple:
    """Canonical key of the pair ``(a, S)`` up to null renaming.

    The nulls of ``a`` are renamed by first occurrence in ``a``'s argument
    list; the literals of ``S`` are then keyed with the same renaming and
    sorted, which yields a key invariant under isomorphisms that fix the
    constants and map ``a``'s arguments positionally.
    """
    renaming: dict[Term, str] = {}
    _rename_nulls(atom.args, renaming)
    atom_part = (atom.predicate,) + tuple(_term_key(arg, renaming) for arg in atom.args)
    literal_keys = []
    for literal in literals:
        inner = literal.atom
        key = (
            literal.positive,
            inner.predicate,
        ) + tuple(_term_key(arg, renaming) for arg in inner.args)
        literal_keys.append(key)
    return (atom_part, tuple(sorted(literal_keys)))


@dataclass(frozen=True)
class AtomType:
    """The type ``type_P(a) = (a, S)`` of an atom (Sec. 3).

    ``literals`` is the set of literals over ``dom(a)`` drawn from the
    (possibly approximate) well-founded model; :meth:`key` gives the canonical
    form used for isomorphism comparisons and for the chase engine's
    convergence test.
    """

    atom: Atom
    literals: frozenset[Literal]

    @classmethod
    def of(cls, atom: Atom, model_literals: Iterable[Literal]) -> "AtomType":
        """Build the type of *atom* from the literals of a model.

        Only literals all of whose arguments occur among ``dom(a)`` are kept,
        per the paper's definition.
        """
        domain = atom.domain()
        selected = frozenset(
            literal for literal in model_literals if set(literal.atom.args) <= domain
        )
        return cls(atom, selected)

    def key(self) -> tuple:
        """Canonical, hashable key identifying the type up to null renaming."""
        return canonical_type_key(self.atom, self.literals)

    def is_isomorphic_to(self, other: "AtomType") -> bool:
        """Types are isomorphic iff their canonical keys coincide."""
        return self.key() == other.key()

    def __str__(self) -> str:
        listed = sorted(self.literals, key=lambda l: l.sort_key())
        return f"type({self.atom}) = ({self.atom}, {{{', '.join(str(l) for l in listed)}}})"


# ---------------------------------------------------------------------------
# X-isomorphisms between literal sets (used by tests of the locality lemmas)
# ---------------------------------------------------------------------------


def _domain_of_literals(literals: Iterable[Literal]) -> set[Term]:
    """All terms occurring as arguments in the literal set."""
    result: set[Term] = set()
    for literal in literals:
        result.update(literal.atom.args)
    return result


def _apply_mapping(literals: Iterable[Literal], mapping: Mapping[Term, Term]) -> set[Literal]:
    """Apply a term mapping to every literal of the set."""
    result: set[Literal] = set()
    for literal in literals:
        new_args = tuple(mapping.get(arg, arg) for arg in literal.atom.args)
        result.add(Literal(Atom(literal.atom.predicate, new_args), literal.positive))
    return result


def x_isomorphism(
    left: Iterable[Literal],
    right: Iterable[Literal],
    fixed: Iterable[Term] = (),
    *,
    max_domain: int = 12,
) -> Optional[dict[Term, Term]]:
    """Find an X-isomorphism from *left* to *right*, or return ``None``.

    An X-isomorphism is a bijection ``f`` between the argument domains with
    ``f(left) = right`` that is the identity on the terms of ``X`` (*fixed*).
    Constants are always kept fixed (the paper's isomorphisms are over
    ``Δ ∪ Δ_N`` but in the UNA setting a constant can only be mapped to
    itself without changing types, and the engine only ever compares types
    whose constants coincide).

    The search enumerates bijections between the non-fixed domain elements and
    is therefore exponential; *max_domain* guards against accidental misuse
    (the tests use small literal sets only).
    """
    left_set = set(left)
    right_set = set(right)
    fixed_set = set(fixed)

    left_domain = _domain_of_literals(left_set)
    right_domain = _domain_of_literals(right_set)
    if len(left_domain) != len(right_domain):
        return None

    always_fixed = {t for t in left_domain if isinstance(t, Constant)} | (
        fixed_set & left_domain
    )
    for term in always_fixed:
        if term not in right_domain and left_domain:
            # a fixed element of the left domain must appear on the right too
            return None

    movable_left = sorted(left_domain - always_fixed, key=str)
    movable_right = sorted(right_domain - always_fixed, key=str)
    if len(movable_left) != len(movable_right):
        return None
    if len(movable_left) > max_domain:
        raise ValueError(
            f"x_isomorphism search domain of size {len(movable_left)} exceeds max_domain={max_domain}"
        )

    base_mapping = {t: t for t in always_fixed}
    for permutation in itertools.permutations(movable_right):
        mapping = dict(base_mapping)
        mapping.update(zip(movable_left, permutation))
        if _apply_mapping(left_set, mapping) == right_set:
            return mapping
    return None


def are_x_isomorphic(
    left: Iterable[Literal],
    right: Iterable[Literal],
    fixed: Iterable[Term] = (),
) -> bool:
    """``True`` iff an X-isomorphism between the two literal sets exists."""
    return x_isomorphism(left, right, fixed) is not None


def max_type_count(num_predicates: int, max_arity: int) -> int:
    """An upper bound on the number of non-isomorphic types for a schema.

    Following the counting in Prop. 12: an atom has at most ``(2w)^w``
    argument patterns over ``2w`` distinguishable argument values, there are
    ``|R|`` predicates and at most ``2^{|R|·(2w)^w}`` literal sets over those
    values, giving ``|R| · (2w)^w · 2^{|R|·(2w)^w}`` — the quantity whose
    doubling is the paper's δ.  Exposed for the locality experiment (E6).
    """
    if max_arity == 0:
        # propositional corner case: only |R| atoms and 2^|R| literal sets
        return max(1, num_predicates) * 2 ** max(1, num_predicates)
    patterns = (2 * max_arity) ** max_arity
    return num_predicates * patterns * 2 ** (num_predicates * patterns)
