"""Conjunctive queries, BCQs and normal BCQs (Sec. 2.1 and 2.3 of the paper).

* :class:`ConjunctiveQuery` — ``Q(X) = ∃Y Φ(X, Y)`` with answer variables
  ``X`` and a conjunction of atoms Φ.
* A *BCQ* is a conjunctive query without answer variables; represented by the
  same class with ``answer_variables == ()``.
* :class:`NormalBCQ` (NBCQ) — an existentially closed conjunction of atoms and
  negated atoms (Sec. 2.3).  A BCQ is the special case with no negated atoms.

Evaluation is defined against either

* a plain set of ground atoms (two-valued, closed world): a negated query atom
  holds iff no matching atom is in the set; or
* any *three-valued* interpretation object exposing ``is_true(atom)`` and
  ``is_false(atom)`` (e.g. :class:`repro.lp.interpretation.Interpretation` or
  the well-founded model produced by the Datalog± engine): a negated query
  atom ``not b`` holds for a homomorphism μ iff ``μ(b)`` is *false* (not merely
  "not true"), exactly as in the paper's definition of NBCQ satisfaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from ..exceptions import IllFormedRuleError
from .atoms import Atom, Literal, variables_of_atoms
from .substitution import Substitution, match
from .terms import Term, Variable

__all__ = [
    "ConjunctiveQuery",
    "NormalBCQ",
    "ThreeValuedLike",
    "evaluate_query",
    "query_holds",
    "query_literals",
    "as_conjunctive_query",
]


@runtime_checkable
class ThreeValuedLike(Protocol):
    """Structural protocol for three-valued interpretations.

    Anything with ``is_true``/``is_false`` membership tests can serve as the
    evaluation structure for NBCQs (the well-founded model classes implement
    this protocol).
    """

    def is_true(self, atom: Atom) -> bool:  # pragma: no cover - protocol
        ...

    def is_false(self, atom: Atom) -> bool:  # pragma: no cover - protocol
        ...

    def true_atoms(self) -> Iterable[Atom]:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``Q(X) = ∃Y Φ(X, Y)``.

    ``answer_variables`` is the tuple ``X`` (empty for a BCQ) and ``atoms`` is
    the conjunction Φ.  Constants may occur in the atoms; nulls may not.
    """

    atoms: tuple[Atom, ...]
    answer_variables: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "answer_variables", tuple(self.answer_variables))
        if not self.atoms:
            raise IllFormedRuleError("a conjunctive query needs at least one atom")
        body_vars = variables_of_atoms(self.atoms)
        missing = set(self.answer_variables) - body_vars
        if missing:
            names = ", ".join(sorted(str(v) for v in missing))
            raise IllFormedRuleError(
                f"answer variables {{{names}}} do not occur in the query body"
            )

    def is_boolean(self) -> bool:
        """``True`` iff the query has no answer variables (a BCQ)."""
        return not self.answer_variables

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return variables_of_atoms(self.atoms)

    def existential_variables(self) -> set[Variable]:
        """The non-answer variables ``Y``."""
        return self.variables() - set(self.answer_variables)

    def predicates(self) -> set[str]:
        """Predicate names used by the query."""
        return {a.predicate for a in self.atoms}

    def __str__(self) -> str:
        head = "Q(" + ", ".join(str(v) for v in self.answer_variables) + ")"
        return f"{head} :- {', '.join(str(a) for a in self.atoms)}"


@dataclass(frozen=True)
class NormalBCQ:
    """A normal Boolean conjunctive query (Sec. 2.3).

    ``∃X p₁(X) ∧ … ∧ pₘ(X) ∧ ¬p_{m+1}(X) ∧ … ∧ ¬p_{m+n}(X)`` with m ≥ 1 and
    n ≥ 0.  ``positive`` are the p₁…pₘ and ``negative`` the ¬-free atoms
    p_{m+1}…p_{m+n}.
    """

    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", tuple(self.positive))
        object.__setattr__(self, "negative", tuple(self.negative))
        if not self.positive:
            raise IllFormedRuleError("an NBCQ needs at least one positive atom (m >= 1)")

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "NormalBCQ":
        """Build an NBCQ from a collection of literals."""
        pos = tuple(l.atom for l in literals if l.positive)
        negs = tuple(l.atom for l in literals if not l.positive)
        return cls(pos, negs)

    def literals(self) -> tuple[Literal, ...]:
        """The query as literals, positives first."""
        return tuple(Literal(a, True) for a in self.positive) + tuple(
            Literal(a, False) for a in self.negative
        )

    def size(self) -> int:
        """The number ``n`` of literals of the query (used in Prop. 12)."""
        return len(self.positive) + len(self.negative)

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return variables_of_atoms(self.positive) | variables_of_atoms(self.negative)

    def predicates(self) -> set[str]:
        """Predicate names used by the query."""
        return {a.predicate for a in self.positive} | {a.predicate for a in self.negative}

    def is_positive(self) -> bool:
        """``True`` iff the query has no negated atoms (a plain BCQ)."""
        return not self.negative

    def __str__(self) -> str:
        parts = [str(a) for a in self.positive] + [f"not {a}" for a in self.negative]
        return "? " + ", ".join(parts)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def query_literals(
    query: Union["NormalBCQ", "ConjunctiveQuery", Literal, Atom],
) -> tuple[Literal, ...]:
    """Normalise any supported query form to a tuple of literals.

    Ground atoms become single positive literals; literals pass through;
    conjunctive queries contribute their atoms positively; NBCQs contribute
    positives first, then negatives.  This is the uniform query currency the
    rewriting subsystem (and the engine's query paths) operate on.
    """
    if isinstance(query, Atom):
        return (Literal(query, True),)
    if isinstance(query, Literal):
        return (query,)
    if isinstance(query, ConjunctiveQuery):
        return tuple(Literal(a, True) for a in query.atoms)
    if isinstance(query, NormalBCQ):
        return query.literals()
    raise TypeError(f"cannot normalise {type(query).__name__} to query literals")


def as_conjunctive_query(query: "NormalBCQ | ConjunctiveQuery") -> ConjunctiveQuery:
    """View an NBCQ without negation as a conjunctive query.

    Every variable becomes an answer variable (sorted by name, so answer
    tuples are deterministic) — the convention used by ``answer()``-style
    helpers when the user writes a query in NBCQ syntax.
    """
    if isinstance(query, ConjunctiveQuery):
        return query
    if query.negative:
        raise IllFormedRuleError(
            "a conjunctive query cannot contain negated atoms; use NBCQ evaluation"
        )
    variables = sorted(query.variables(), key=lambda v: v.name)
    return ConjunctiveQuery(query.positive, tuple(variables))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


InterpretationLike = Union[ThreeValuedLike, Iterable[Atom]]


class _SetAdapter:
    """Adapt a plain set of ground atoms to the three-valued protocol.

    Truth is membership; falsity is non-membership (closed world).  This is
    the right reading for evaluating queries against a database or against the
    result of a chase.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms = atoms if isinstance(atoms, (set, frozenset)) else set(atoms)
        self._by_predicate: Optional[dict[str, list[Atom]]] = None

    def is_true(self, atom: Atom) -> bool:
        return atom in self._atoms

    def is_false(self, atom: Atom) -> bool:
        return atom not in self._atoms

    def true_atoms(self) -> Iterable[Atom]:
        return self._atoms

    def true_atoms_with_predicate(self, predicate: str) -> Iterable[Atom]:
        if self._by_predicate is None:
            self._by_predicate = _true_atom_index(self)
        return self._by_predicate.get(predicate, ())


def _adapt(interpretation: InterpretationLike) -> ThreeValuedLike:
    """Wrap plain atom collections; pass through three-valued objects.

    The ``hasattr`` tests are what ``isinstance(x, ThreeValuedLike)`` checks,
    without the runtime-checkable Protocol's cost on every query.
    """
    if isinstance(interpretation, (set, frozenset, list, tuple)) or not (
        hasattr(interpretation, "is_true")
        and hasattr(interpretation, "is_false")
        and hasattr(interpretation, "true_atoms")
    ):
        return _SetAdapter(interpretation)  # type: ignore[arg-type]
    return interpretation  # type: ignore[return-value]


def _true_atom_index(interpretation: ThreeValuedLike) -> dict[str, list[Atom]]:
    """Predicate-indexed view of the interpretation's true atoms."""
    index: dict[str, list[Atom]] = {}
    for atom in interpretation.true_atoms():
        index.setdefault(atom.predicate, []).append(atom)
    return index


def _candidates_by_predicate(
    interpretation: ThreeValuedLike,
) -> Callable[[str], Iterable[Atom]]:
    """``predicate -> true atoms`` for the non-ground query atoms.

    Served by the interpretation's own ``true_atoms_with_predicate`` when it
    has one; otherwise a predicate index of ``true_atoms()`` is built on the
    first call, so queries whose atoms are all ground never build it.
    """
    lookup: Optional[Callable[[str], Iterable[Atom]]] = getattr(
        interpretation, "true_atoms_with_predicate", None
    )
    if lookup is not None:
        return lookup
    index: Optional[dict[str, list[Atom]]] = None

    def built_lookup(predicate: str) -> Iterable[Atom]:
        nonlocal index
        if index is None:
            index = _true_atom_index(interpretation)
        return index.get(predicate, ())

    return built_lookup


def _homomorphisms(
    positive: Sequence[Atom],
    interpretation: ThreeValuedLike,
    candidates: Callable[[str], Iterable[Atom]],
    subst: Substitution,
) -> Iterator[Substitution]:
    """Enumerate substitutions matching every positive atom to a true atom.

    An atom the substitution so far makes ground is a membership test; only
    atoms with unbound variables scan the true atoms of their predicate.
    """
    if not positive:
        yield subst
        return
    first, rest = positive[0], positive[1:]
    instantiated = subst.apply_atom(first)
    if instantiated.is_ground():
        if interpretation.is_true(instantiated):
            yield from _homomorphisms(rest, interpretation, candidates, subst)
        return
    for candidate in candidates(first.predicate):  # pragma: no branch
        extended = match(first, candidate, subst)
        if extended is not None:
            yield from _homomorphisms(rest, interpretation, candidates, extended)


def evaluate_query(
    query: ConjunctiveQuery,
    interpretation: InterpretationLike,
) -> set[tuple[Term, ...]]:
    """Evaluate a conjunctive query and return the set of answer tuples.

    For a BCQ the result is either ``{()}`` ("yes") or ``set()`` ("no").
    Following the paper, answer tuples range over constants and nulls; the
    caller may filter nulls out if certain answers over ``Δ`` are desired.
    """
    adapted = _adapt(interpretation)
    candidates = _candidates_by_predicate(adapted)
    answers: set[tuple[Term, ...]] = set()
    for hom in _homomorphisms(query.atoms, adapted, candidates, Substitution.empty()):
        answers.add(tuple(hom.apply_term(v) for v in query.answer_variables))
    return answers


def query_holds(
    query: Union[NormalBCQ, ConjunctiveQuery],
    interpretation: InterpretationLike,
) -> bool:
    """Decide whether a Boolean query is satisfied by the interpretation.

    For an :class:`NormalBCQ`, a homomorphism μ must map every positive atom
    to a *true* atom and every negated atom to a *false* atom of the
    interpretation (third truth value "undefined" satisfies neither), exactly
    as the paper defines NBCQ satisfaction in an interpretation ``I ⊆ Lit_P``.
    """
    adapted = _adapt(interpretation)
    candidates = _candidates_by_predicate(adapted)

    if isinstance(query, ConjunctiveQuery):
        positive: Sequence[Atom] = query.atoms
        negative: Sequence[Atom] = ()
    else:
        positive = query.positive
        negative = query.negative

    for hom in _homomorphisms(positive, adapted, candidates, Substitution.empty()):
        if _negatives_false(negative, hom, adapted):
            return True
    return False


def _negatives_false(
    negative: Sequence[Atom], hom: Substitution, interpretation: ThreeValuedLike
) -> bool:
    """Check that every negated atom is false (in the three-valued sense) under *hom*.

    Negated query atoms must be fully instantiated by the homomorphism; if a
    variable of a negative atom occurs in no positive atom the query is
    evaluated under the convention that the atom must be false for *every*
    instantiation — which we approximate by requiring the grounded atom to be
    ground after applying the homomorphism (the parser enforces that NBCQ
    negative variables also occur positively, so this is not hit in practice).
    """
    for atom in negative:
        instantiated = hom.apply_atom(atom)
        if not instantiated.is_ground():
            raise IllFormedRuleError(
                f"negated query atom {atom} is not fully instantiated by the positive part; "
                "every variable of a negated NBCQ atom must also occur in a positive atom"
            )
        if not interpretation.is_false(instantiated):
            return False
    return True
