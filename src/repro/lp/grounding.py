"""Grounding of normal logic programs (Sec. 2.2: ``ground(P)``).

The semantics of a normal program is defined on its grounding.  Materialising
the full grounding over the Herbrand base is hopeless in general (and
impossible with function symbols), so this module implements *relevant
grounding*: only rule instances whose positive body atoms are potentially
derivable are produced.  This is the standard "intelligent grounding" used by
Datalog/ASP systems and it is sound for the well-founded semantics because an
atom with no potentially-applicable rule is unfounded anyway.

Two entry points:

* :func:`relevant_grounding` — iterate rule application (ignoring negative
  bodies) from the program's facts to a fixpoint, producing a
  :class:`GroundProgram`.  The iteration is *semi-naive*: a persistent
  :class:`PredicateIndex` over the candidate atoms is grown incrementally and
  each round only instantiates rules against the atoms that are new since the
  previous round (the delta), so work is proportional to the new instances
  rather than to everything derived so far.  Terminates for function-free
  programs; a round / atom budget guards the function-symbol case.
* :func:`ground_over_atoms` — ground the rules of a program over a *fixed*
  set of candidate atoms (no fixpoint).  The Datalog± engine uses this to turn
  a finite chase segment into a finite ground program.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..exceptions import GroundingError
from ..lang.atoms import Atom
from ..lang.program import NormalProgram
from ..lang.rules import NormalRule
from ..lang.substitution import Substitution, match
from .fixpoint import RuleIndex

__all__ = [
    "GroundProgram",
    "PredicateIndex",
    "SemiNaiveGrounder",
    "relevant_grounding",
    "ground_over_atoms",
    "ground_rule_instances",
]


class GroundProgram:
    """A finite ground normal program: a view over its :class:`RuleIndex`.

    The :class:`~repro.lp.fixpoint.RuleIndex` of :meth:`index` stores every
    rule once, as atom ids, and builds a :class:`NormalRule` only when one is
    asked for.  Its atom table is the *relevant universe*: atoms outside it
    have no rule and are false under the WFS, so the fixpoint computations
    never look beyond it.  :meth:`add` is the validated entry point for rule
    objects; the columnar grounder and the magic-sets strip append id
    triples through :meth:`RuleIndex.intern` and :meth:`RuleIndex.add_ids`.
    """

    __slots__ = ("_index", "_atoms_frozen")

    def __init__(self, rules: Iterable[NormalRule] = ()):
        self._index = RuleIndex()
        self._atoms_frozen: frozenset[Atom] = frozenset()
        for rule in rules:
            self.add(rule)

    # -- construction -----------------------------------------------------------

    def add(self, rule: NormalRule) -> bool:
        """Add a ground rule; return ``False`` for a duplicate, which is ignored.

        Raises
        ------
        GroundingError
            If the rule is not ground.
        """
        if not rule.is_ground():
            raise GroundingError(f"GroundProgram only accepts ground rules, got {rule}")
        return self._index.add_rule(rule)

    def update(self, rules: Iterable[NormalRule]) -> None:
        """Add every rule of *rules*."""
        for rule in rules:
            self.add(rule)

    # -- access -------------------------------------------------------------------

    def __iter__(self) -> Iterator[NormalRule]:
        return map(self._index.rule, range(len(self._index)))

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, rule: NormalRule) -> bool:
        return self._index.rule_id(rule) is not None

    def rules(self) -> tuple[NormalRule, ...]:
        """All ground rules, in insertion order."""
        return tuple(self)

    def rules_since(self, start: int) -> tuple[NormalRule, ...]:
        """The rules appended at insertion positions ``>= start``.

        The program is append-only, so ``rules_since(len(previous_view))`` is
        exactly the delta between two observations — what callers that
        mirror the program elsewhere (benchmarks, differential tests) feed
        forward per step.
        """
        return tuple(map(self._index.rule, range(start, len(self._index))))

    def rules_with_head(self, atom: Atom) -> Sequence[NormalRule]:
        """All rules whose head is exactly *atom*."""
        return [self._index.rule(i) for i in self._index.rule_ids_for_head(atom)]

    def head_atoms(self) -> set[Atom]:
        """Atoms that occur as the head of at least one rule."""
        index = self._index
        return index.atoms_of(map(index.head_id, range(len(index))))

    def atoms(self) -> frozenset[Atom]:
        """The relevant universe: every atom occurring in some rule.

        Cached until the index interns a new atom, so the per-depth model
        snapshots of iterative deepening share one frozenset instead of
        rebuilding an O(atoms) copy each time.
        """
        if len(self._atoms_frozen) != self._index.atom_count():
            self._atoms_frozen = self._index.atoms()
        return self._atoms_frozen

    def index(self) -> RuleIndex:
        """The :class:`~repro.lp.fixpoint.RuleIndex` the program is a view of."""
        return self._index

    def facts(self) -> list[Atom]:
        """Heads of rules with empty bodies."""
        return [rule.head for rule in self if rule.is_fact()]

    def is_positive(self) -> bool:
        """``True`` iff no rule has a negative body."""
        return not any(map(self._index.neg_ids, range(len(self._index))))

    def positive_part(self) -> "GroundProgram":
        """The ground program with all negative body literals removed."""
        return GroundProgram(r.positive_part() for r in self)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self)

    def __repr__(self) -> str:
        return f"GroundProgram({len(self._index)} rules, {self._index.atom_count()} atoms)"


class PredicateIndex:
    """A persistent predicate-name → atoms index for semi-naive grounding.

    Quacks like the mapping :func:`ground_rule_instances` expects (``get``)
    while supporting cheap incremental insertion with duplicate detection, so
    the grounding loop never rebuilds the index of everything derived so far.
    """

    __slots__ = ("_by_predicate", "_atoms")

    def __init__(self, atoms: Iterable[Atom] = ()):
        #: predicate -> insertion-ordered dict used as a set: iteration is
        #: deterministic and :meth:`discard` is O(1), which plain lists are not
        self._by_predicate: dict[str, dict[Atom, None]] = {}
        self._atoms: set[Atom] = set()
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> bool:
        """Insert *atom*; return ``True`` iff it was not present before."""
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        self._by_predicate.setdefault(atom.predicate, {})[atom] = None
        return True

    def discard(self, atom: Atom) -> bool:
        """Remove *atom* if present; return ``True`` iff it was removed."""
        if atom not in self._atoms:
            return False
        self._atoms.discard(atom)
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.pop(atom, None)
        return True

    def get(self, predicate: str, default: Sequence[Atom] = ()) -> Iterable[Atom]:
        """The atoms with the given predicate name (mapping protocol)."""
        return self._by_predicate.get(predicate, default)

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def atoms(self) -> frozenset[Atom]:
        """Every indexed atom."""
        return frozenset(self._atoms)

    def __repr__(self) -> str:
        return f"PredicateIndex({len(self._atoms)} atoms, {len(self._by_predicate)} predicates)"


def ground_rule_instances(
    rule: NormalRule, atom_index: Mapping[str, Sequence[Atom]]
) -> Iterator[NormalRule]:
    """Enumerate ground instances of *rule* over the given candidate atoms.

    Every positive body atom must match an atom of ``atom_index`` (a mapping
    from predicate name to candidate atoms).  Safety of the rule guarantees
    that the resulting head and negative body are ground.
    """
    if rule.is_fact():
        if rule.is_ground():
            yield rule
        return
    substitutions = _match_body(list(rule.body_pos), atom_index, Substitution.empty())
    for subst in substitutions:
        yield from _instantiate(rule, subst)


def _instantiate(rule: NormalRule, subst: Substitution) -> Iterator[NormalRule]:
    """Apply *subst* to every atom of *rule*, yielding the instance if ground."""
    head = subst.apply_atom(rule.head)
    body_pos = tuple(subst.apply_atom(a) for a in rule.body_pos)
    body_neg = tuple(subst.apply_atom(a) for a in rule.body_neg)
    instance = NormalRule(head, body_pos, body_neg)
    if instance.is_ground():
        yield instance


def _delta_rule_instances(
    rule: NormalRule,
    full_index: "PredicateIndex",
    delta_index: "PredicateIndex",
) -> Iterator[NormalRule]:
    """Semi-naive instance enumeration: at least one positive body atom is new.

    For each position of the positive body in turn, the atom at that position
    is matched against the *delta* (atoms new since the previous round) and
    the remaining positions against the full candidate index.  Instances whose
    body atoms are all old were produced in an earlier round; instances using
    several new atoms are produced once per such position, and the caller's
    duplicate check absorbs the overlap.
    """
    patterns = list(rule.body_pos)
    for position, pattern in enumerate(patterns):
        for candidate in delta_index.get(pattern.predicate, ()):
            seeded = match(pattern, candidate)
            if seeded is None:
                continue
            rest = patterns[:position] + patterns[position + 1 :]
            for subst in _match_body(rest, full_index, seeded):
                yield from _instantiate(rule, subst)


def _match_body(
    patterns: list[Atom],
    atom_index: Mapping[str, Sequence[Atom]],
    subst: Substitution,
) -> Iterator[Substitution]:
    """Enumerate substitutions matching every pattern against the candidate atoms."""
    if not patterns:
        yield subst
        return
    first, rest = patterns[0], patterns[1:]
    for candidate in atom_index.get(first.predicate, ()):  # pragma: no branch
        extended = match(first, candidate, subst)
        if extended is not None:
            yield from _match_body(rest, atom_index, extended)


def _index_atoms(atoms: Iterable[Atom]) -> dict[str, list[Atom]]:
    """Group atoms by predicate name."""
    index: dict[str, list[Atom]] = {}
    for atom in atoms:
        index.setdefault(atom.predicate, []).append(atom)
    return index


def ground_over_atoms(
    program: NormalProgram | Iterable[NormalRule],
    atoms: Iterable[Atom],
) -> GroundProgram:
    """Ground every rule of *program* over the fixed candidate atom set *atoms*.

    No fixpoint is computed: a rule instance is produced iff each of its
    positive body atoms occurs in *atoms*.  Ground facts of the program are
    always included.
    """
    index = _index_atoms(atoms)
    ground = GroundProgram()
    for rule in program:
        for instance in ground_rule_instances(rule, index):
            ground.add(instance)
    return ground


def _ground_candidate(atom: Atom) -> Atom:
    """*atom*, which enters a grounder's candidates from outside its rules.

    Raises :class:`GroundingError` unless it is ground, as the columnar
    backend does, before the caller changes any state.
    """
    if not atom.is_ground():
        raise GroundingError(f"candidate atoms must be ground, got {atom}")
    return atom


class SemiNaiveGrounder:
    """Stateful semi-naive relevant grounding with resumable budgets.

    The grounder owns the persistent candidate :class:`PredicateIndex` and the
    growing :class:`GroundProgram`; :meth:`run` iterates delta rounds until a
    fixpoint (``saturated``) or a budget is hit.  Unlike the
    :func:`relevant_grounding` convenience wrapper, budget exhaustion can be
    reported as a flag instead of an exception (``raise_on_budget=False``),
    which is what the magic-sets query path uses to fall back gracefully, and
    :meth:`run` may be called again with larger budgets to resume.
    """

    def __init__(
        self,
        program: NormalProgram | Iterable[NormalRule],
        extra_atoms: Iterable[Atom] = (),
    ):
        self.ground = GroundProgram()
        self.index = PredicateIndex()
        self.rounds = 0
        #: insertion position of :attr:`ground` before the most recent
        #: :meth:`run` call; ``delta_rules()`` returns everything after it
        self._delta_start = 0
        self._delta: list[Atom] = []
        self._proper_rules: list[NormalRule] = []

        for atom in extra_atoms:
            self._seed(_ground_candidate(atom))
        once_rules: list[NormalRule] = []
        for rule in program:
            if rule.is_fact() and rule.is_ground():
                self.ground.add(rule)
                self._seed(rule.head)
            elif not rule.is_fact():
                if rule.body_pos:
                    self._proper_rules.append(rule)
                else:
                    once_rules.append(rule)

        # Rules with an empty positive body (ground constraints-by-negation
        # such as ``not q -> p``) have nothing to match: instantiate them once.
        for rule in once_rules:
            for instance in ground_rule_instances(rule, self.index):
                self.ground.add(instance)
                self._seed(instance.head)

    def _seed(self, atom: Atom) -> None:
        if self.index.add(atom):
            self._delta.append(atom)

    def add_fact(self, atom: Atom) -> None:
        """Add a ground EDB fact to the grounder's state.

        The fact rule is stored in :attr:`ground` (duplicates ignored — the
        program is append-only) and the atom joins the candidate index as a
        pending delta atom, so the next :meth:`run` grounds exactly the rule
        instances the new fact can fire.  This is the insertion seam of the
        materialized-view layer.
        """
        if not atom.is_ground():
            raise GroundingError(f"facts must be ground, got {atom}")
        self.ground.add(NormalRule(atom))
        self._seed(atom)

    def retract_fact(self, atom: Atom) -> bool:
        """Drop *atom* from the candidate index; return whether it was present.

        Purely a matching-state optimisation: already-produced rule instances
        stay in :attr:`ground` (it is append-only; the view layer tracks
        which stored rules are *active*), but future delta rounds no longer
        join against the atom.  The caller must guarantee the atom is no
        longer derivable — retracting an atom that is still a candidate would
        make future grounding incomplete — and re-seed it via
        :meth:`add_fact`/:meth:`reseed` if it ever becomes derivable again.
        """
        removed = self.index.discard(atom)
        if removed and self._delta:
            try:
                self._delta.remove(atom)
            except ValueError:
                pass
        return removed

    def reseed(self, atom: Atom) -> None:
        """Re-enter a previously retracted atom into the candidate index.

        Unlike :meth:`add_fact` no fact rule is stored: the atom is derivable
        through existing rules again (the view layer's rederivation decided
        so) and only the matching state must catch up — the next :meth:`run`
        produces the joins the atom missed while it was out of the index.
        """
        self._seed(_ground_candidate(atom))

    @property
    def saturated(self) -> bool:
        """``True`` iff the fixpoint was reached (no pending delta atoms)."""
        return not self._delta

    def delta_rules(self) -> tuple[NormalRule, ...]:
        """The ground rules produced by the most recent :meth:`run` call.

        Budget-interrupted runs compose: a resumed :meth:`run` reports only
        its own contribution, so a caller that folds every delta forward (the
        incremental WFS layer, a mirrored program) sees each rule exactly
        once.
        """
        return self.ground.rules_since(self._delta_start)

    def run(
        self,
        *,
        max_rounds: Optional[int] = None,
        max_atoms: Optional[int] = None,
        raise_on_budget: bool = True,
    ) -> bool:
        """Iterate delta rounds to a fixpoint; return whether it saturated.

        ``max_rounds`` bounds the *total* number of rounds across calls and
        ``max_atoms`` the size of the candidate index.  On budget exhaustion
        either a :class:`GroundingError` is raised (``raise_on_budget=True``)
        or ``False`` is returned and the grounder stays resumable.  The rules
        this call produced are afterwards available as :meth:`delta_rules`.
        """
        self._delta_start = len(self.ground)
        while self._delta:
            if max_rounds is not None and self.rounds + 1 > max_rounds:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding did not converge within {max_rounds} rounds "
                        "(the program probably has function symbols); use a budget or the chase engine"
                    )
                return False
            self.rounds += 1
            delta_index = PredicateIndex(self._delta)
            self._delta = []
            for rule in self._proper_rules:
                # materialise before seeding: the candidate buckets are
                # insertion-ordered dicts, so the scan must see a snapshot
                # (freshly seeded heads are matched next round via the delta)
                for instance in list(
                    _delta_rule_instances(rule, self.index, delta_index)
                ):
                    if self.ground.add(instance):
                        self._seed(instance.head)
            if max_atoms is not None and len(self.index) > max_atoms:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding exceeded the atom budget of {max_atoms}"
                    )
                return False
        return True


def relevant_grounding(
    program: NormalProgram | Iterable[NormalRule],
    extra_atoms: Iterable[Atom] = (),
    *,
    max_rounds: Optional[int] = None,
    max_atoms: Optional[int] = None,
    backend: str = "tuple",
) -> GroundProgram:
    """Relevant (intelligent) grounding of a normal program, semi-naively.

    Starting from the program's ground facts plus *extra_atoms*, rules are
    instantiated over the atoms derived so far (treating negative bodies as
    satisfiable) and their head atoms are added to the candidate set, until a
    fixpoint is reached.  The result contains exactly the rule instances whose
    positive bodies are potentially derivable, which preserves the WFS (and
    the stable and stratified semantics) of the full grounding.

    Each round after the first only matches rules against the *delta* — the
    candidate atoms that are new since the previous round — over a persistent
    :class:`PredicateIndex`, instead of re-matching every rule against every
    candidate from scratch.  The loop itself lives in
    :class:`SemiNaiveGrounder`; this wrapper runs it to saturation.

    Parameters
    ----------
    program:
        The normal program to ground.
    extra_atoms:
        Additional ground atoms treated as potentially true (e.g. a database).
    max_rounds, max_atoms:
        Safety budgets for programs with function symbols, whose relevant
        grounding may be infinite.  Exceeding a budget raises
        :class:`GroundingError`.
    backend:
        Grounding executor: ``"tuple"`` (this module's per-candidate matcher)
        or ``"columnar"`` (bulk relational delta joins; see
        :mod:`repro.lp.columnar`).  The resulting programs are equal as rule
        sets for both backends.
    """
    # Imported here: repro.lp.columnar builds on this module's primitives.
    from .columnar import make_grounder

    grounder = make_grounder(program, extra_atoms, backend=backend)
    grounder.run(max_rounds=max_rounds, max_atoms=max_atoms, raise_on_budget=True)
    return grounder.ground


def _relevant_grounding_naive(
    program: NormalProgram | Iterable[NormalRule],
    extra_atoms: Iterable[Atom] = (),
    *,
    max_rounds: Optional[int] = None,
    max_atoms: Optional[int] = None,
) -> GroundProgram:
    """The seed's whole-program re-scan grounding, retained as a reference.

    Semantically identical to :func:`relevant_grounding`; the test-suite
    cross-checks the semi-naive implementation against it on the workload
    generators.  Not part of the public API.
    """
    rules = list(program)
    candidates: set[Atom] = set(extra_atoms)
    ground = GroundProgram()
    for rule in rules:
        if rule.is_fact() and rule.is_ground():
            ground.add(rule)
            candidates.add(rule.head)

    proper_rules = [r for r in rules if not r.is_fact()]
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise GroundingError(
                f"relevant grounding did not converge within {max_rounds} rounds "
                "(the program probably has function symbols); use a budget or the chase engine"
            )
        index = _index_atoms(candidates)
        for rule in proper_rules:
            for instance in ground_rule_instances(rule, index):
                if ground.add(instance) and instance.head not in candidates:
                    candidates.add(instance.head)
                    changed = True
        if max_atoms is not None and len(candidates) > max_atoms:
            raise GroundingError(
                f"relevant grounding exceeded the atom budget of {max_atoms}"
            )
    return ground
