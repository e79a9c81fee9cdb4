"""The well-founded semantics of finite ground normal programs (Sec. 2.6).

Three constructions are implemented and cross-checked by the tests:
(a fourth, :class:`IncrementalWFS` / :func:`well_founded_model_incremental`,
re-solves a *growing* program across monotone rule additions and is pinned
bit-identical to :func:`well_founded_model` by the incremental test suites):

* :func:`well_founded_model` — the production path: the ground program's
  atom-level dependency graph is decomposed into strongly connected
  components (:func:`repro.lp.stratification.ground_dependency_components`)
  and evaluated component by component, dependencies first.  A component
  without internal negation is resolved with one linear worklist pass (a
  definite-consequence closure plus one unfounded-set sweep); only components
  with internal negation pay for the alternating ``T``/``U`` machinery, and
  even there every closure is a linear worklist propagation over the shared
  :class:`~repro.lp.fixpoint.RuleIndex`.
* :func:`well_founded_model_naive` — the paper's definition kept verbatim as
  a reference: iterate ``W_P(I) = T_P(I) ∪ ¬.U_P(I)`` from the empty
  interpretation to the least fixpoint, re-scanning the whole program each
  round.
* :func:`well_founded_model_alternating` — Van Gelder's alternating fixpoint:
  iterate ``Γ²`` (two applications of the Gelfond–Lifschitz transform followed
  by a least-model computation) from ``∅``; its least fixpoint gives the true
  atoms and ``Γ`` of it the non-false atoms.  ``Γ`` runs on the rule index
  without materialising reducts.

All three return a :class:`WellFoundedModel`, a thin wrapper around
:class:`~repro.lp.interpretation.Interpretation` that also knows the relevant
atom universe so that atoms outside the ground program are reported false
(they head no rule, hence are unfounded).

Correctness of the modular evaluation rests on the modularity ("splitting")
property of the WFS: the condensation of the dependency graph is acyclic, so
the well-founded model of the whole program restricted to a component equals
the well-founded model of the component's rules with the (final) values of
all lower components fixed.  Undefined lower atoms stay undefined markers:
a rule depending on one can never fire definitely but still provides
possible support, which is exactly how the two closures below treat it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Collection, Iterable, Iterator, Optional, Sequence

from ..lang.atoms import Atom, Literal
from .fixpoint import IncrementalCondensation, RuleIndex
from .grounding import GroundProgram
from .interpretation import Interpretation
from .unfounded import greatest_unfounded_set, possibly_true_atoms_naive

__all__ = [
    "WellFoundedModel",
    "IncrementalWFS",
    "tp_operator",
    "wp_operator",
    "well_founded_model",
    "well_founded_model_incremental",
    "well_founded_model_naive",
    "well_founded_model_alternating",
    "least_model_positive",
    "gelfond_lifschitz_reduct",
]


class WellFoundedModel:
    """The well-founded model ``WFS(P)`` of a finite ground normal program.

    Exposes the three-valued protocol (``is_true`` / ``is_false`` /
    ``is_undefined``) used by query evaluation.  Atoms outside the relevant
    universe of the ground program are *false*: they do not occur in any rule,
    hence belong to every greatest unfounded set.
    """

    def __init__(
        self,
        interpretation: Interpretation,
        universe: Iterable[Atom],
        *,
        iterations: int = 0,
    ):
        self._interpretation = interpretation
        self._universe = frozenset(universe)
        self.iterations = iterations

    # -- three-valued protocol ---------------------------------------------------

    def is_true(self, atom: Atom) -> bool:
        """``True`` iff the atom is well-founded (true in the model)."""
        return self._interpretation.is_true(atom)

    def is_false(self, atom: Atom) -> bool:
        """``True`` iff the atom is unfounded (false in the model).

        Atoms outside the relevant universe are false.
        """
        if self._interpretation.is_false(atom):
            return True
        return atom not in self._universe and not self._interpretation.is_true(atom)

    def is_undefined(self, atom: Atom) -> bool:
        """``True`` iff the atom has the third truth value."""
        return not self.is_true(atom) and not self.is_false(atom)

    def true_atoms(self) -> frozenset[Atom]:
        """The well-founded (true) atoms."""
        return self._interpretation.true_atoms()

    def false_atoms(self) -> frozenset[Atom]:
        """The unfounded (false) atoms *inside the relevant universe*."""
        return self._interpretation.false_atoms()

    def undefined_atoms(self) -> frozenset[Atom]:
        """The undefined atoms of the relevant universe."""
        return frozenset(
            a for a in self._universe if self._interpretation.is_undefined(a)
        )

    def universe(self) -> frozenset[Atom]:
        """The relevant atom universe the model was computed over."""
        return self._universe

    def interpretation(self) -> Interpretation:
        """The underlying consistent literal set."""
        return self._interpretation

    def holds(self, literal: Literal) -> bool:
        """Is the ground literal a consequence under the WFS?"""
        if literal.positive:
            return self.is_true(literal.atom)
        return self.is_false(literal.atom)

    def literals(self) -> Iterator[Literal]:
        """All literals of the model (restricted to the relevant universe)."""
        return self._interpretation.literals()

    def is_total(self) -> bool:
        """``True`` iff no atom of the relevant universe is undefined."""
        return not self.undefined_atoms()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WellFoundedModel):
            return NotImplemented
        return (
            self._interpretation == other._interpretation
            and self._universe == other._universe
        )

    def __str__(self) -> str:
        return str(self._interpretation)

    def __repr__(self) -> str:
        return (
            f"WellFoundedModel({len(self.true_atoms())} true, "
            f"{len(self.false_atoms())} false, {len(self.undefined_atoms())} undefined)"
        )


# ---------------------------------------------------------------------------
# The paper's operators
# ---------------------------------------------------------------------------


def tp_operator(program: GroundProgram, interpretation: Interpretation) -> set[Atom]:
    """The immediate-consequence operator ``T_P(I)``.

    ``T_P(I) = {H(r) | r ∈ ground(P), B⁺(r) ∪ ¬.B⁻(r) ⊆ I}``: a head is
    derived when every positive body atom is true in ``I`` and every negative
    body atom is false in ``I``.
    """
    return program.index().tp(interpretation)


def wp_operator(program: GroundProgram, interpretation: Interpretation) -> Interpretation:
    """One application of ``W_P(I) = T_P(I) ∪ ¬.U_P(I)``."""
    true_atoms = tp_operator(program, interpretation)
    unfounded = greatest_unfounded_set(program, interpretation)
    # W_P is only applied to interpretations compatible with P, for which
    # T_P(I) and U_P(I) are disjoint; the Interpretation constructor re-checks.
    return Interpretation(true_atoms, unfounded - true_atoms)


# ---------------------------------------------------------------------------
# SCC-modular indexed evaluation (the production path)
# ---------------------------------------------------------------------------


def _solve_component(
    index: RuleIndex,
    component: set[int],
    rule_ids: Sequence[int],
    true_ids: Collection[int],
    false_ids: Collection[int],
) -> tuple[set[int], set[int], int]:
    """Solve one condensation component, its dependencies already final.

    Alternates the definite-consequence and possibly-true closures confined
    to *component* until they stabilise (a single pass when the component has
    no internal negation).  ``true_ids``/``false_ids`` are **read-only
    external inputs**: the closures only ever membership-test body atoms, and
    every body atom is either internal to the component (no value yet — the
    component is unsolved) or external (its value is final), so the solve
    snapshots the externals once into private working sets and mutates only
    those.  Returns the component's newly derived true and false ids plus
    the number of alternation rounds; committing the deltas into the global
    sets is the caller's job, so :class:`IncrementalWFS` can keep its atom
    mirrors in step from the returned deltas alone.  The regression suite
    enforces the read-only contract by passing frozensets here.  This is the
    shared evaluation core of
    :func:`well_founded_model` and :class:`IncrementalWFS` — one
    implementation, so the incremental path can never drift from the
    from-scratch one.
    """
    internal_negation = any(
        atom_id in component
        for rule_id in rule_ids
        for atom_id in index.neg_ids(rule_id)
    )
    work_true: set[int] = set()
    work_false: set[int] = set()
    for rule_id in rule_ids:
        for atom_id in (*index.pos_ids(rule_id), *index.neg_ids(rule_id)):
            if atom_id in component:
                continue
            if atom_id in true_ids:
                work_true.add(atom_id)
            elif atom_id in false_ids:
                work_false.add(atom_id)
    local_true: set[int] = set()
    local_false: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        new_true = index.definite_closure_ids(rule_ids, component, work_true, work_false)
        work_true |= new_true
        local_true |= new_true
        possible = index.possible_closure_ids(rule_ids, component, work_true, work_false)
        new_false = {
            atom_id
            for atom_id in component
            if atom_id not in possible and atom_id not in work_false
        }
        work_false |= new_false
        local_false |= new_false
        if not internal_negation or (not new_true and not new_false):
            break
    return local_true, local_false, rounds


def well_founded_model(program: GroundProgram) -> WellFoundedModel:
    """``WFS(P)`` by SCC-modular worklist evaluation.

    The atom dependency graph (an edge from each head to each of its body
    atoms, positive or negative) is condensed into strongly connected
    components, which are evaluated dependencies-first:

    * a component without internal negation is *stratified locally*: one
      definite-consequence closure yields its true atoms and one
      possibly-true sweep its false atoms — a single linear pass;
    * a component with internal negation alternates the two closures until
      they stabilise, which is the ``W_P`` iteration confined to the
      component (lower components are already final).

    The whole evaluation runs in the rule index's dense atom-id space and is
    translated back to atoms once at the end.  Agreement with
    :func:`well_founded_model_naive` and
    :func:`well_founded_model_alternating` is asserted by the test-suite.
    """
    index = program.index()
    universe = program.atoms()
    true_ids: set[int] = set()
    false_ids: set[int] = set()
    rounds = 0
    for component_ids in index.dependency_components_ids():
        component = set(component_ids)
        rule_ids = [
            rule_id
            for atom_id in component_ids
            for rule_id in index.active_rule_ids_for_head_id(atom_id)
        ]
        local_true, local_false, component_rounds = _solve_component(
            index, component, rule_ids, true_ids, false_ids
        )
        true_ids |= local_true
        false_ids |= local_false
        rounds += component_rounds

    interpretation = Interpretation(index.atoms_of(true_ids), index.atoms_of(false_ids))
    return WellFoundedModel(interpretation, universe, iterations=rounds)


# ---------------------------------------------------------------------------
# Incremental evaluation across monotone program growth (iterative deepening)
# ---------------------------------------------------------------------------


class IncrementalWFS:
    """The well-founded model of a *growing* ground program, re-solved lazily.

    The Datalog± engine's iterative deepening only ever **adds** ground rules
    to its :class:`~repro.lp.grounding.GroundProgram`; recomputing the full
    SCC-modular model at every depth therefore redoes almost all of the
    previous depth's work.  This solver keeps, across calls to :meth:`refresh`:

    * an :class:`~repro.lp.fixpoint.IncrementalCondensation` of the program's
      rule index (new rules are folded in, Tarjan reruns confined to the
      affected suffix of the component order);
    * the per-component solutions of the previous call (the component's true
      and false atom ids) plus each component's *external inputs* — the body
      atom ids outside the component whose final values its solution read;
    * the current model itself, as id sets plus atom-space mirrors (true atoms
      bucketed by predicate, false atoms flat) that are updated from the
      per-component deltas and read in place by :meth:`is_true`,
      :meth:`unfounded_atoms` and :meth:`true_atoms_with_predicate`.

    A refresh re-solves, dependencies first, exactly the components the delta
    can have touched: components reported dirty by the condensation (new
    membership, or a new rule heading into them) and components one of whose
    external inputs changed value.  The walk is a min-heap keyed by the
    condensation position, seeded with the dirty components; a re-solve that
    changes atoms pushes the components of the rules watching them, so an
    unchanged re-solve stops the ripple and a refresh visits only candidates
    (:attr:`last_visited`), never the whole component order.  Everything else
    keeps its stored solution untouched.

    :meth:`model` is the only place that copies: it refreshes and then
    snapshots the mirrors into an immutable :class:`WellFoundedModel`, cached
    until the next refresh that re-solves anything.

    Correctness is the same modularity ("splitting") argument that justifies
    :func:`well_founded_model`: a component's restriction of the WFS is the
    WFS of the component's rules with all lower components' final values
    fixed.  A component whose membership, rule set and external input values
    are all unchanged therefore has the *same* subproblem as at the previous
    depth — its stored solution is the solution.  The incremental test suites
    pin the resulting models bit-identical to the from-scratch path across
    random programs, growth schedules and budget resumes.
    """

    def __init__(self, program: GroundProgram):
        self._program = program
        self._condensation = IncrementalCondensation(program.index())
        #: component id -> (true atom ids, false atom ids) of its solution
        self._solutions: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
        #: component id -> external body atom ids its solution depends on
        self._inputs: dict[int, frozenset[int]] = {}
        #: condensation updates accumulated by :meth:`refresh_structure`
        #: calls between refreshes — nothing may be lost when a caller
        #: refreshes the condensation without immediately re-solving
        self._pending_dirty: set[int] = set()
        self._pending_removed: set[int] = set()
        #: atom ids invalidated externally (rule activity flipped under the
        #: index by the view-maintenance layer); translated to component ids
        #: at the next refresh, after the structural refresh
        self._pending_dirty_atom_ids: set[int] = set()
        self._true_ids: set[int] = set()
        self._false_ids: set[int] = set()
        #: atom-space mirrors of the id sets, updated from per-component
        #: deltas so a refresh never re-translates the untouched bulk: true
        #: atoms bucketed by predicate (the query-side index), false atoms flat
        self._true_by_predicate: dict[str, set[Atom]] = {}
        self._false_atoms: set[Atom] = set()
        #: alternation rounds of the most recent refresh that re-solved
        #: anything (the ``iterations`` of :meth:`model`)
        self._iterations = 0
        self._snapshot: Optional[WellFoundedModel] = None
        #: instrumentation for tests and the benchmark: components popped
        #: from the ripple heap, re-solved, and kept (every component not
        #: re-solved) by the most recent refresh
        self.last_visited = 0
        self.last_resolved = 0
        self.last_reused = 0
        #: atoms whose truth value changed in the most recent refresh
        #: (empty on a no-change step); consumers such as the engine's
        #: frontier-type cache invalidate exactly these
        self.last_changed_atoms: frozenset = frozenset()

    @property
    def program(self) -> GroundProgram:
        """The growing ground program this solver is bound to."""
        return self._program

    @property
    def condensation(self) -> IncrementalCondensation:
        """The incrementally maintained dependency condensation."""
        return self._condensation

    def refresh_structure(self) -> None:
        """Fold appended rules into the condensation without re-solving.

        The resulting :class:`~repro.lp.fixpoint.CondensationUpdate` is
        accumulated into pending state consumed by the next :meth:`refresh`,
        so callers that need a current condensation *between* refreshes (the
        view-maintenance layer asks it which atoms are recursive) can refresh
        eagerly without losing dirt.
        """
        update = self._condensation.refresh()
        self._pending_dirty |= update.dirty
        self._pending_removed |= update.removed

    def invalidate_atom_ids(self, atom_ids: Iterable[int]) -> None:
        """Mark atoms (by index id) whose defining rules changed under the index.

        The view-maintenance layer enables/disables ground rules in place;
        the condensation cannot see those flips (the rule *structure* is
        unchanged), so the affected heads are reported here and their
        components re-solve on the next :meth:`refresh` — the value ripple to
        dependent components then follows the normal changed-input path.
        """
        self._pending_dirty_atom_ids.update(atom_ids)

    # -- live reads of the maintained model ----------------------------------------

    def is_true(self, atom: Atom) -> bool:
        """Is *atom* true in the model as of the last :meth:`refresh`?"""
        bucket = self._true_by_predicate.get(atom.predicate)
        return bucket is not None and atom in bucket

    def true_atoms_with_predicate(self, predicate: str) -> Collection[Atom]:
        """The true atoms with the given predicate: a live read-only view."""
        return self._true_by_predicate.get(predicate, ())

    def iter_true_atoms(self) -> Iterator[Atom]:
        """Every true atom as of the last refresh, without copying."""
        return itertools.chain.from_iterable(self._true_by_predicate.values())

    def copy_true_atoms(self) -> set[Atom]:
        """A fresh set of the true atoms as of the last refresh."""
        return set().union(*self._true_by_predicate.values())

    def unfounded_atoms(self) -> Collection[Atom]:
        """The false atoms of the program's universe: a live read-only view.

        Unlike :meth:`WellFoundedModel.is_false`, membership here says nothing
        about atoms outside the universe; readers that need that convention
        apply it.
        """
        return self._false_atoms

    @property
    def iterations(self) -> int:
        """Alternation rounds of the last refresh that re-solved anything."""
        return self._iterations

    # -- solving ------------------------------------------------------------------

    def _retract_solution(
        self, index: RuleIndex, true_part: Collection[int], false_part: Collection[int]
    ) -> None:
        """Drop a component's stored solution from the id sets and mirrors."""
        if true_part:
            self._true_ids.difference_update(true_part)
            buckets = self._true_by_predicate
            for atom_id in true_part:
                atom = index.atom_of(atom_id)
                bucket = buckets[atom.predicate]
                bucket.discard(atom)
                if not bucket:
                    del buckets[atom.predicate]
        if false_part:
            self._false_ids.difference_update(false_part)
            self._false_atoms.difference_update(index.atoms_of(false_part))

    def _assert_solution(
        self, index: RuleIndex, true_part: Collection[int], false_part: Collection[int]
    ) -> None:
        """Add a component's fresh solution to the id sets and mirrors."""
        if true_part:
            self._true_ids.update(true_part)
            buckets = self._true_by_predicate
            for atom_id in true_part:
                atom = index.atom_of(atom_id)
                bucket = buckets.get(atom.predicate)
                if bucket is None:
                    bucket = buckets[atom.predicate] = set()
                bucket.add(atom)
        if false_part:
            self._false_ids.update(false_part)
            self._false_atoms.update(index.atoms_of(false_part))

    def refresh(self) -> None:
        """Bring the maintained model up to date, re-solving only dirty parts.

        Solves without snapshotting: afterwards the live reads
        (:meth:`is_true`, :meth:`unfounded_atoms`,
        :meth:`true_atoms_with_predicate`) reflect the program's current rule
        set, and :meth:`model` can snapshot it.
        """
        index = self._program.index()
        condensation = self._condensation
        self.refresh_structure()
        removed = self._pending_removed
        dirty = self._pending_dirty - removed
        for atom_id in self._pending_dirty_atom_ids:
            dirty.add(condensation.component_of_atom(atom_id))
        self._pending_dirty = set()
        self._pending_removed = set()
        self._pending_dirty_atom_ids = set()
        if not dirty and not removed:
            # No new rules reached any component, so no solution can change
            # (a genuinely new rule always dirties its head's component), no
            # rule activity flipped, and the universe is unchanged.
            self.last_visited = 0
            self.last_resolved = 0
            self.last_reused = len(condensation)
            self.last_changed_atoms = frozenset()
            return
        self._snapshot = None
        changed: set[int] = set()
        for cid in removed:
            solution = self._solutions.pop(cid, None)
            if solution is not None:
                # the merged successor re-solves and re-asserts these atoms;
                # anything it no longer derives has genuinely changed value
                self._retract_solution(index, *solution)
                changed |= solution[0] | solution[1]
            self._inputs.pop(cid, None)

        resolved, rounds, visited = self._ripple(index, dirty, changed)
        self._iterations = rounds
        self.last_visited = visited
        self.last_resolved = resolved
        self.last_reused = len(condensation) - resolved
        self.last_changed_atoms = frozenset(index.atoms_of(changed))

    def _ripple(
        self, index: RuleIndex, dirty: set[int], changed: set[int]
    ) -> tuple[int, int, int]:
        """The position-heap ripple; returns ``(resolved, rounds, visited)``.

        A component is popped only when it is dirty or some rule heading into
        it watches an atom that changed value earlier in this refresh, and
        the heap pops in condensation order, so by the time a component is
        popped every change below it is final.  The resolve test on a popped
        component is the full rule — no stored solution, dirty, or a changed
        external input — so the decisions (and with them every statistic)
        equal a dependencies-first sweep over the whole order.
        """
        condensation = self._condensation
        position = condensation.position
        comp_of = condensation.component_of_atom
        head_id = index.head_id
        queued = set(dirty)
        heap = [(position(cid), cid) for cid in queued]
        heapq.heapify(heap)

        def push_watchers(atom_ids: Iterable[int]) -> None:
            for atom_id in atom_ids:
                for watchers in (index.watchers_pos_id(atom_id), index.watchers_neg_id(atom_id)):
                    for rule_id in watchers:
                        cid = comp_of(head_id(rule_id))
                        if cid not in queued:
                            queued.add(cid)
                            heapq.heappush(heap, (position(cid), cid))

        push_watchers(changed)
        rounds = resolved = visited = 0
        while heap:
            _, cid = heapq.heappop(heap)
            visited += 1
            stored = self._solutions.get(cid)
            resolve = stored is None or cid in dirty
            if not resolve and changed:
                inputs = self._inputs.get(cid)
                resolve = inputs is not None and not changed.isdisjoint(inputs)
            if not resolve:
                continue
            resolved += 1
            component = set(condensation.members(cid))
            rule_ids = [
                rule_id
                for atom_id in component
                for rule_id in index.active_rule_ids_for_head_id(atom_id)
            ]
            if stored is not None:
                self._retract_solution(index, *stored)
            local_true, local_false, component_rounds = _solve_component(
                index, component, rule_ids, self._true_ids, self._false_ids
            )
            self._assert_solution(index, local_true, local_false)
            rounds += component_rounds
            solution = (frozenset(local_true), frozenset(local_false))
            if stored is None:
                delta = solution[0] | solution[1]
            else:
                delta = (stored[0] ^ solution[0]) | (stored[1] ^ solution[1])
            if delta:
                changed |= delta
                push_watchers(delta)
            self._solutions[cid] = solution
            self._inputs[cid] = frozenset(
                atom_id
                for rule_id in rule_ids
                for atom_id in (*index.pos_ids(rule_id), *index.neg_ids(rule_id))
                if atom_id not in component
            )
        return resolved, rounds, visited

    def model(self) -> WellFoundedModel:
        """``WFS(P)`` for the program's current rule set, as an immutable snapshot.

        Refreshes (re-solving only dirty parts), then copies the mirrors into
        a :class:`WellFoundedModel`; the snapshot is reused until a refresh
        re-solves something, and later refreshes never alter it.
        """
        self.refresh()
        if self._snapshot is None:
            interpretation = Interpretation(self.copy_true_atoms(), self._false_atoms)
            self._snapshot = WellFoundedModel(
                interpretation, self._program.atoms(), iterations=self._iterations
            )
        return self._snapshot


def well_founded_model_incremental(
    program: GroundProgram,
    state: Optional[IncrementalWFS] = None,
) -> tuple[WellFoundedModel, IncrementalWFS]:
    """``WFS(P)`` of a growing program, reusing the previous call's solutions.

    Functional wrapper around :class:`IncrementalWFS` for callers that thread
    state explicitly (the Datalog± engine's deepening schedule): pass the
    state returned by the previous call — made against the *same* (since
    grown) :class:`~repro.lp.grounding.GroundProgram` object — and only the
    components the delta touched are re-solved.  With ``state=None`` (or a
    state bound to a different program) the computation starts cold and is
    equivalent to :func:`well_founded_model`.
    """
    if state is None or state.program is not program:
        state = IncrementalWFS(program)
    return state.model(), state


def well_founded_model_naive(program: GroundProgram) -> WellFoundedModel:
    """``WFS(P) = lfp(W_P)`` computed by iterating ``W_P`` from ``∅``.

    The seed's direct transcription of the paper's definition, retained as the
    reference implementation: each round re-scans the whole program for the
    ``T_P`` consequences and recomputes the greatest unfounded set naively.
    ``W_P`` is monotone on the consistent interpretations compatible with
    ``P``, so the iteration from the empty interpretation reaches the least
    fixpoint after at most ``|relevant universe|`` many steps.
    """
    universe = program.atoms()
    rules = program.rules()
    current = Interpretation.empty()
    iterations = 0
    while True:
        iterations += 1
        derived: set[Atom] = set()
        for rule in rules:
            if all(current.is_true(b) for b in rule.body_pos) and all(
                current.is_false(b) for b in rule.body_neg
            ):
                derived.add(rule.head)
        possible = possibly_true_atoms_naive(program, current)
        unfounded = {a for a in universe if a not in possible}
        nxt = Interpretation(derived, unfounded - derived)
        if nxt == current:
            break
        current = nxt
    return WellFoundedModel(current, universe, iterations=iterations)


# ---------------------------------------------------------------------------
# Alternating fixpoint (Van Gelder 1989) — used as an independent cross-check
# ---------------------------------------------------------------------------


def _index_of(program: GroundProgram | Iterable) -> RuleIndex:
    """The cached index of a :class:`GroundProgram`, or a fresh one for iterables."""
    if isinstance(program, GroundProgram):
        return program.index()
    return RuleIndex(program)


def least_model_positive(program: GroundProgram | Iterable, *, start: Iterable[Atom] = ()) -> set[Atom]:
    """Least Herbrand model of a ground *positive* program (fixpoint of T_P).

    *program* may be a :class:`GroundProgram` or any iterable of ground rules
    whose negative bodies are empty (negative bodies, if present, are ignored —
    callers pass reducts, which are positive by construction).  Computed by a
    single Dowling–Gallier worklist propagation over the rule index.
    """
    return _index_of(program).least_model(start)


def gelfond_lifschitz_reduct(program: GroundProgram, assumed_true: set[Atom]) -> list:
    """The Gelfond–Lifschitz reduct ``P^J`` w.r.t. the atom set *assumed_true*.

    Rules with a negative body atom in *assumed_true* are deleted; the
    remaining rules lose their negative bodies.  (The fixpoint computations
    no longer materialise reducts — they block rules directly on the index —
    but the explicit construction remains part of the API and of the tests.)
    """
    reduct = []
    for rule in program:
        if any(b in assumed_true for b in rule.body_neg):
            continue
        reduct.append(rule.positive_part())
    return reduct


def _gamma(program: GroundProgram, assumed_true: set[Atom]) -> set[Atom]:
    """``Γ(J)``: least model of the reduct ``P^J``, via the rule index."""
    return _index_of(program).gamma(assumed_true)


def well_founded_model_alternating(program: GroundProgram) -> WellFoundedModel:
    """The WFS via Van Gelder's alternating fixpoint.

    The sequence ``I₀ = ∅``, ``I_{k+1} = Γ(Γ(I_k))`` is increasing and its
    limit ``I*`` is the set of true atoms of the WFS; ``Γ(I*)`` is the set of
    atoms that are not false.  Equivalence with the unfounded-set construction
    is a classical result (Van Gelder 1989) and is asserted by the tests.
    Each ``Γ`` is one worklist propagation over the shared rule index — the
    reduct is represented by blocking rules, never materialised.
    """
    universe = program.atoms()
    index = _index_of(program)
    current: set[int] = set()
    iterations = 0
    while True:
        iterations += 1
        upper = index.gamma_ids(current)
        nxt = index.gamma_ids(upper)
        if nxt == current:
            break
        current = nxt
    not_false = index.gamma_ids(current)
    true_atoms = index.atoms_of(current)
    false_atoms = {a for a in universe if index.atom_id(a) not in not_false}
    interpretation = Interpretation(true_atoms, false_atoms)
    return WellFoundedModel(interpretation, universe, iterations=iterations)
