"""Materialized-view maintenance: a warm engine under fact insertion/retraction.

PRs 1–6 made the LP core incremental under monotone *rule* growth (the chase
deepening pattern).  This module closes the other half of the production
shape named in the ROADMAP: a long-lived engine whose *database* changes —
facts stream in and out while ``holds``/``answer`` stay warm, the signature
capability of systems like Vadalog (delete-rederive / counting maintenance
over a Datalog±-style core).

:class:`MaterializedEngine` keeps, across updates:

* a resumable semi-naive grounder (any ``backend=`` of
  :func:`repro.lp.columnar.make_grounder`) whose
  :class:`~repro.lp.grounding.GroundProgram` is **monotone**: stored ground
  rules are never deleted.  What changes is each stored rule's *activity* —
  a rule is active iff every positive body atom lies in the current
  derivable-candidate set ``C`` (for EDB fact rules: iff the fact is in the
  current EDB) — tracked by per-rule Dowling–Gallier-style counters of
  positive body atoms outside ``C`` and flipped through
  :meth:`RuleIndex.disable_rule`/:meth:`~repro.lp.fixpoint.RuleIndex.enable_rule`.
  The active rule set is, at every quiescent point, set-equal to the
  relevant grounding of the current (rules, EDB) pair, because the stored
  set is a grounding over the *ever-seen* candidate superset.
* an :class:`~repro.lp.wfs.IncrementalWFS` over the same ground program:
  activity flips are reported through
  :meth:`~repro.lp.wfs.IncrementalWFS.invalidate_atom_ids`, so only the
  condensation components whose defining rules changed (plus the components
  the value ripple reaches) are re-solved.

``holds``/``answer`` read live state: they refresh the solver and evaluate
against :class:`_LiveModel`, a copy-free three-valued view of its mirrors and
of the maintained universe, so an update followed by a query costs time in
the delta, not in the state.  :meth:`MaterializedEngine.model` is the only
place that copies: it snapshots the same state into an immutable
:class:`~repro.lp.wfs.WellFoundedModel`.

**Insertion** stages the new facts into the grounder
(:meth:`~repro.lp.grounding.SemiNaiveGrounder.add_fact`), runs its delta
rounds — grounding only the rule instances the new facts can fire — then
ingests the appended instances (initially inactive) and runs an *activation
closure*: counters of rules watching a newly derivable atom are decremented,
rules hitting zero are enabled and push their heads into ``C``.

**Retraction** is DRed (delete–rederive) with a counting fast path: the
downward closure of the retracted facts is *overdeleted* through the
positive-body watchers — except that an atom which still has an active
deriving rule keeps its place in ``C`` outright when it is provably
non-recursive (singleton condensation component without a positive
self-loop), the Gupta–Mumick counting argument, which is unsound under
cyclic support and therefore falls back to overdeletion there — and the
overdeleted atoms that retain an untouched active rule are *rederived* by
the same activation closure.  Negation never needs special treatment at
this layer: ``C`` is about positive derivability only, and the
unfounded-set machinery inside the component re-solves handles every
negative cycle the flips touched.

The from-scratch rebuild (reground + solve) is retained as
:meth:`MaterializedEngine.scratch_model`, the differential oracle: the
maintained model is bit-identical to it at every update step, which the
property suites and ``benchmarks/bench_view_maintenance.py`` pin.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Iterable, Iterator, Optional, Union

from ..analysis.diagnostics import Diagnostic
from ..analysis.termination import termination_verdict
from ..exceptions import AnalysisError, GroundingError
from ..lang.atoms import Atom, Literal
from ..lang.parser import parse_atom, parse_database, parse_program, parse_query
from ..lang.program import Database, DatalogPMProgram, NormalProgram
from ..lang.queries import (
    ConjunctiveQuery,
    NormalBCQ,
    as_conjunctive_query,
    evaluate_query,
    query_holds,
)
from ..lang.rules import NormalRule
from ..lang.skolem import skolemize_program
from ..lang.terms import Constant
from ..lp.columnar import BACKENDS, make_grounder
from ..lp.interpretation import Interpretation
from ..lp.wfs import IncrementalWFS, WellFoundedModel, well_founded_model
from ..lp.grounding import relevant_grounding

__all__ = ["MaterializedEngine"]


def _coerce_rules(
    program: Union[DatalogPMProgram, NormalProgram, str, Iterable[NormalRule]],
) -> tuple[list[NormalRule], list[Atom]]:
    """Normalise any supported program form to (non-fact rules, program facts)."""
    program_facts: list[Atom] = []
    if isinstance(program, str):
        parsed, parsed_db = parse_program(program)
        program_facts.extend(parsed_db)
        program = parsed
    if isinstance(program, DatalogPMProgram):
        program = skolemize_program(program)
    rules: list[NormalRule] = []
    for rule in program:
        if rule.is_fact() and rule.is_ground():
            program_facts.append(rule.head)
        else:
            rules.append(rule)
    return rules, program_facts


def _require_terminating(rules: Iterable[NormalRule]) -> str:
    """The strongest passing termination criterion, or raise AnalysisError.

    Maintenance replays grounding rounds on every update, so a rule set with
    no static termination certificate would not "fail fast" — it would fail
    on the first insertion touching the cycle, after burning its budget.
    Surfacing the analyzer's verdict at construction time turns that silent
    loop into a diagnosis; ``check_termination=False`` restores the old
    behaviour for programs known to saturate on their actual data.
    """
    verdict = termination_verdict(rules)
    if verdict.criterion is not None:
        return verdict.criterion
    diagnostic = Diagnostic(
        "E103",
        "program has no static termination certificate "
        f"({verdict.reason}); materialized maintenance could loop until its "
        "budgets exhaust",
    )
    raise AnalysisError(
        f"{diagnostic.render()}\n"
        "pass check_termination=False to maintain it anyway under the "
        "max_rounds_per_update/max_atoms budgets",
        diagnostics=(diagnostic,),
    )


class _LiveModel:
    """The maintained model read in place: the three-valued protocol, no copies.

    Agrees with the snapshot :meth:`MaterializedEngine.model` would take at
    the same point: an atom of the maintained universe is false iff the
    solver holds it unfounded, and an atom outside the universe is false iff
    it is not true.  Only valid between the engine's refresh and its next
    update, which is how ``holds``/``answer`` use it.
    """

    __slots__ = ("_wfs", "_universe")

    def __init__(self, wfs: IncrementalWFS, universe: set[Atom]):
        self._wfs = wfs
        self._universe = universe

    def is_true(self, atom: Atom) -> bool:
        return self._wfs.is_true(atom)

    def is_false(self, atom: Atom) -> bool:
        if atom in self._universe:
            return atom in self._wfs.unfounded_atoms()
        return not self._wfs.is_true(atom)

    def holds(self, literal: Literal) -> bool:
        if literal.positive:
            return self.is_true(literal.atom)
        return self.is_false(literal.atom)

    def true_atoms(self) -> Iterator[Atom]:
        return self._wfs.iter_true_atoms()

    def true_atoms_with_predicate(self, predicate: str) -> Iterable[Atom]:
        return self._wfs.true_atoms_with_predicate(predicate)


def _coerce_atoms(atoms: Union[Iterable[Atom], Database, str, Atom]) -> list[Atom]:
    """Normalise a fact collection (or a single fact, or text) to a list."""
    if isinstance(atoms, Atom):
        return [atoms]
    if isinstance(atoms, str):
        return list(parse_database(atoms))
    return [parse_atom(a) if isinstance(a, str) else a for a in atoms]


class MaterializedEngine:
    """A warm ``holds``/``answer`` engine maintained under fact updates.

    Parameters
    ----------
    program:
        The rule set: a :class:`~repro.lang.program.NormalProgram`, an
        iterable of :class:`~repro.lang.rules.NormalRule`, a
        :class:`~repro.lang.program.DatalogPMProgram` (skolemized on entry),
        or program text (parsed as Datalog± — its facts join the database).
        The supported fragment is the one whose skolemized relevant
        grounding is finite, guarded or not: the constructor runs the static
        termination hierarchy of :mod:`repro.analysis` (function-free /
        weakly / jointly / super-weakly acyclic) and raises
        :class:`~repro.exceptions.AnalysisError` with the analyzer's
        diagnostics when every criterion fails, instead of looping until the
        budgets exhaust.  Pass ``check_termination=False`` to opt out for a
        program known to saturate dynamically; such a program then behaves
        as before — it exhausts the round/atom budgets, exactly like
        :func:`~repro.lp.grounding.relevant_grounding` does.
    database:
        Initial EDB facts (:class:`~repro.lang.program.Database`, iterable of
        atoms, or text).
    backend:
        Grounding executor for the delta rounds — ``"tuple"`` or
        ``"columnar"`` (:data:`repro.lp.columnar.BACKENDS`); maintained
        models are backend-invariant.
    max_rounds_per_update, max_atoms:
        Budgets: grounding rounds allowed per logical update, and an absolute
        cap on the candidate-atom count.  On exhaustion the update raises
        :class:`~repro.exceptions.GroundingError` but stays *staged*: queries
        keep re-raising, and re-calling any update method (or the query,
        after raising the budget attributes) resumes exactly where the
        grounder stopped.
    """

    def __init__(
        self,
        program: Union[DatalogPMProgram, NormalProgram, str, Iterable[NormalRule]],
        database: Union[Database, Iterable[Atom], str, None] = None,
        *,
        backend: str = "tuple",
        max_rounds_per_update: Optional[int] = None,
        max_atoms: Optional[int] = None,
        check_termination: bool = True,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown grounding backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.max_rounds_per_update = max_rounds_per_update
        self.max_atoms = max_atoms

        rules, program_facts = _coerce_rules(program)
        self._rules: list[NormalRule] = rules
        #: the strongest static termination criterion that accepted the rule
        #: set ("function-free", "weak", "joint", "super-weak"), or ``None``
        #: when the check was skipped or failed
        self.termination_criterion: Optional[str] = None
        if check_termination:
            self.termination_criterion = _require_terminating(rules)
        initial_facts = list(program_facts)
        if database is not None:
            if isinstance(database, str):
                database = parse_database(database)
            initial_facts.extend(database)

        self._grounder = make_grounder(self._rules, (), backend=backend)
        self._ground = self._grounder.ground
        self._index = self._ground.index()
        self._wfs = IncrementalWFS(self._ground)

        # -- maintained state -------------------------------------------------
        self._edb: set[Atom] = set()
        #: the derivable-candidate set ``C`` as index atom ids
        self._active_ids: set[int] = set()
        #: atoms in ``C`` whose watcher decrement has not run yet (staged
        #: activation frontier; ingestion counts them as outside ``C`` so the
        #: pending decrement is never double-applied)
        self._unpopped: set[int] = set()
        # per-stored-rule state, indexed by dense rule id
        self._unsat: list[int] = []
        self._enabled: list[bool] = []
        self._is_fact_rule: list[bool] = []
        #: head atom id -> number of enabled rules deriving it
        self._support: dict[int, int] = {}
        #: atom id -> occurrences in enabled rules (the maintained universe)
        self._ucount: dict[int, int] = {}
        self._universe: set[Atom] = set()
        self._universe_frozen: Optional[frozenset[Atom]] = None
        #: heads of rules whose activity flipped since the last WFS hand-off
        self._dirty_ids: set[int] = set()
        self._processed_rules = 0

        # -- staged update state (survives budget exhaustion) ------------------
        self._in_update = False
        self._pending_ground: list[Atom] = []
        self._pending_reseed: list[Atom] = []
        self._staged_seeds: list[int] = []
        self._pending_drops: list[int] = []
        self._round_floor = 0

        #: the solver lags the maintained rule activity (an update changed
        #: something since the last refresh)
        self._stale = True
        #: the snapshot :meth:`model` hands out, until the next refresh
        self._model_cache: Optional[WellFoundedModel] = None
        self._live = _LiveModel(self._wfs, self._universe)

        # -- instrumentation ---------------------------------------------------
        self.last_stats: dict = {}
        #: statistics of the last model()/holds()/answer() call, with the
        #: same core keys (seconds, rounds, cache_hit, backend) that
        #: WellFoundedEngine.last_query_stats carries — replay clients read
        #: one shape from either engine
        self.last_query_stats: Optional[dict] = None
        self.total_stats: dict = {
            "updates": 0,
            "facts_added": 0,
            "facts_retracted": 0,
            "rules_enabled": 0,
            "rules_disabled": 0,
            "overdeleted": 0,
            "rederived": 0,
            "counting_kept": 0,
            "reseeded": 0,
            "dropped": 0,
        }
        self._stat: dict = {}

        self.add_facts(initial_facts, _op="init")

    # -- introspection ---------------------------------------------------------

    @property
    def edb(self) -> frozenset[Atom]:
        """The current extensional database."""
        return frozenset(self._edb)

    @property
    def rules(self) -> tuple[NormalRule, ...]:
        """The (non-fact) rules of the program."""
        return tuple(self._rules)

    def ground_rule_count(self) -> tuple[int, int]:
        """``(stored, active)`` ground-rule counts of the maintained state."""
        stored = len(self._index)
        return stored, stored - self._index.disabled_count()

    def __repr__(self) -> str:
        stored, active = self.ground_rule_count()
        return (
            f"MaterializedEngine({len(self._rules)} rules, |EDB|={len(self._edb)}, "
            f"{active}/{stored} ground rules active, backend={self.backend!r})"
        )

    # -- rule activity ----------------------------------------------------------

    def _enable_rule(self, rule_id: int, joined: list[int]) -> None:
        """Enable a stored rule; its head joins ``C`` (appended to *joined*)."""
        if self._enabled[rule_id]:
            return
        self._enabled[rule_id] = True
        index = self._index
        index.enable_rule(rule_id)
        head_id = index.head_id(rule_id)
        self._support[head_id] = self._support.get(head_id, 0) + 1
        self._dirty_ids.add(head_id)
        self._bump_universe(rule_id, +1)
        self._stat["rules_enabled"] = self._stat.get("rules_enabled", 0) + 1
        if head_id not in self._active_ids:
            self._join(head_id, joined)

    def _disable_rule(self, rule_id: int) -> None:
        """Disable a stored rule (its head's support drops by one)."""
        if not self._enabled[rule_id]:
            return
        self._enabled[rule_id] = False
        index = self._index
        index.disable_rule(rule_id)
        head_id = index.head_id(rule_id)
        self._support[head_id] -= 1
        self._dirty_ids.add(head_id)
        self._bump_universe(rule_id, -1)
        self._stat["rules_disabled"] = self._stat.get("rules_disabled", 0) + 1

    def _join(self, atom_id: int, joined: list[int]) -> None:
        """Enter *atom_id* into ``C`` with its watcher decrement still pending."""
        self._active_ids.add(atom_id)
        self._unpopped.add(atom_id)
        joined.append(atom_id)
        atom = self._index.atom_of(atom_id)
        if atom not in self._grounder.index:
            # the atom was physically retracted from the grounder's candidate
            # state earlier; it is derivable again, so the matching state must
            # catch up (the mutual grounding/activation fixpoint re-runs)
            self._pending_reseed.append(atom)
            self._stat["reseeded"] = self._stat.get("reseeded", 0) + 1

    def _bump_universe(self, rule_id: int, delta: int) -> None:
        index = self._index
        atom_ids = {index.head_id(rule_id)}
        atom_ids.update(index.pos_ids(rule_id))
        atom_ids.update(index.neg_ids(rule_id))
        ucount = self._ucount
        for atom_id in atom_ids:
            count = ucount.get(atom_id, 0) + delta
            if count:
                ucount[atom_id] = count
            else:
                ucount.pop(atom_id, None)
            if delta > 0 and count == 1:
                self._universe.add(index.atom_of(atom_id))
                self._universe_frozen = None
            elif delta < 0 and count == 0:
                self._universe.discard(index.atom_of(atom_id))
                self._universe_frozen = None

    def _fact_rule_id(self, head_id: int) -> Optional[int]:
        """The ingested EDB fact rule for an atom id, if one is stored."""
        ingested = len(self._is_fact_rule)
        for rule_id in self._index.rule_ids_for_head_id(head_id):
            if rule_id < ingested and self._is_fact_rule[rule_id]:
                return rule_id
        return None

    # -- the grounding / ingestion / activation fixpoint -------------------------

    def _ground_to_saturation(self) -> None:
        grounder = self._grounder
        while self._pending_ground:
            grounder.add_fact(self._pending_ground.pop())
        while self._pending_reseed:
            grounder.reseed(self._pending_reseed.pop())
        allowance = None
        if self.max_rounds_per_update is not None:
            allowance = self._round_floor + self.max_rounds_per_update
        grounder.run(
            max_rounds=allowance, max_atoms=self.max_atoms, raise_on_budget=True
        )

    def _ingest_new_rules(self, joined: list[int]) -> None:
        """Fold appended ground rules into the per-rule counters (inactive).

        A rule whose positive body already lies inside ``C`` (counting the
        staged frontier as outside, so the pending decrements stay balanced)
        is enabled on the spot; an EDB fact rule is enabled iff its fact is
        in the current EDB; everything else waits for the activation closure.
        """
        index = self._index
        active = self._active_ids
        unpopped = self._unpopped
        edb = self._edb
        for rule_id in range(self._processed_rules, len(index)):
            is_fact = not index.pos_ids(rule_id) and not index.neg_ids(rule_id)
            self._is_fact_rule.append(is_fact)
            self._enabled.append(False)
            index.disable_rule(rule_id)
            if is_fact:
                self._unsat.append(0)
                if index.atom_of(index.head_id(rule_id)) in edb:
                    self._enable_rule(rule_id, joined)
            else:
                unsat = sum(
                    1
                    for atom_id in index.pos_ids(rule_id)
                    if atom_id not in active or atom_id in unpopped
                )
                self._unsat.append(unsat)
                if unsat == 0:
                    self._enable_rule(rule_id, joined)
        self._processed_rules = len(index)

    def _activate(self, stack: list[int]) -> None:
        """Drain the activation frontier: the lfp of rule firing over ``C``."""
        index = self._index
        unsat = self._unsat
        enabled = self._enabled
        is_fact = self._is_fact_rule
        unpopped = self._unpopped
        while stack:
            atom_id = stack.pop()
            unpopped.discard(atom_id)
            for rule_id in index.watchers_pos_id(atom_id):
                unsat[rule_id] -= 1
                if unsat[rule_id] == 0 and not enabled[rule_id] and not is_fact[rule_id]:
                    self._enable_rule(rule_id, stack)

    def _complete_update(self) -> None:
        """Run grounding, ingestion and activation to their mutual fixpoint.

        Raises :class:`~repro.exceptions.GroundingError` on budget
        exhaustion, leaving every staged seed in place — re-calling resumes.
        """
        while True:
            self._ground_to_saturation()
            stack = self._staged_seeds
            self._staged_seeds = []
            self._ingest_new_rules(stack)
            self._staged_seeds = stack  # a budget raise inside the next
            # grounding pass must not lose the un-drained frontier
            self._activate(stack)
            self._staged_seeds = []
            if (
                not self._pending_ground
                and not self._pending_reseed
                and self._grounder.saturated
                and self._processed_rules == len(self._index)
            ):
                break
        # physical candidate-state cleanup: atoms that ended the update
        # outside ``C`` leave the grounder's matching state (re-entering via
        # reseed if ever rederived)
        index = self._index
        for atom_id in self._pending_drops:
            if atom_id not in self._active_ids:
                if self._grounder.retract_fact(index.atom_of(atom_id)):
                    self._stat["dropped"] = self._stat.get("dropped", 0) + 1
        self._pending_drops = []
        self._in_update = False
        if self._dirty_ids:
            self._wfs.invalidate_atom_ids(self._dirty_ids)
            self._dirty_ids = set()

    def _resume_pending(self) -> None:
        if self._in_update:
            self._complete_update()
            self._stale = True

    def _begin(self, op: str) -> float:
        """Open a logical update (or keep accumulating into a staged one)."""
        started = perf_counter()
        if not self._in_update:
            self._round_floor = self._grounder.rounds
            self._stat = {}
        self._in_update = True
        return started

    def _finish(self, op: str, started: float, **extra) -> dict:
        stat = self._stat
        stats = {
            "op": op,
            "seconds": perf_counter() - started,
            "backend": self.backend,
            "rules_enabled": stat.get("rules_enabled", 0),
            "rules_disabled": stat.get("rules_disabled", 0),
            "overdeleted": stat.get("overdeleted", 0),
            "rederived": stat.get("rederived", 0),
            "counting_kept": stat.get("counting_kept", 0),
            "reseeded": stat.get("reseeded", 0),
            "dropped": stat.get("dropped", 0),
            "grounding_rounds": self._grounder.rounds - self._round_floor,
            # "rounds" mirrors "grounding_rounds" so update stats read with
            # the same keys as last_query_stats everywhere (seconds/rounds)
            "rounds": self._grounder.rounds - self._round_floor,
            "stored_rules": len(self._index),
            "active_rules": len(self._index) - self._index.disabled_count(),
        }
        stats.update(extra)
        self.last_stats = stats
        totals = self.total_stats
        totals["updates"] += 1
        for key in (
            "rules_enabled",
            "rules_disabled",
            "overdeleted",
            "rederived",
            "counting_kept",
            "reseeded",
            "dropped",
        ):
            totals[key] += stats[key]
        totals["facts_added"] += stats.get("facts_added", 0)
        totals["facts_retracted"] += stats.get("facts_retracted", 0)
        return stats

    # -- updates ----------------------------------------------------------------

    def add_facts(
        self,
        atoms: Union[Iterable[Atom], Database, str, Atom],
        *,
        _op: str = "add",
    ) -> dict:
        """Insert facts; ground and activate only what they can fire.

        Returns the update's statistics dict (also kept as
        :attr:`last_stats`).  Already-present facts are ignored.
        """
        atoms = _coerce_atoms(atoms)
        self._resume_pending()
        started = self._begin(_op)
        new = [a for a in atoms if a not in self._edb]
        self._edb.update(new)
        for fact in new:
            if not fact.is_ground():
                raise GroundingError(f"database facts must be ground, got {fact}")
            head_id = self._index.atom_id(fact)
            fact_rule = self._fact_rule_id(head_id) if head_id is not None else None
            if fact_rule is not None:
                # the fact rule is already stored (a re-add, or an atom the
                # grounder saw before): flip it active, no regrounding needed
                self._enable_rule(fact_rule, self._staged_seeds)
            else:
                self._pending_ground.append(fact)
        self._complete_update()
        if new:
            self._stale = True
        return self._finish(_op, started, facts_added=len(new))

    def retract_facts(
        self, atoms: Union[Iterable[Atom], Database, str, Atom]
    ) -> dict:
        """Retract facts by DRed overdeletion + rederivation (counting fast path).

        Facts not currently in the EDB are ignored.  Returns the update's
        statistics dict.
        """
        atoms = _coerce_atoms(atoms)
        self._resume_pending()
        started = self._begin("retract")
        gone = [a for a in atoms if a in self._edb]
        self._edb.difference_update(gone)
        # the recursion test below needs a current condensation; refreshing
        # eagerly is safe — the update is accumulated, not lost
        self._wfs.refresh_structure()

        index = self._index
        overdeleted: list[int] = []
        stack: list[int] = []
        for fact in gone:
            head_id = index.atom_id(fact)
            if head_id is None:  # pragma: no cover - defensive
                continue
            fact_rule = self._fact_rule_id(head_id)
            if fact_rule is not None:
                self._disable_rule(fact_rule)
            self._maybe_overdelete(head_id, stack, overdeleted)
        ingested = len(self._unsat)
        while stack:
            atom_id = stack.pop()
            for rule_id in index.watchers_pos_id(atom_id):
                if rule_id >= ingested:  # pragma: no cover - defensive
                    continue
                self._unsat[rule_id] += 1
                if self._enabled[rule_id]:
                    self._disable_rule(rule_id)
                    self._maybe_overdelete(index.head_id(rule_id), stack, overdeleted)

        # rederive: overdeleted atoms that kept an untouched active rule are
        # still derivable; re-entering them closes the rest through the
        # activation closure (re-enabled rules push their heads back in)
        support = self._support
        seeds: list[int] = []
        for atom_id in overdeleted:
            if support.get(atom_id, 0) > 0 and atom_id not in self._active_ids:
                self._join(atom_id, seeds)
        self._staged_seeds.extend(seeds)
        self._stat["overdeleted"] = self._stat.get("overdeleted", 0) + len(overdeleted)
        self._stat["rederived"] = self._stat.get("rederived", 0) + len(seeds)
        self._pending_drops.extend(overdeleted)
        self._complete_update()
        if gone:
            self._stale = True
        return self._finish("retract", started, facts_retracted=len(gone))

    def _maybe_overdelete(
        self, atom_id: int, stack: list[int], overdeleted: list[int]
    ) -> None:
        if atom_id not in self._active_ids:
            return
        if self._support.get(atom_id, 0) > 0:
            if not self._is_recursive(atom_id):
                # counting fast path (Gupta–Mumick): acyclic support cannot
                # be circular, so a surviving active rule proves the atom
                # stays derivable — no overdeletion, no rederivation.  (If a
                # later pop disables that rule too, support hits zero and
                # this atom is revisited through the rule's head.)
                self._stat["counting_kept"] = self._stat.get("counting_kept", 0) + 1
                return
        self._active_ids.discard(atom_id)
        stack.append(atom_id)
        overdeleted.append(atom_id)

    def _is_recursive(self, atom_id: int) -> bool:
        """Can *atom_id*'s derivations depend on itself (counting unsound)?"""
        condensation = self._wfs.condensation
        component_id = condensation.component_of_atom(atom_id)
        if len(condensation.members(component_id)) > 1:
            return True
        ingested = len(self._unsat)
        for rule_id in self._index.rule_ids_for_head_id(atom_id):
            if rule_id < ingested and atom_id in self._index.pos_ids(rule_id):
                return True
        return False

    # -- queries ----------------------------------------------------------------

    def _refresh(self, started: float) -> None:
        """Resume a staged update, re-solve what it touched, record the stats.

        A query that finds nothing stale is a cache hit in
        :attr:`last_query_stats`.
        """
        self._resume_pending()
        cache_hit = not self._stale
        if not cache_hit:
            self._wfs.refresh()
            self._stale = False
            self._model_cache = None
        self.last_query_stats = {
            "mode": "materialized",
            "backend": self.backend,
            "cache_hit": cache_hit,
            "rounds": 0 if cache_hit else self._wfs.iterations,
            "seconds": perf_counter() - started,
        }

    def model(self) -> WellFoundedModel:
        """The maintained well-founded model of (rules, current EDB).

        Bit-identical to :meth:`scratch_model` at every quiescent point (the
        differential suites pin this); only the components the last updates
        touched are re-solved.  The result is an immutable snapshot: later
        updates never alter it.
        """
        started = perf_counter()
        self._refresh(started)
        if self._model_cache is None:
            universe = self._universe_frozenset()
            interpretation = Interpretation(
                self._wfs.copy_true_atoms(),
                universe.intersection(self._wfs.unfounded_atoms()),
            )
            self._model_cache = WellFoundedModel(
                interpretation, universe, iterations=self._wfs.iterations
            )
            self.last_query_stats.update(
                cache_hit=False,
                rounds=self._wfs.iterations,
                seconds=perf_counter() - started,
            )
        return self._model_cache

    def _universe_frozenset(self) -> frozenset[Atom]:
        if self._universe_frozen is None:
            self._universe_frozen = frozenset(self._universe)
        return self._universe_frozen

    def scratch_model(self) -> WellFoundedModel:
        """The from-scratch differential oracle: reground + solve everything.

        Builds the relevant grounding of (rules, current EDB) with the same
        backend and solves it cold.  The maintained :meth:`model` must equal
        this bit-for-bit; it is also what the benchmark charges re-derivation
        against.
        """
        ground = relevant_grounding(
            itertools.chain(
                self._rules, (NormalRule(atom) for atom in self._edb)
            ),
            max_atoms=self.max_atoms,
            backend=self.backend,
        )
        return well_founded_model(ground)

    def holds(
        self, query: Union[NormalBCQ, ConjunctiveQuery, Literal, Atom, str]
    ) -> bool:
        """Does the query hold in the maintained well-founded model?"""
        if isinstance(query, str):
            query = parse_query(query)
        self._refresh(perf_counter())
        if isinstance(query, Atom):
            return self._live.is_true(query)
        if isinstance(query, Literal):
            return self._live.holds(query)
        return query_holds(query, self._live)

    def answer(
        self,
        query: Union[NormalBCQ, ConjunctiveQuery, str],
        *,
        constants_only: bool = True,
    ) -> set[tuple]:
        """All answers to a conjunctive query over the maintained model."""
        if isinstance(query, str):
            query = parse_query(query)
        self._refresh(perf_counter())
        answers = evaluate_query(as_conjunctive_query(query), self._live)
        if constants_only:
            answers = {
                tup
                for tup in answers
                if all(isinstance(term, Constant) for term in tup)
            }
        return answers
