"""Unit tests for the incremental fixpoint layer (PR 5 tentpole).

Three layers are covered, each pinned against its from-scratch oracle:

* :class:`repro.lp.fixpoint.IncrementalCondensation` against
  :meth:`RuleIndex.dependency_components_ids` — partition equality plus
  validity of the maintained topological order;
* :class:`repro.lp.wfs.IncrementalWFS` /
  :func:`repro.lp.wfs.well_founded_model_incremental` against
  :func:`repro.lp.wfs.well_founded_model` across monotone program growth;
* :class:`repro.core.engine.WellFoundedEngine(incremental=...)` — the two
  modes must produce identical observables on the paper's programs and
  across budget resumes (the random-program space is covered by
  :mod:`test_incremental_properties`).

The component solver both paths share, ``_solve_component``, is also pinned
to treat its external inputs as read-only, the one-atom solve of the
incremental path, ``_solve_atom``, to agree with it, and both to ignore the
values their component's members hold when they run.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generators import (
    paper_example_program,
    win_move_datalog_pm,
    win_move_game,
)
from repro.cli import main
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.rules import NormalRule
from repro.lp.fixpoint import IncrementalCondensation, RuleIndex
from repro.lp.grounding import GroundProgram, SemiNaiveGrounder, relevant_grounding
from repro.lp.wfs import (
    IncrementalWFS,
    _solve_atom,
    _solve_component,
    well_founded_model,
    well_founded_model_incremental,
)

from strategies import ground_programs


def atom(name: str, *args: str) -> Atom:
    from repro.lang.terms import Constant

    return Atom(name, tuple(Constant(a) for a in args))


def assert_same_model(incremental, scratch):
    assert incremental.true_atoms() == scratch.true_atoms()
    assert incremental.false_atoms() == scratch.false_atoms()
    assert incremental.undefined_atoms() == scratch.undefined_atoms()
    assert incremental.universe() == scratch.universe()


def assert_condensation_matches(condensation: IncrementalCondensation, program):
    """Partition equality with the from-scratch Tarjan plus order validity."""
    index = program.index()
    incremental = {frozenset(c) for c in condensation.components_ids()}
    reference = {frozenset(c) for c in index.dependency_components_ids()}
    assert incremental == reference
    # dependencies-first: for every edge head -> body, the body's component
    # must not come after the head's (same component, or strictly earlier)
    position = {
        cid: offset for offset, cid in enumerate(condensation.order())
    }
    for rule_id in range(len(index)):
        head_comp = condensation.component_of_atom(index.head_id(rule_id))
        for atom_id in (*index.pos_ids(rule_id), *index.neg_ids(rule_id)):
            body_comp = condensation.component_of_atom(atom_id)
            assert position[body_comp] <= position[head_comp]


class TestIncrementalCondensation:
    def test_grows_with_rules_and_matches_full_tarjan(self):
        program = GroundProgram()
        condensation = IncrementalCondensation(program.index())
        rules = [
            NormalRule(atom("a"), (atom("b"),)),
            NormalRule(atom("b"), (atom("c"),)),
            NormalRule(atom("c"), (atom("a"),)),  # closes the a-b-c cycle
            NormalRule(atom("d"), (atom("a"),), (atom("e"),)),
            NormalRule(atom("e"), (), (atom("d"),)),
        ]
        for rule in rules:
            program.add(rule)
            update = condensation.refresh()
            assert_condensation_matches(condensation, program)
            assert update.dirty  # every step adds a rule, so something is dirty

    def test_noop_refresh_reports_nothing_dirty(self):
        program = GroundProgram([NormalRule(atom("a"), (atom("b"),))])
        condensation = IncrementalCondensation(program.index())
        condensation.refresh()
        update = condensation.refresh()
        assert not update.dirty and not update.removed
        assert len(update.new_rules) == 0

    def test_merge_reports_removed_components(self):
        program = GroundProgram([NormalRule(atom("a"), (atom("b"),))])
        condensation = IncrementalCondensation(program.index())
        condensation.refresh()
        before = set(condensation.order())
        program.add(NormalRule(atom("b"), (atom("a"),)))  # merges {a} and {b}
        update = condensation.refresh()
        assert update.removed  # at least one of the singletons vanished
        assert update.removed <= before
        assert_condensation_matches(condensation, program)
        merged = condensation.component_of_atom(program.index().atom_id(atom("a")))
        assert set(condensation.members(merged)) == {
            program.index().atom_id(atom("a")),
            program.index().atom_id(atom("b")),
        }

    def test_order_consistent_growth_skips_tarjan(self):
        """The pure deepening pattern — new heads over old bodies — is O(delta)."""
        program = GroundProgram([NormalRule(atom("p0"))])
        condensation = IncrementalCondensation(program.index())
        condensation.refresh()
        reruns_after_seed = condensation.tarjan_reruns
        for layer in range(1, 20):
            program.add(
                NormalRule(atom(f"p{layer}"), (atom(f"p{layer - 1}"),))
            )
            condensation.refresh()
            assert_condensation_matches(condensation, program)
        # a new head depending on an already ordered body never violates the
        # maintained topological order, so no suffix Tarjan ever runs
        assert condensation.tarjan_reruns == reruns_after_seed

    def test_win_move_chunked_growth(self):
        rng = random.Random(7)
        rules = list(relevant_grounding(win_move_game(25, seed=7)))
        rng.shuffle(rules)
        program = GroundProgram()
        condensation = IncrementalCondensation(program.index())
        position = 0
        while position < len(rules):
            step = rng.randint(1, 12)
            program.update(rules[position : position + step])
            position += step
            condensation.refresh()
            assert_condensation_matches(condensation, program)


class TestIncrementalWFS:
    def test_single_shot_equals_from_scratch(self):
        program = GroundProgram(relevant_grounding(win_move_game(20, seed=1)))
        model, state = well_founded_model_incremental(program)
        assert_same_model(model, well_founded_model(GroundProgram(program.rules())))
        assert state.program is program

    def test_chunked_growth_equals_from_scratch_each_step(self):
        for seed in (0, 3, 11):
            rng = random.Random(seed)
            rules = list(relevant_grounding(win_move_game(24, seed=seed)))
            rng.shuffle(rules)
            program = GroundProgram()
            state = None
            position = 0
            while position < len(rules):
                step = rng.randint(1, max(1, len(rules) // 5))
                program.update(rules[position : position + step])
                position += step
                model, state = well_founded_model_incremental(program, state)
                assert_same_model(
                    model, well_founded_model(GroundProgram(program.rules()))
                )

    def test_layered_growth_reuses_lower_layers(self):
        """Chase-shaped growth: each chunk's solutions survive the next chunk."""
        program = GroundProgram()
        solver = IncrementalWFS(program)
        previous_components = 0
        for layer in range(8):
            base = atom(f"q{layer}")
            program.add(NormalRule(base, (), (atom(f"r{layer}"),)))
            program.add(NormalRule(atom(f"r{layer}"), (base,)))
            if layer:
                program.add(NormalRule(atom(f"q{layer}"), (atom(f"q{layer - 1}"),)))
            model = solver.model()
            assert_same_model(model, well_founded_model(GroundProgram(program.rules())))
            if layer:
                # every component solved for the earlier layers is reused
                assert solver.last_reused >= previous_components
            previous_components = len(solver.condensation)

    def test_state_bound_to_other_program_starts_cold(self):
        first = GroundProgram([NormalRule(atom("a"))])
        _, state = well_founded_model_incremental(first)
        second = GroundProgram([NormalRule(atom("b"))])
        model, new_state = well_founded_model_incremental(second, state)
        assert new_state is not state
        assert model.is_true(atom("b")) and not model.is_true(atom("a"))


def wide_ground_program(chains: int, length: int) -> GroundProgram:
    """Independent chains, each feeding a negative 2-loop.

    Chain ``i`` derives ``c(i,0) .. c(i,length)`` from a base fact and feeds
    ``p_i`` vs ``q_i``, and ``dead_i`` is never derived, so the model has
    true, false *and* undefined atoms in every chain.
    """
    rules: list[NormalRule] = []
    for i in range(chains):
        rules.append(NormalRule(atom("c", str(i), "0")))
        for j in range(1, length + 1):
            rules.append(
                NormalRule(atom("c", str(i), str(j)), (atom("c", str(i), str(j - 1)),))
            )
        rules.append(
            NormalRule(atom("p", str(i)), (atom("c", str(i), str(length)),), (atom("q", str(i)),))
        )
        rules.append(NormalRule(atom("q", str(i)), (), (atom("p", str(i)),)))
        rules.append(NormalRule(atom("dead", str(i)), (atom("never", str(i)),)))
    return GroundProgram(rules)


def model_signature(model):
    return (
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        model.iterations,
    )


class TestSolveComponentReadOnly:
    """``_solve_component`` never mutates its external true/false inputs.

    :class:`IncrementalWFS` keeps its atom mirrors in step only from the
    deltas the solve returns, so a solve that wrote into the shared id sets
    would desynchronise them.  Passing frozensets proves the contract.
    """

    def test_frozenset_externals_are_never_mutated(self, monkeypatch):
        import repro.lp.wfs as wfs_module

        original = wfs_module._solve_component
        calls = []

        def frozen(index, component, rule_ids, true_ids, false_ids):
            calls.append(len(component))
            return original(
                index, component, rule_ids, frozenset(true_ids), frozenset(false_ids)
            )

        monkeypatch.setattr(wfs_module, "_solve_component", frozen)
        program = wide_ground_program(chains=4, length=3)
        frozen_model = well_founded_model(program)
        assert calls  # the wrapped solver actually ran
        monkeypatch.setattr(wfs_module, "_solve_component", original)
        assert model_signature(frozen_model) == model_signature(well_founded_model(program))

    def test_frozensets_survive_the_incremental_path(self, monkeypatch):
        import repro.lp.wfs as wfs_module

        original = wfs_module._solve_component

        def frozen(index, component, rule_ids, true_ids, false_ids):
            return original(
                index, component, rule_ids, frozenset(true_ids), frozenset(false_ids)
            )

        monkeypatch.setattr(wfs_module, "_solve_component", frozen)
        program = GroundProgram()
        state = IncrementalWFS(program)
        for i in range(6):
            program.add(NormalRule(atom("a", str(i)), (), (atom("b", str(i)),)))
            program.add(NormalRule(atom("b", str(i)), (), (atom("a", str(i)),)))
            incremental = state.model()
            scratch = well_founded_model(program)
            # iterations are per-refresh on the incremental path, so compare
            # the three truth sets (the repo-wide incremental convention)
            assert incremental.true_atoms() == scratch.true_atoms()
            assert incremental.false_atoms() == scratch.false_atoms()
            assert incremental.undefined_atoms() == scratch.undefined_atoms()


#: The external atoms of the one-atom components below, and their values.
EXTERNALS = [atom("x", str(i)) for i in range(5)]
VALUES = ("true", "false", "undefined")


@st.composite
def one_atom_components(draw):
    """``(index, head id, active rule ids, true ids, false ids)`` for one atom ``h``.

    Every rule heads ``h`` and draws its bodies, repeats allowed, from the
    external atoms, which are true, false or undefined; some rules are then
    disabled.
    """
    index = RuleIndex()
    head = index.intern(atom("h"))
    values = {index.intern(x): draw(st.sampled_from(VALUES)) for x in EXTERNALS}
    bodies = st.lists(st.sampled_from(EXTERNALS), max_size=3).map(tuple)
    for pos, neg in draw(st.lists(st.tuples(bodies, bodies), max_size=4)):
        index.add_rule(NormalRule(atom("h"), pos, neg))
    for rule_id in draw(st.sets(st.integers(0, 3))):
        if rule_id < len(index):
            index.disable_rule(rule_id)
    true_ids = frozenset(a for a, value in values.items() if value == "true")
    false_ids = frozenset(a for a, value in values.items() if value == "false")
    return index, head, index.active_rule_ids_for_head_id(head), true_ids, false_ids


@given(component=one_atom_components())
@settings(max_examples=300, deadline=None)
def test_one_atom_solve_equals_the_closures(component):
    index, head, rule_ids, true_ids, false_ids = component
    assert _solve_atom(*component) == _solve_component(
        index, {head}, rule_ids, true_ids, false_ids
    )


def one_atom_index(*rules: NormalRule):
    index = RuleIndex(rules)
    for x in EXTERNALS:
        index.intern(x)
    return index, index.intern(atom("h"))


@pytest.mark.parametrize(
    "rules, disabled, expected",
    [
        # no rules, and a rule switched off: no support, false
        ((), (), "false"),
        ((NormalRule(atom("h")),), (0,), "false"),
        # a body atom repeated is read once: x0 true, x2 undefined
        ((NormalRule(atom("h"), (EXTERNALS[0], EXTERNALS[0])),), (), "true"),
        ((NormalRule(atom("h"), (EXTERNALS[2],), (EXTERNALS[1], EXTERNALS[1])),), (), "undefined"),
        # the best rule wins after a disabled true one
        (
            (
                NormalRule(atom("h")),
                NormalRule(atom("h"), (), (EXTERNALS[0],)),
                NormalRule(atom("h"), (EXTERNALS[2],)),
            ),
            (0,),
            "undefined",
        ),
    ],
)
def test_one_atom_solve_pins(rules, disabled, expected):
    index, head = one_atom_index(*rules)
    for rule_id in disabled:
        index.disable_rule(rule_id)
    true_ids = frozenset({index.atom_id(EXTERNALS[0])})
    false_ids = frozenset({index.atom_id(EXTERNALS[1])})
    rule_ids = index.active_rule_ids_for_head_id(head)
    local_true, local_false, rounds = _solve_atom(index, head, rule_ids, true_ids, false_ids)
    value = "true" if local_true else "false" if local_false else "undefined"
    assert (value, rounds) == (expected, 1)
    assert _solve_component(index, {head}, rule_ids, true_ids, false_ids) == (
        local_true,
        local_false,
        rounds,
    )


@given(program=ground_programs())
@settings(max_examples=150, deadline=None)
def test_solvers_never_read_a_member_value(program):
    """The ripple solves a component while its members hold their previous values.

    So neither solver may read them: with the members' model values, all of
    them true or all of them false in the id sets, every component solves
    as it does with no member value there at all.
    """
    index = program.index()
    model = well_founded_model(program)
    true_ids = frozenset(index.atom_id(a) for a in model.true_atoms())
    false_ids = frozenset(index.atom_id(a) for a in model.false_atoms())
    for component in index.dependency_components_ids():
        members = set(component)
        rule_ids = [r for a in component for r in index.active_rule_ids_for_head_id(a)]
        outside_true, outside_false = true_ids - members, false_ids - members
        stale = [
            (true_ids, false_ids),
            (outside_true | members, outside_false),
            (outside_true, outside_false | members),
        ]
        expected = _solve_component(index, members, rule_ids, outside_true, outside_false)
        for values in stale:
            assert _solve_component(index, members, rule_ids, *values) == expected
        if len(component) == 1:
            solved = _solve_atom(index, component[0], rule_ids, outside_true, outside_false)
            assert solved in (None, expected)
            for values in stale:
                assert _solve_atom(index, component[0], rule_ids, *values) == solved


@pytest.mark.parametrize(
    "rule, value",
    [
        (NormalRule(atom("a"), (atom("a"),)), "false"),
        (NormalRule(atom("a"), (), (atom("a"),)), "undefined"),
    ],
)
def test_self_mentioning_atoms_take_the_closures(rule, value, monkeypatch):
    import repro.lp.wfs as wfs_module

    index = RuleIndex([rule])
    assert _solve_atom(index, index.atom_id(atom("a")), [0], frozenset(), frozenset()) is None
    solved = []
    original = wfs_module._solve_component

    def recording(index, component, rule_ids, true_ids, false_ids):
        solved.append(set(component))
        return original(index, component, rule_ids, true_ids, false_ids)

    monkeypatch.setattr(wfs_module, "_solve_component", recording)
    program = GroundProgram([rule])
    model = IncrementalWFS(program).model()
    assert solved == [{program.index().atom_id(atom("a"))}]
    assert getattr(model, f"is_{value}")(atom("a"))
    assert model == well_founded_model(program)


class FullScanRipple:
    """Reference ripple: test every component of the order, dependencies first.

    The resolve rule is the solver's (no stored solution, dirty, or a changed
    external input); only the walk differs — this one visits the whole
    order.  It shares the program's index (and its rule activity) with the
    solver under test and reports ``(resolved, reused)``.
    """

    def __init__(self, program: GroundProgram):
        self.index = program.index()
        self.condensation = IncrementalCondensation(self.index)
        self.solutions: dict = {}
        self.inputs: dict = {}
        self.true_ids: set = set()
        self.false_ids: set = set()
        self.dirty_atom_ids: set = set()

    def refresh(self):
        index, condensation = self.index, self.condensation
        update = condensation.refresh()
        removed = set(update.removed)
        dirty = set(update.dirty) - removed
        dirty |= {condensation.component_of_atom(a) for a in self.dirty_atom_ids}
        self.dirty_atom_ids = set()
        changed: set = set()
        for cid in removed:
            solution = self.solutions.pop(cid, None)
            if solution is not None:
                self.true_ids -= solution[0]
                self.false_ids -= solution[1]
                changed |= solution[0] | solution[1]
            self.inputs.pop(cid, None)
        resolved = 0
        for cid in condensation.order():
            stored = self.solutions.get(cid)
            resolve = stored is None or cid in dirty
            if not resolve and changed:
                inputs = self.inputs.get(cid)
                resolve = inputs is not None and not changed.isdisjoint(inputs)
            if not resolve:
                continue
            resolved += 1
            component = set(condensation.members(cid))
            rule_ids = [
                r for a in component for r in index.active_rule_ids_for_head_id(a)
            ]
            if stored is not None:
                self.true_ids -= stored[0]
                self.false_ids -= stored[1]
            local_true, local_false, _ = _solve_component(
                index, component, rule_ids, self.true_ids, self.false_ids
            )
            self.true_ids |= local_true
            self.false_ids |= local_false
            solution = (frozenset(local_true), frozenset(local_false))
            if stored is None:
                changed |= solution[0] | solution[1]
            else:
                changed |= (stored[0] ^ solution[0]) | (stored[1] ^ solution[1])
            self.solutions[cid] = solution
            self.inputs[cid] = frozenset(
                a
                for r in rule_ids
                for a in (*index.pos_ids(r), *index.neg_ids(r))
                if a not in component
            )
        return resolved, len(condensation) - resolved


@st.composite
def growth_and_flip_schedules(draw):
    """A random ground program split into chunks, with rule flips in between.

    Each step appends the next chunk (possibly empty) and then flips the
    activity of a few already-stored rules, by rule id modulo the count.
    """
    rules = list(draw(ground_programs()).rules())
    cuts = sorted(draw(st.lists(st.integers(0, len(rules)), max_size=3)))
    steps = []
    start = 0
    for cut in [*cuts, len(rules)]:
        flips = draw(st.lists(st.integers(0, 50), max_size=3))
        steps.append((rules[start:cut], flips))
        start = cut
    steps.extend((([], [flip]) for flip in draw(st.lists(st.integers(0, 50), max_size=4))))
    return steps


@given(schedule=growth_and_flip_schedules())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_heap_ripple_matches_full_scan_reference(schedule):
    program = GroundProgram()
    index = program.index()
    solver = IncrementalWFS(program)
    reference = FullScanRipple(program)
    for chunk, flips in schedule:
        program.update(chunk)
        for flip in flips:
            if not len(index):
                break
            rule_id = flip % len(index)
            if index.is_enabled(rule_id):
                index.disable_rule(rule_id)
            else:
                index.enable_rule(rule_id)
            solver.invalidate_atom_ids([index.head_id(rule_id)])
            reference.dirty_atom_ids.add(index.head_id(rule_id))
        model = solver.model()
        assert (solver.last_resolved, solver.last_reused) == reference.refresh()
        assert solver.last_resolved <= solver.last_visited <= len(solver.condensation)
        active = GroundProgram(
            index.rule(r) for r in range(len(index)) if index.is_enabled(r)
        )
        scratch = well_founded_model(active)
        for atom_ in program.atoms():
            assert model.is_true(atom_) == scratch.is_true(atom_)
            assert model.is_false(atom_) == scratch.is_false(atom_)


def test_a_merge_counts_its_old_values_as_changed():
    """A merged component's previous values count as changed, even where they return.

    ``a`` is true and ``c :- not a`` reads it; the next step merges ``a``
    with ``b``.  ``a`` stays true, yet ``c`` re-solves, as it does when the
    merged-away solution is retracted before the ripple (the reference).
    """
    program = GroundProgram()
    solver, reference = IncrementalWFS(program), FullScanRipple(program)
    for chunk in (
        [NormalRule(atom("c"), (), (atom("a"),)), NormalRule(atom("a"))],
        [NormalRule(atom("a"), (), (atom("b"),)), NormalRule(atom("b"), (), (atom("a"),))],
    ):
        program.update(chunk)
        model = solver.model()
        assert (solver.last_resolved, solver.last_reused) == reference.refresh()
    assert solver.last_resolved == 2  # {a, b} and c
    assert model.is_true(atom("a")) and model.is_false(atom("c"))


def fact_chain_program() -> GroundProgram:
    """Facts ``e(n)``, ``p(n) :- e(n)`` and ``q(n) :- not p(n)``: 15 000 one-atom components."""
    rules = []
    for i in range(5_000):
        node = atom("e", f"n{i}")
        rules.append(NormalRule(node))
        rules.append(NormalRule(atom("p", f"n{i}"), (node,)))
        rules.append(NormalRule(atom("q", f"n{i}"), (), (atom("p", f"n{i}"),)))
    return GroundProgram(rules)


def test_toggling_one_fact_visits_only_its_ripple():
    """O(delta): one flipped fact in a 15k-component program pops a handful."""
    program = fact_chain_program()
    solver = IncrementalWFS(program)
    solver.refresh()
    assert len(solver.condensation) >= 10_000
    assert solver.last_visited == len(solver.condensation)  # the cold solve
    index = program.index()
    fact_rule = index.rule_ids_for_head(atom("e", "n7"))[0]
    for flip in (index.disable_rule, index.enable_rule):
        flip(fact_rule)
        solver.invalidate_atom_ids([index.head_id(fact_rule)])
        solver.refresh()
        # e(n7) -> p(n7) -> q(n7): three components, each re-solved
        assert solver.last_visited == solver.last_resolved == 3
        assert solver.last_reused == len(solver.condensation) - 3
    assert solver.model().is_true(atom("p", "n7"))


def test_cold_refresh_keeps_no_per_component_solutions():
    """The solved values live in the id sets and their mirrors, nowhere else.

    Storing a solution and an input set per component kept 923 bytes per
    component of this program; the id sets and the mirrors keep about 140.  The condensation is built first, so only
    the solver's own state is measured.
    """
    solver = IncrementalWFS(fact_chain_program())
    solver.refresh_structure()
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver.refresh()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert solver.last_resolved == len(solver.condensation) == 15_000
    assert kept / len(solver.condensation) < 400


def test_incremental_snapshots_survive_later_refreshes():
    """model() snapshots are immutable and remain the scratch model of their time."""
    rng = random.Random(5)
    rules = list(relevant_grounding(win_move_game(20, seed=5)))
    rng.shuffle(rules)
    program = GroundProgram()
    solver = IncrementalWFS(program)
    snapshots = []
    for start in range(0, len(rules), 7):
        program.update(rules[start : start + 7])
        model = solver.model()
        sets = (model.true_atoms(), model.false_atoms(), model.undefined_atoms())
        snapshots.append((model, sets, well_founded_model(GroundProgram(program.rules()))))
        solver.refresh()
    for model, sets, scratch in snapshots:
        assert (model.true_atoms(), model.false_atoms(), model.undefined_atoms()) == sets
        assert_same_model(model, scratch)


class TestGroundingDeltas:
    def test_rules_since_returns_the_appended_suffix(self):
        program = GroundProgram([NormalRule(atom("a"))])
        mark = len(program)
        program.add(NormalRule(atom("b"), (atom("a"),)))
        program.add(NormalRule(atom("b"), (atom("a"),)))  # duplicate: ignored
        assert program.rules_since(mark) == (NormalRule(atom("b"), (atom("a"),)),)
        assert program.rules_since(0) == program.rules()

    def test_semi_naive_grounder_exposes_per_run_delta(self):
        program = win_move_game(10, seed=2)
        grounder = SemiNaiveGrounder(program)
        facts = len(grounder.ground)
        grounder.run(max_rounds=1, raise_on_budget=False)
        first = grounder.delta_rules()
        assert len(grounder.ground) == facts + len(first)
        grounder.run()
        second = grounder.delta_rules()
        assert grounder.saturated
        # the two deltas compose to exactly the post-fact suffix, disjointly
        assert grounder.ground.rules_since(facts) == first + second


class TestEngineIncremental:
    def observables(self, engine):
        # the chase plan's model: the deepening schedule is where the
        # incremental solver works, whichever plan model() takes
        try:
            model = engine._chase_model()
        except GroundingError:
            return "node-budget-exceeded"
        return (
            model.true_atoms(),
            model.false_atoms(),
            model.undefined_atoms(),
            model.depth,
            model.converged,
        )

    def paired_engines(self, program, database, **options):
        fast = WellFoundedEngine(program, database, incremental=True, **options)
        slow = WellFoundedEngine(program, database, incremental=False, **options)
        return fast, slow

    def test_paper_example_identical(self):
        program, database = paper_example_program(2)
        fast, slow = self.paired_engines(program, database)
        assert self.observables(fast) == self.observables(slow)
        assert fast.model().converged

    def test_win_move_identical(self):
        program, database = win_move_datalog_pm(40, seed=5)
        fast, slow = self.paired_engines(program, database)
        assert self.observables(fast) == self.observables(slow)

    def test_incremental_engine_reuses_components_across_depths(self):
        program, database = paper_example_program(4)
        engine = WellFoundedEngine(program, database, incremental=True)
        model = engine.model()
        assert model.iterations > 1  # the schedule actually deepened
        solver = engine._wfs_state
        assert solver is not None
        assert solver.last_reused > 0  # the last depth step reused solutions

    def test_budget_resume_identical_across_modes(self):
        program, database = win_move_datalog_pm(60, seed=0)
        fast, slow = self.paired_engines(program, database, max_nodes=10)
        assert self.observables(fast) == "node-budget-exceeded"
        assert self.observables(slow) == "node-budget-exceeded"
        fast.max_nodes = 100_000
        slow.max_nodes = 100_000
        assert self.observables(fast) == self.observables(slow)
        assert self.observables(fast) != "node-budget-exceeded"

    def test_query_stats_report_the_mode(self):
        program, database = paper_example_program()
        engine = WellFoundedEngine(program, database)
        engine.holds("? article(pods13)")
        assert engine.last_query_stats["incremental"] is True
        engine = WellFoundedEngine(program, database, incremental=False)
        engine.holds("? article(pods13)")
        assert engine.last_query_stats["incremental"] is False


PROGRAM_TEXT = """
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
scientist(john).
conferencePaper(pods13).
"""


class TestCLIIncrementalFlag:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "literature.dlp"
        path.write_text(PROGRAM_TEXT)
        return str(path)

    def test_no_incremental_answers_identically(self, program_file, capsys):
        assert main([program_file, "--query", "? article(pods13)"]) == 0
        default_output = capsys.readouterr().out
        assert (
            main([program_file, "--no-incremental", "--query", "? article(pods13)"])
            == 0
        )
        assert capsys.readouterr().out == default_output

    def test_incremental_is_the_default(self):
        from repro.cli import build_argument_parser

        args = build_argument_parser().parse_args(["prog.dlp"])
        assert args.incremental is True
        args = build_argument_parser().parse_args(["prog.dlp", "--no-incremental"])
        assert args.incremental is False
