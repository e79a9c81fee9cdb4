"""Property tests: incremental fixpoint maintenance changes nothing, ever.

Random ground programs grown in random chunks must yield, at every step, the
exact condensation partition (with a valid dependencies-first order) and the
exact well-founded model of the from-scratch path; random guarded Datalog±
workloads × deepening schedules × mid-schedule budget resumes must make the
``incremental=True`` engine indistinguishable from the ``incremental=False``
oracle.  This is the incremental counterpart of
:mod:`test_agenda_properties` — the from-scratch SCC-modular computation is
the retained reference, exactly as ``saturation="scan"`` is for the agenda.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.types import AtomType
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lp.fixpoint import IncrementalCondensation
from repro.lp.grounding import GroundProgram
from repro.lp.wfs import well_founded_model, well_founded_model_incremental

from strategies import ground_programs, guarded_workloads

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def chunked_ground_programs(draw):
    """A random ground program plus a random partition of it into chunks."""
    program = draw(ground_programs())
    rules = list(program.rules())
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(rules)),
                min_size=0,
                max_size=4,
            )
        )
    )
    chunks = []
    start = 0
    for boundary in boundaries + [len(rules)]:
        chunks.append(rules[start:boundary])
        start = boundary
    return chunks


def assert_valid_condensation(condensation: IncrementalCondensation, program):
    index = program.index()
    incremental = {frozenset(c) for c in condensation.components_ids()}
    reference = {frozenset(c) for c in index.dependency_components_ids()}
    assert incremental == reference
    position = {cid: offset for offset, cid in enumerate(condensation.order())}
    for rule_id in range(len(index)):
        head_comp = condensation.component_of_atom(index.head_id(rule_id))
        for atom_id in (*index.pos_ids(rule_id), *index.neg_ids(rule_id)):
            assert position[condensation.component_of_atom(atom_id)] <= position[
                head_comp
            ]


@given(chunks=chunked_ground_programs())
@settings(max_examples=150, **COMMON_SETTINGS)
def test_incremental_condensation_equals_tarjan_at_every_step(chunks):
    program = GroundProgram()
    condensation = IncrementalCondensation(program.index())
    live = set()
    for chunk in chunks:
        program.update(chunk)
        update = condensation.refresh()
        # reported component ids stay consistent: removed ids were live,
        # dirty ids are live now
        assert update.removed <= live
        live = set(condensation.order())
        assert update.dirty <= live
        assert_valid_condensation(condensation, program)


@given(chunks=chunked_ground_programs())
@settings(max_examples=150, **COMMON_SETTINGS)
def test_incremental_wfs_equals_scratch_at_every_step(chunks):
    program = GroundProgram()
    state = None
    for chunk in chunks:
        program.update(chunk)
        model, state = well_founded_model_incremental(program, state)
        scratch = well_founded_model(GroundProgram(program.rules()))
        assert model.true_atoms() == scratch.true_atoms()
        assert model.false_atoms() == scratch.false_atoms()
        assert model.undefined_atoms() == scratch.undefined_atoms()
        assert model.universe() == scratch.universe()


# ---------------------------------------------------------------------------
# Engine level: the deepening schedule is the growth schedule
# ---------------------------------------------------------------------------


def observable_state(engine: WellFoundedEngine):
    """The answering model plus the chase plan's forest and model.

    On a certified-terminating workload ``model()`` takes the finite plan, so
    the deepening schedule (this suite's subject) runs for the forest and is
    compared through the chase plan's own model.
    """
    try:
        model = engine.model()
        forest = model.forest()
        chase = engine._chase_model()
    except GroundingError:
        return "node-budget-exceeded"
    labels = forest.labels()
    return (
        labels,
        frozenset(forest.edge_rules()),
        {atom: forest.level_of_atom(atom) for atom in labels},
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        chase.true_atoms(),
        chase.false_atoms(),
        chase.undefined_atoms(),
        (chase.depth, chase.converged, chase.iterations),
    )


@given(
    workload=guarded_workloads(),
    initial_depth=st.integers(min_value=1, max_value=4),
    depth_step=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, **COMMON_SETTINGS)
def test_incremental_engine_equals_scratch_engine(workload, initial_depth, depth_step):
    """Any deepening schedule agrees with the oracle."""
    program, database = workload
    options = dict(
        initial_depth=initial_depth,
        depth_step=depth_step,
        max_depth=initial_depth + 3 * depth_step,
        max_nodes=2_000,
    )
    scratch = WellFoundedEngine(program, database, incremental=False, **options)
    expected = observable_state(scratch)
    incremental = WellFoundedEngine(program, database, incremental=True, **options)
    assert observable_state(incremental) == expected


@given(workload=guarded_workloads())
@settings(max_examples=25, **COMMON_SETTINGS)
def test_incremental_engine_budget_resume_equals_scratch(workload):
    """Mid-schedule budget exhaustion and resume agree with the oracle.

    The interrupted deepening commits the chase to some bound; the resumed
    incremental run folds the partially grown ground program forward, which
    must land on exactly the observables of the resumed from-scratch run.
    """
    program, database = workload
    options = dict(max_depth=13, max_nodes=30)
    scratch = WellFoundedEngine(program, database, incremental=False, **options)
    first_scratch = observable_state(scratch)
    incremental = WellFoundedEngine(program, database, incremental=True, **options)
    assert observable_state(incremental) == first_scratch
    if first_scratch != "node-budget-exceeded":
        return  # the workload fits the tight budget; nothing left to resume
    # a retry with an unchanged budget re-raises in both modes
    assert observable_state(incremental) == "node-budget-exceeded"
    scratch.max_nodes = 2_000
    incremental.max_nodes = 2_000
    assert observable_state(incremental) == observable_state(scratch)


@given(workload=guarded_workloads(), incremental=st.booleans())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_frontier_type_keys_follow_the_paper_definition(workload, incremental):
    """The convergence test's frontier keys are the paper's types ``(a, S)``.

    Each key must equal the :class:`~repro.chase.types.AtomType` of a
    frontier label over the model's full literal set, computed without the
    engine's per-term literal index.
    """
    program, database = workload
    engine = WellFoundedEngine(
        program, database, incremental=incremental, max_depth=13, max_nodes=2_000
    )
    try:
        model = engine._chase_model()
    except GroundingError:
        return
    literals = model.literals()
    expected = {
        AtomType.of(node.label, literals).key()
        for node in engine._chase.frontier_nodes()
    }
    assert engine._frontier_type_keys(model) == expected
