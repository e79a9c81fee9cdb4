"""Property tests: agenda saturation changes nothing observable, ever.

Random guarded Datalog± workloads × random agenda orderings × random
iterative-deepening schedules must produce exactly the model
and answers of the retained breadth-first scan (``saturation="scan"``) — the
reference the differential suite (:mod:`test_chase_agenda`) pins on the
paper's worked examples, stressed here across the whole random program space.
The chase forests are compared through the engine-level observables (labels,
edge rules, per-atom depths and canonical levels, three-valued model,
convergence flags) plus ``holds()``/``answer()`` results, including the
magic-sets rewrite path and its fallback to the engine's own model.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_guarded_program
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, NormalBCQ
from repro.lang.terms import Constant, Variable

from strategies import agenda_orderings

X = Variable("X")

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def guarded_workloads(draw):
    """A random guarded Datalog± workload plus a query against it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_predicates = draw(st.integers(min_value=1, max_value=3))
    num_rules = draw(st.integers(min_value=2, max_value=5))
    negation_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    existential_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    program, database = random_guarded_program(
        num_predicates,
        2,
        num_rules,
        negation_prob=negation_prob,
        existential_prob=existential_prob,
        num_constants=3,
        num_facts=8,
        seed=seed,
    )
    predicate = draw(st.sampled_from(sorted({f"q{i}" for i in range(num_predicates)})))
    constant = Constant(f"c{draw(st.integers(min_value=0, max_value=2))}")
    query = draw(
        st.sampled_from(
            [
                NormalBCQ((Atom(predicate, (constant,)),)),
                NormalBCQ((Atom(predicate, (X,)),)),
                NormalBCQ((Atom(predicate, (X,)),), (Atom(predicate, (constant,)),)),
            ]
        )
    )
    return program, database, query


def observable_state(engine: WellFoundedEngine):
    """Everything a caller can see of an engine's chase segment and model.

    The three-valued model is the one ``model()`` answers from, whichever
    plan it took; the forest, the chase plan's own model and its
    ``(depth, converged, iterations)`` come from the chase plan, which the
    scan twin runs for ``model()`` itself and the agenda engine runs when the
    forest is requested.  A chase that exceeds the node budget is itself an
    observable outcome, reified as a sentinel so every configuration must
    agree on it too.
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
        {atom: forest.depth_of_atom(atom) for atom in labels},
        {atom: forest.level_of_atom(atom) for atom in labels},
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        chase.true_atoms(),
        chase.false_atoms(),
        chase.undefined_atoms(),
        (chase.depth, chase.converged, chase.iterations),
    )


def _holds(engine, query, *, rewrite=False):
    try:
        return engine.holds(query, rewrite=rewrite)
    except GroundingError:
        return "node-budget-exceeded"


def _answer(engine, query):
    try:
        return engine.answer(query)
    except GroundingError:
        return "node-budget-exceeded"


@given(workload=guarded_workloads(), ordering=agenda_orderings())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_agenda_model_equals_scan_model(workload, ordering):
    """model() observables are ordering-independent."""
    program, database, _ = workload
    options = dict(max_depth=13, max_nodes=2_000)
    scan = WellFoundedEngine(program, database, saturation="scan", **options)
    expected = observable_state(scan)
    agenda = WellFoundedEngine(
        program,
        database,
        saturation="agenda",
        agenda_order=ordering(),
        **options,
    )
    assert observable_state(agenda) == expected


@given(workload=guarded_workloads(), ordering=agenda_orderings())
@settings(max_examples=30, **COMMON_SETTINGS)
def test_agenda_holds_and_answer_equal_scan(workload, ordering):
    """holds()/answer() agree across saturation modes, incl. the rewrite path."""
    program, database, query = workload
    options = dict(max_depth=13, max_nodes=2_000)
    scan = WellFoundedEngine(program, database, saturation="scan", **options)
    agenda = WellFoundedEngine(
        program,
        database,
        saturation="agenda",
        agenda_order=ordering(),
        **options,
    )
    for rewrite in (False, True):
        assert _holds(agenda, query, rewrite=rewrite) == _holds(
            scan, query, rewrite=rewrite
        ), (query, rewrite, agenda.last_query_stats)
    if not query.negative:
        cq = ConjunctiveQuery(query.positive, (X,) if X in {
            v for atom in query.positive for v in atom.variables()
        } else ())
        assert _answer(agenda, cq) == _answer(scan, cq)


@given(
    workload=guarded_workloads(),
    ordering=agenda_orderings(),
    initial_depth=st.integers(min_value=1, max_value=4),
    depth_step=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, **COMMON_SETTINGS)
def test_agenda_is_schedule_independent(workload, ordering, initial_depth, depth_step):
    """Any deepening schedule × ordering agrees with the scan twin."""
    program, database, _ = workload
    options = dict(
        initial_depth=initial_depth,
        depth_step=depth_step,
        max_depth=initial_depth + 3 * depth_step,
        max_nodes=2_000,
    )
    scan = WellFoundedEngine(program, database, saturation="scan", **options)
    agenda = WellFoundedEngine(
        program,
        database,
        saturation="agenda",
        agenda_order=ordering(),
        **options,
    )
    assert observable_state(agenda) == observable_state(scan)


@given(workload=guarded_workloads(), ordering=agenda_orderings())
@settings(max_examples=20, **COMMON_SETTINGS)
def test_budget_failure_retry_never_fakes_convergence(workload, ordering):
    """Whenever model() raises the node budget, a retry raises again (the
    PR 3 property-suite bug), and raising the budget resumes to exactly the
    observables of a fresh engine whose deepening starts at the committed
    chase bound — the schedule the resumed engine genuinely follows.  (The
    shallower views of the interrupted schedule are unrecoverable: the
    forest is already committed deeper, so "fresh from the committed bound"
    is the strongest exactness statement possible — and in the common case
    of a first-step failure it coincides with a fully fresh engine.)"""
    program, database, _ = workload
    tight = WellFoundedEngine(
        program,
        database,
        max_depth=13,
        max_nodes=30,
        agenda_order=ordering(),
    )
    first = observable_state(tight)
    if first != "node-budget-exceeded":
        return  # the workload fits the tight budget; nothing to check
    assert observable_state(tight) == "node-budget-exceeded"  # retry re-raises
    committed = tight._chase.depth_bound
    tight.max_nodes = 2_000
    resumed = observable_state(tight)
    mirror = WellFoundedEngine(
        program,
        database,
        initial_depth=committed,
        max_depth=13,
        max_nodes=2_000,
    )
    assert resumed == observable_state(mirror)
