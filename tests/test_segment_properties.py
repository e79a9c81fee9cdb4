"""Property tests: the chase-segment cache never changes anything observable.

The contract of :mod:`repro.chase.segments` is that caching affects *speed
only*: across random guarded workloads, an engine with the cache on — cold or
warm, with any deepening schedule, classic or through the magic-sets rewrite
path (including its relevance-pruned fallback sub-engines, which carry their
own per-fingerprint stores) — produces the same chase segment (labels, depths,
canonical levels, ground rules) and the same three-valued model and query
answers as an engine with the cache off.

Labels, levels and rules are compared *exactly* rather than up to null
renaming: with a fixed database the Skolemised nulls are deterministic, so
"equal up to renaming" and "equal" coincide — and exact equality is the
stronger check.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_guarded_program
from repro.chase.segments import SegmentStore
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.queries import NormalBCQ
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, FunctionTerm, Variable

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


def chase_signature(engine: WellFoundedEngine):
    """The full observable state of an engine's chase segment and model.

    A chase that exceeds the node budget is itself an observable outcome (the
    saturated segment is too large in *any* construction order), represented
    by a sentinel so cached and uncached runs must agree on it too.  The
    forest and ``(depth, converged, iterations)`` are the chase plan's, which
    a finite-plan model runs when its forest is requested.
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


@given(workload=guarded_workloads())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_cached_chase_equals_uncached_chase(workload):
    """Cold and warm engines over one store reproduce the uncached chase exactly."""
    program, database, _ = workload
    options = dict(max_depth=13, max_nodes=2_000)
    uncached = WellFoundedEngine(program, database, segment_cache=False, **options)
    expected = chase_signature(uncached)
    store = SegmentStore()
    cold = WellFoundedEngine(program, database, segment_cache=store, **options)
    assert chase_signature(cold) == expected
    warm = WellFoundedEngine(program, database, segment_cache=store, **options)
    assert chase_signature(warm) == expected


def _holds(engine: WellFoundedEngine, query, *, rewrite: bool):
    """``holds`` with the node-budget outcome reified (see chase_signature)."""
    try:
        return engine.holds(query, rewrite=rewrite)
    except GroundingError:
        return "node-budget-exceeded"


@given(workload=guarded_workloads())
@settings(max_examples=30, **COMMON_SETTINGS)
def test_cached_answers_equal_uncached_answers_under_rewrite(workload):
    """The cache composes with the magic-sets path and its chase fallback."""
    program, database, query = workload
    options = dict(max_depth=13, max_nodes=2_000)
    store = SegmentStore()
    uncached = WellFoundedEngine(program, database, segment_cache=False, **options)
    cached = WellFoundedEngine(program, database, segment_cache=store, **options)
    for rewrite in (False, True):
        assert _holds(cached, query, rewrite=rewrite) == _holds(
            uncached, query, rewrite=rewrite
        ), (query, rewrite, cached.last_query_stats)
    # A second cached engine answers from a warm store.  Its twin must see the
    # *same call sequence* (rewrite=True only): an engine whose earlier call
    # already raised the node budget retries model() on its partial forest —
    # pre-existing engine semantics that depend on call history, not caching.
    warm = WellFoundedEngine(program, database, segment_cache=store, **options)
    fresh_uncached = WellFoundedEngine(program, database, segment_cache=False, **options)
    assert _holds(warm, query, rewrite=True) == _holds(
        fresh_uncached, query, rewrite=True
    )


@given(
    workload=guarded_workloads(),
    initial_depth=st.integers(min_value=1, max_value=4),
    depth_step=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, **COMMON_SETTINGS)
def test_cache_is_schedule_independent(workload, initial_depth, depth_step):
    """Any deepening schedule agrees with its uncached twin, node for node."""
    program, database, _ = workload
    options = dict(
        initial_depth=initial_depth,
        depth_step=depth_step,
        max_depth=initial_depth + 3 * depth_step,
        max_nodes=2_000,
    )
    uncached = WellFoundedEngine(program, database, segment_cache=False, **options)
    cached = WellFoundedEngine(program, database, segment_cache=True, **options)
    assert chase_signature(cached) == chase_signature(uncached)


@given(workload=guarded_workloads(), data=st.data())
@settings(max_examples=150, **COMMON_SETTINGS)
def test_store_warmed_on_one_database_replays_on_a_neighbour(workload, data):
    """A store warmed over D serves an engine over D minus or plus one fact.

    This is the pattern of an engine rebuilt after a fact update, where
    segments replayed under their recorded root labels meet a changed
    side-atom context.
    """
    program, database, _ = workload
    facts = sorted(database, key=str)
    if data.draw(st.booleans(), label="drop a fact"):
        dropped = data.draw(st.sampled_from(facts), label="dropped")
        neighbour = [fact for fact in facts if fact != dropped]
    else:
        signatures = sorted({(fact.predicate, len(fact.args)) for fact in facts})
        predicate, arity = data.draw(st.sampled_from(signatures), label="predicate")
        constants = sorted({arg for fact in facts for arg in fact.args}, key=str)
        args = data.draw(
            st.lists(st.sampled_from(constants), min_size=arity, max_size=arity),
            label="args",
        )
        neighbour = facts + [Atom(predicate, tuple(args))]
    options = dict(max_depth=13, max_nodes=2_000)
    store = SegmentStore()
    chase_signature(WellFoundedEngine(program, facts, segment_cache=store, **options))
    cached = WellFoundedEngine(program, neighbour, segment_cache=store, **options)
    uncached = WellFoundedEngine(program, neighbour, segment_cache=False, **options)
    assert chase_signature(cached) == chase_signature(uncached)


# ---------------------------------------------------------------------------
# Edge attribution: every edge's recorded rule re-derives the edge
# ---------------------------------------------------------------------------


def _first_guard(rule):
    """The first positive body atom holding every variable of *rule*."""
    return next(a for a in rule.body_pos if rule.variables() <= a.variables())


def _bind(pattern: Atom, label: Atom):
    """The binding that maps the function-free *pattern* onto *label*, or None."""
    if pattern.predicate != label.predicate or len(pattern.args) != len(label.args):
        return None
    binding = {}
    for term, value in zip(pattern.args, label.args):
        if isinstance(term, Variable):
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


def _ground_term(term, binding):
    if isinstance(term, Variable):
        return binding[term]
    if isinstance(term, FunctionTerm):
        return FunctionTerm(term.function, tuple(_ground_term(a, binding) for a in term.args))
    return term


def _ground_rule(rule, binding) -> NormalRule:
    def ground(atom):
        return Atom(atom.predicate, tuple(_ground_term(t, binding) for t in atom.args))

    return NormalRule(
        ground(rule.head),
        tuple(ground(a) for a in rule.body_pos),
        tuple(ground(a) for a in rule.body_neg),
    )


def assert_edges_attributed(chase) -> None:
    """Each non-root node's recorded rule, fired at its parent, is its edge.

    Independent of the engine's matcher: the guard is re-selected, matched
    and instantiated here.
    """
    forest = chase.forest
    for node in forest.nodes():
        if node.is_root():
            continue
        rule = chase._rules[chase._edge_seq[node.node_id]].rule
        binding = _bind(_first_guard(rule), forest.node(node.parent).label)
        assert binding is not None, (node, rule)
        assert _ground_rule(rule, binding) == node.edge_rule, (node, rule)


@given(
    workload=guarded_workloads(),
    saturation=st.sampled_from(["agenda", "scan"]),
    initial_depth=st.integers(min_value=1, max_value=4),
    depth_step=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, **COMMON_SETTINGS)
def test_recorded_edge_rule_rederives_every_edge(
    workload, saturation, initial_depth, depth_step
):
    """Cold and warm stores, both saturation modes, any deepening schedule."""
    program, database, _ = workload
    options = dict(
        saturation=saturation,
        initial_depth=initial_depth,
        depth_step=depth_step,
        max_depth=initial_depth + 3 * depth_step,
        max_nodes=2_000,
    )
    store = SegmentStore()
    for _store in ("cold", "warm"):
        engine = WellFoundedEngine(program, database, segment_cache=store, **options)
        try:
            engine.model()
        except GroundingError:
            pass  # nodes placed before the budget ran out are attributed too
        assert_edges_attributed(engine._chase)
