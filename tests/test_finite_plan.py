"""The finite plan: certified-terminating programs answer from one grounding.

When :meth:`~repro.core.engine.WellFoundedEngine.analysis` certifies that
the Skolem chase of ``Σ^f`` terminates, the relevant grounding of
``D ∪ Σ^f`` is finite and its WFS *is* Definition 3, so ``model()`` grounds
and solves it instead of deepening the chase.  These tests pin that plan to
the chase plan of the ``saturation="scan"`` reference:

* finite ≡ chase on random guarded workloads: the three atom sets,
  ``holds()``/``answer()`` and the forest a finite-plan model hands out;
* which plan the registered scenarios, the paper example and the scan
  reference take;
* a wrong termination verdict costs the node budget, then the chase plan
  answers;
* the model and statistics contract of the finite plan.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.generators import paper_example_program
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, NormalBCQ
from repro.lang.terms import Constant, Variable
from repro.scenarios import build_scenario, scenario_names

from strategies import guarded_workloads

X, Y = Variable("X"), Variable("Y")

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)

#: the budgets of the other engine-level property suites
OPTIONS = dict(max_depth=13, max_nodes=2_000)

PAPER_QUERIES = ("? t(X), not s(X)", "? q(1)", "? s(0)", "? p(0, X)")


@st.composite
def workloads_with_queries(draw):
    """A random guarded workload plus NBCQs and a CQ over its schema."""
    program, database = draw(guarded_workloads())
    predicate = draw(st.sampled_from(["q0", "q1", "q2"]))
    constant = Constant(f"c{draw(st.integers(min_value=0, max_value=2))}")
    queries = (
        NormalBCQ((Atom(predicate, (constant,)),)),
        NormalBCQ((Atom(predicate, (X,)),)),
        NormalBCQ((Atom("g", (X, Y)),), (Atom(predicate, (Y,)),)),
    )
    cq = ConjunctiveQuery((Atom("g", (X, Y)), Atom(predicate, (Y,))), (X,))
    return program, database, queries, cq


def forest_signature(forest):
    labels = forest.labels()
    return (
        labels,
        frozenset(forest.edge_rules()),
        {atom: (forest.depth_of_atom(atom), forest.level_of_atom(atom)) for atom in labels},
    )


def check_finite_equals_chase(program, database, queries, cq):
    engine = WellFoundedEngine(program, database, **OPTIONS)
    assume(engine.analysis().verdicts["chase_terminates"])
    reference = WellFoundedEngine(program, database, saturation="scan", **OPTIONS)
    try:
        expected = reference.model()
    except GroundingError:
        return  # no chase model within the budget to compare against
    model = engine.model()
    assert model.true_atoms() == expected.true_atoms()
    assert model.false_atoms() == expected.false_atoms()
    assert model.undefined_atoms() == expected.undefined_atoms()
    for query in queries:
        assert engine.holds(query) == reference.holds(query), query
    assert engine.answer(cq) == reference.answer(cq)
    assert engine.last_query_stats["mode"] in ("finite", "classic")
    if engine.last_query_stats["mode"] == "finite":
        assert model.depth is None and model.converged
    else:
        assert "atom budget" in engine.last_query_stats["fallback_reason"]
    assert forest_signature(model.forest()) == forest_signature(expected.forest())


@given(workload=workloads_with_queries())
@settings(max_examples=60, **COMMON_SETTINGS)
def test_finite_plan_equals_chase_plan(workload):
    """On certified programs the default engine answers as the scan chase."""
    check_finite_equals_chase(*workload)


@pytest.mark.stress
@given(workload=workloads_with_queries())
@settings(max_examples=5_000, **COMMON_SETTINGS)
def test_finite_plan_equals_chase_plan_deep_sweep(workload):
    """The same property at sweep size (``-m stress``)."""
    check_finite_equals_chase(*workload)


# ---------------------------------------------------------------------------
# Which plan answers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_answers_on_the_finite_plan(name):
    bundle = build_scenario(name, seed=3)
    engine = WellFoundedEngine(bundle.program, bundle.database)
    reference = WellFoundedEngine(bundle.program, bundle.database, saturation="scan")
    for query in bundle.queries:
        assert engine.holds(query) == reference.holds(query), query
        assert engine.last_query_stats["mode"] == "finite"
        assert reference.last_query_stats["mode"] == "classic"
    criterion = engine.analysis().verdicts["termination_criterion"]
    assert criterion is not None
    assert engine.last_query_stats["termination_criterion"] == criterion


def test_paper_example_answers_on_the_chase_plan():
    program, database = paper_example_program(1)
    engine = WellFoundedEngine(program, database)
    assert engine.analysis().verdicts["chase_terminates"] is False
    for query in PAPER_QUERIES:
        engine.holds(query)
        assert engine.last_query_stats["mode"] == "classic"
        assert "fallback_reason" not in engine.last_query_stats
    assert engine.model().depth is not None


def test_wrong_verdict_costs_the_budget_then_the_chase_answers():
    """A certificate forced onto the non-terminating paper example: the
    grounding outgrows the budget and the chase plan answers instead."""
    program, database = paper_example_program(0)
    reference = WellFoundedEngine(program, database)
    engine = WellFoundedEngine(program, database, max_nodes=40)
    engine.analysis().verdicts["chase_terminates"] = True
    for query in PAPER_QUERIES:
        assert engine.holds(query) == reference.holds(query), query
    stats = engine.last_query_stats
    assert stats["mode"] == "classic"
    assert "atom budget of 40" in stats["fallback_reason"]
    assert engine.model().converged
    assert engine.ground_program() is engine._ground


# ---------------------------------------------------------------------------
# The contract of a finite-plan model
# ---------------------------------------------------------------------------

AUTHORS = """
scientist(X) -> exists Y isAuthorOf(X, Y).
isAuthorOf(X, Y), not retracted(Y) -> cited(X).
scientist(john).
scientist(mary).
"""


def test_finite_model_contract():
    engine = WellFoundedEngine(AUTHORS)
    assert engine.holds("? cited(john)")
    stats = engine.last_query_stats
    assert set(stats) == {
        "mode", "termination_criterion", "ground_rules", "rounds", "backend",
        "cache_hit", "seconds", "analysis",
    }
    assert stats["mode"] == "finite" and stats["termination_criterion"] == "weak"
    assert stats["ground_rules"] == len(engine.ground_program())
    model = engine.model()
    assert (model.depth, model.converged) == (None, True)
    assert stats["rounds"] == model.iterations > 0
    assert model.segment_atoms() == engine.ground_program().atoms()
    # atoms outside the grounding are false
    assert model.is_false(Atom("cited", (Constant("nobody"),)))
    assert engine.holds("? cited(john)")
    assert engine.last_query_stats["cache_hit"]
    # answering built no chase; the forest request builds it
    assert "_chase" not in engine.__dict__

    reference = WellFoundedEngine(AUTHORS, saturation="scan")
    assert forest_signature(model.forest()) == forest_signature(reference.chase_forest())
    assert engine.chase_forest() is model.forest()
    assert "_chase" in engine.__dict__
    # the forest request leaves the answering model and its program in place
    assert engine.model() is model
    assert engine.ground_program().atoms() == model.segment_atoms()


def test_a_finite_model_outlives_its_engine():
    """Engine and finite model form no reference cycle, so both are freed as
    soon as they are dropped; a model that outlived its engine still hands
    out the chase plan's forest."""
    gc.disable()
    try:
        engine = WellFoundedEngine(AUTHORS)
        model = engine.model()
        owner = weakref.ref(engine)
        del engine
        assert owner() is None
    finally:
        gc.enable()
    reference = WellFoundedEngine(AUTHORS, saturation="scan")
    assert forest_signature(model.forest()) == forest_signature(reference.chase_forest())


def test_rewrite_fallback_at_the_budget_edge():
    """The finite grounding has 10 atoms.  At a 9-atom budget the magic
    grounding (its magic atoms count) does not saturate, so the rewritten
    query is answered from the engine's own model and exhausts the budget
    exactly as an unrewritten query does; at 10 atoms it takes the magic
    path."""
    text = """
    edge(X, Y) -> path(X, Y).
    path(X, Y), mark(Y) -> hot(X, Y).
    other(X) -> exists Y junk(X, Y).
    edge(a, b). edge(b, c). edge(c, d). mark(b). other(a).
    """
    for rewrite in (False, True):
        engine = WellFoundedEngine(text, max_nodes=9)
        with pytest.raises(GroundingError):
            engine.holds("? hot(a, b)", rewrite=rewrite)
    engine = WellFoundedEngine(text, rewrite=True, max_nodes=10)
    assert engine.holds("? hot(a, b)")
    assert engine.last_query_stats["mode"] == "magic"
