"""A goal-directed query pays for its relevant slice, not the whole database.

Three properties of the magic-sets query path of
:class:`~repro.core.engine.WellFoundedEngine`:

* the guarded chase is built on first use, so a supported magic query and
  the finite plan never build one, while the chase plan, the fallback path
  and a forest request build exactly one over the construction-time facts —
  which every path, and the analysis, reads;
* :func:`~repro.rewrite.magic.ground_magic` only hands the grounder facts of
  query-relevant predicates, so unrelated facts change nothing it reports
  and are never interned;
* the magic path's ``seconds`` statistic includes the restricted WFS solve.
"""

from __future__ import annotations

import time

import pytest

import repro.core.engine as engine_module
from repro.bench.generators import chain_reachability_workload, paper_example_program
from repro.core.engine import WellFoundedEngine
from repro.lang.atoms import Atom, Literal
from repro.lang.parser import parse_program
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, Variable
from repro.lp.columnar import BACKENDS, edb_snapshot
from repro.rewrite.magic import ground_magic, rewrite_for_query


@pytest.fixture
def chase_builds(monkeypatch):
    """Count the chase engines the core engine module constructs."""
    counter = {"built": 0}

    class CountingChase(engine_module.GuardedChaseEngine):
        def __init__(self, *args, **kwargs):
            counter["built"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "GuardedChaseEngine", CountingChase)
    return counter


# ---------------------------------------------------------------------------
# The chase is built on first use
# ---------------------------------------------------------------------------


def test_supported_magic_query_builds_no_chase(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database, rewrite=True)
    assert engine.holds("? reach(c0_6)")
    assert not engine.holds("? unreachable(c1_3)")
    assert engine.answer("? reach(X)") == {
        (Constant(f"c{c}_{i}"),) for c in range(2) for i in range(7)
    }
    assert engine.last_query_stats["mode"] == "magic"
    assert chase_builds["built"] == 0


def test_cache_stats_after_magic_queries_build_no_chase():
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database, rewrite=True)
    assert engine.holds("? reach(c0_6)")
    assert engine.last_query_stats["mode"] == "magic"
    assert engine.last_query_stats["cache_hit"] is False

    # a repeated query is planned again, and still builds no chase
    assert engine.holds("? reach(c0_6)")
    stats = engine.last_query_stats
    assert stats["mode"] == "magic" and stats["cache_hit"] is False
    assert "_chase" not in engine.__dict__


def test_classic_path_builds_one_chase(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    # the scan reference always takes the chase plan
    engine = WellFoundedEngine(program, database, saturation="scan")
    assert chase_builds["built"] == 0
    assert engine.holds("? reach(c0_6)")
    assert engine.holds("? reach(c1_2)")
    assert engine.last_query_stats["mode"] == "classic"
    assert chase_builds["built"] == 1


def test_finite_plan_builds_a_chase_only_for_the_forest(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database)
    assert engine.holds("? reach(c0_6)")
    assert engine.answer("? reach(X)")
    assert engine.last_query_stats["mode"] == "finite"
    assert chase_builds["built"] == 0
    assert engine.model().forest() is engine.chase_forest()
    assert chase_builds["built"] == 1


def test_fallback_path_builds_one_chase(chase_builds):
    program, database = paper_example_program(1)
    engine = WellFoundedEngine(program, database, rewrite=True)
    engine.holds("? t(0)")
    assert engine.last_query_stats["mode"] == "classic"
    assert engine.last_query_stats["rewrite_fallback"]
    assert chase_builds["built"] == 1

    # the fallback answered from the engine's own model, so an unrewritten
    # query finds it built
    engine.holds("? t(0)", rewrite=False)
    assert engine.last_query_stats["cache_hit"] is True
    assert chase_builds["built"] == 1


def test_chase_built_after_magic_queries_matches_a_fresh_engine(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database, rewrite=True)
    assert engine.holds("? reach(c0_6)")
    assert chase_builds["built"] == 0

    model = engine.model()
    forest = engine.chase_forest()
    chase = engine._chase_model()
    fresh = WellFoundedEngine(program, database)
    fresh_model = fresh.model()
    fresh_forest = fresh.chase_forest()
    fresh_chase = fresh._chase_model()
    assert chase_builds["built"] == 2

    assert model.true_atoms() == fresh_model.true_atoms()
    assert model.false_atoms() == fresh_model.false_atoms()
    assert model.undefined_atoms() == fresh_model.undefined_atoms()
    assert (chase.depth, chase.converged) == (fresh_chase.depth, fresh_chase.converged)
    assert forest.labels() == fresh_forest.labels()
    assert forest.edge_rules() == fresh_forest.edge_rules()


@pytest.mark.parametrize("option", [{"saturation": "eager"}])
def test_invalid_chase_options_still_raise_at_construction(chase_builds, option):
    program, database = chain_reachability_workload(1, 2)
    with pytest.raises(ValueError):
        WellFoundedEngine(program, database, **option)
    assert chase_builds["built"] == 0


def test_lazy_chase_sees_the_construction_time_database(chase_builds):
    program, database = chain_reachability_workload(2, 4)
    snapshot = database.copy()
    engine = WellFoundedEngine(program, database)
    stray = Atom("node", (Constant("stray"),))
    database.add(stray)
    assert engine.is_stale()
    assert chase_builds["built"] == 0

    model = engine.model()
    reference = WellFoundedEngine(program, snapshot).model()
    assert model.true_atoms() == reference.true_atoms()
    assert model.false_atoms() == reference.false_atoms()
    assert model.segment_atoms() == reference.segment_atoms()
    assert Atom("unreachable", (Constant("stray"),)) not in model.true_atoms()


#: one program per rewrite path; ``marked(a)`` is added after construction
SNAPSHOT_PROGRAMS = {
    "magic": """
        node(X) -> exists Y tag(X, Y).
        tag(X, Y), marked(X) -> hot(X).
        node(a).
    """,
    "classic": """
        node(X) -> exists Y link(X, Y).
        link(X, Y) -> node(Y).
        link(X, Y), marked(X) -> hot(X).
        other(X) -> exists Y junk(X, Y).
        node(a).
    """,
}


@pytest.mark.parametrize("mode", sorted(SNAPSHOT_PROGRAMS))
def test_every_path_answers_from_the_construction_time_database(mode):
    program, database = parse_program(SNAPSHOT_PROGRAMS[mode])
    snapshot = database.copy()
    engine = WellFoundedEngine(program, database)
    database.add(Atom("marked", (Constant("a"),)))
    fresh = WellFoundedEngine(program, snapshot)

    for query in ("? hot(a)", "? node(a), not hot(a)", "? node(a)"):
        expected = fresh.holds(query)
        assert engine.holds(query, rewrite=False) == expected, query
        assert engine.holds(query, rewrite=True) == expected, query
        assert engine.last_query_stats["mode"] == mode
    assert engine.analysis() == fresh.analysis()


def test_schema_readers_use_the_construction_time_database():
    """δ, the query depth bound and ``repr`` describe the facts the engine
    answers from, not facts added to its database afterwards."""
    text = "node(X) -> exists Y tag(X, Y). node(a)."
    engine = WellFoundedEngine(text)
    engine.database.add(Atom("wide", tuple(Constant(c) for c in "abcd")))
    fresh = WellFoundedEngine(text)
    assert engine.delta() == fresh.delta()
    assert engine.query_depth_bound("? tag(a, Y)") == fresh.query_depth_bound("? tag(a, Y)")
    assert repr(engine) == repr(fresh)


# ---------------------------------------------------------------------------
# Statistics of the magic path
# ---------------------------------------------------------------------------


def test_magic_stats_seconds_include_the_restricted_solve(monkeypatch):
    real = engine_module.well_founded_model

    def slow_solve(*args, **kwargs):
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "well_founded_model", slow_solve)
    program, database = chain_reachability_workload(2, 4)
    engine = WellFoundedEngine(program, database, rewrite=True)
    assert engine.holds("? reach(c0_4)")
    assert engine.last_query_stats["mode"] == "magic"
    assert engine.last_query_stats["seconds"] >= 0.02


# ---------------------------------------------------------------------------
# Only query-relevant facts reach the magic grounder
# ---------------------------------------------------------------------------


def _plan(program, *literals):
    return rewrite_for_query(skolemize_program(program).rules(), list(literals))


@pytest.mark.parametrize("backend", BACKENDS)
def test_unrelated_facts_leave_the_magic_grounding_unchanged(backend):
    program, database = chain_reachability_workload(3, 6)
    plan = _plan(program, Literal(Atom("reach", (Constant("c0_6"),)), True))
    base = ground_magic(plan, database, backend=backend)
    assert base.saturated

    noisy = database.copy()
    noise = [Constant(f"n{i}") for i in range(10_001)]
    noisy.update(Atom("noise", (noise[i], noise[i + 1])) for i in range(10_000))
    grown = ground_magic(plan, noisy, backend=backend)
    assert grown.saturated
    assert set(grown.ground) == set(base.ground)
    assert grown.covered_facts == base.covered_facts
    assert grown.magic_atoms == base.magic_atoms
    assert grown.candidates == base.candidates

    # the noise facts are never interned: the columnar path builds the
    # relations of the relevant source/1 and edge/2 only
    snapshot = edb_snapshot(noisy)
    assert snapshot.builds == (2 if backend == "columnar" else 0)
    assert not snapshot.term_ids.keys() & set(noise)


@pytest.mark.parametrize("backend", BACKENDS)
def test_edb_query_still_covers_its_facts(backend):
    program, database = chain_reachability_workload(2, 4)
    target = Atom("edge", (Constant("c0_1"), Variable("Y")))
    grounding = ground_magic(_plan(program, Literal(target, True)), database, backend=backend)
    fact = Atom("edge", (Constant("c0_1"), Constant("c0_2")))
    assert NormalRule(fact) in grounding.ground
    assert grounding.covered_facts == 1

    engine = WellFoundedEngine(program, database, rewrite=True, backend=backend)
    assert engine.answer("? edge(c0_1, Y)") == {(Constant("c0_2"),)}
    assert engine.last_query_stats["mode"] == "magic"
    assert engine.last_query_stats["covered_facts"] == 1
