"""A goal-directed query pays for its relevant slice, not the whole database.

Three properties of the magic-sets query path of
:class:`~repro.core.engine.WellFoundedEngine`:

* the guarded chase is built on first use, so a supported magic query never
  builds one, while the classic and fallback paths build exactly one over the
  construction-time facts;
* :func:`~repro.rewrite.magic.ground_magic` only hands the grounder facts of
  query-relevant predicates, so unrelated facts change nothing it reports;
* the magic path's ``seconds`` statistic includes the restricted WFS solve.
"""

from __future__ import annotations

import time

import pytest

import repro.core.engine as engine_module
from repro.bench.generators import chain_reachability_workload, paper_example_program
from repro.chase.segments import clear_segment_stores
from repro.core.engine import WellFoundedEngine
from repro.lang.atoms import Atom, Literal
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, Variable
from repro.lp.columnar import BACKENDS
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


def test_classic_path_builds_one_chase(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database)
    assert chase_builds["built"] == 0
    assert engine.holds("? reach(c0_6)")
    assert engine.holds("? reach(c1_2)")
    assert engine.last_query_stats["mode"] == "classic"
    assert chase_builds["built"] == 1


def test_fallback_path_builds_one_chase(chase_builds):
    program, database = paper_example_program(1)
    engine = WellFoundedEngine(program, database, rewrite=True)
    engine.holds("? t(0)")
    assert engine.last_query_stats["mode"] in ("pruned-chase", "full-chase")
    assert chase_builds["built"] == 1


def test_chase_built_after_magic_queries_matches_a_fresh_engine(chase_builds):
    program, database = chain_reachability_workload(2, 6)
    engine = WellFoundedEngine(program, database, rewrite=True)
    assert engine.holds("? reach(c0_6)")
    assert chase_builds["built"] == 0

    clear_segment_stores()
    model = engine.model()
    forest = engine.chase_forest()
    stats = engine.segment_cache_stats()
    clear_segment_stores()
    fresh = WellFoundedEngine(program, database)
    fresh_model = fresh.model()
    assert chase_builds["built"] == 2

    assert model.true_atoms() == fresh_model.true_atoms()
    assert model.false_atoms() == fresh_model.false_atoms()
    assert model.undefined_atoms() == fresh_model.undefined_atoms()
    assert (model.depth, model.converged) == (fresh_model.depth, fresh_model.converged)
    assert forest.labels() == fresh.chase_forest().labels()
    assert forest.edge_rules() == fresh.chase_forest().edge_rules()
    assert stats == fresh.segment_cache_stats()


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
    noisy.update(
        Atom("noise", (Constant(f"n{i}"), Constant(f"n{i + 1}"))) for i in range(10_000)
    )
    grown = ground_magic(plan, noisy, backend=backend)
    assert grown.saturated
    assert set(grown.ground) == set(base.ground)
    assert grown.covered_facts == base.covered_facts
    assert grown.magic_atoms == base.magic_atoms
    assert grown.candidates == base.candidates


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
