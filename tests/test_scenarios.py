"""The scenario corpus: registry sanity, cross-configuration differentials,
trace replay with checkpoints, uniform query statistics, and the CLI verbs.

The cross-product suite is the corpus's reason to exist: every registered
scenario must answer bit-identically across every engine configuration
(``backend`` × ``rewrite`` × ``incremental``), and the maintained
:class:`repro.views.MaterializedEngine` must equal its from-scratch oracle at
every ``!check`` checkpoint of the scenario's trace.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.engine import WellFoundedEngine
from repro.lang.parser import parse_query
from repro.lp.columnar import BACKENDS
from repro.scenarios import (
    RebuildTarget,
    ScenarioBundle,
    build_scenario,
    build_target,
    get_scenario,
    record_trace,
    replay_scenario,
    replay_trace,
    scenario_names,
)
from repro.scenarios.cli import scenarios_main
from repro.views import MaterializedEngine

#: Small per-scenario builds so the cross-product stays tier-1 fast.
SMALL = {
    "telemetry-rca": {"size": 6, "trace_length": 18, "checkpoint_every": 6},
    "access-control": {"size": 4, "trace_length": 18, "checkpoint_every": 6},
    "win-move": {"size": 6, "trace_length": 18, "checkpoint_every": 6},
    "lubm-university": {"size": 1, "students": 2, "trace_length": 14, "checkpoint_every": 7},
    "supply-chain": {"size": 6, "trace_length": 18, "checkpoint_every": 6},
}

ALL_NAMES = sorted(SMALL)


def small_bundle(name: str, **extra) -> ScenarioBundle:
    params = dict(SMALL[name])
    params.update(extra)
    return build_scenario(name, **params)


def answer_map(engine, queries) -> dict:
    """query text -> frozenset of answers (or the Boolean), via the engine."""
    results = {}
    for text in queries:
        query = parse_query(text)
        if query.variables() and not query.negative:
            results[text] = frozenset(engine.answer(text))
        else:
            results[text] = engine.holds(text)
    return results


# ---------------------------------------------------------------------------
# registry sanity
# ---------------------------------------------------------------------------


def test_registry_lists_the_corpus():
    names = scenario_names()
    assert set(ALL_NAMES) <= set(names)
    assert names == sorted(names)
    for name in names:
        scenario = get_scenario(name)
        assert scenario.description
        assert {"size", "seed", "trace_length"} <= set(scenario.defaults)


def test_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError, match="telemetry-rca"):
        get_scenario("nope")


def test_unknown_parameter_is_rejected():
    with pytest.raises(ValueError, match="chain_length"):
        build_scenario("win-move", chain_length=9)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_bundles_are_deterministic(name):
    first = small_bundle(name)
    second = small_bundle(name)
    assert first.trace == second.trace
    assert set(first.database) == set(second.database)
    assert first.queries == second.queries
    assert first.dynamic_facts == second.dynamic_facts


@pytest.mark.parametrize("name", ALL_NAMES)
def test_bundle_shape(name):
    bundle = small_bundle(name)
    assert bundle.queries and bundle.dynamic_facts and bundle.trace
    # initially_present is exactly the pool members already in the database,
    # which is what makes the generated trace replayable from that state
    present = {atom for atom in bundle.dynamic_facts if atom in bundle.database}
    assert set(bundle.initially_present) == present
    assert bundle.trace[-1].kind == "check"
    seen_updates = sum(1 for event in bundle.trace if event.is_update)
    assert seen_updates > 0


def test_regenerate_trace_varies_with_seed():
    bundle = small_bundle("telemetry-rca")
    assert bundle.regenerate_trace(seed=1) != bundle.regenerate_trace(seed=2)
    assert bundle.regenerate_trace(seed=1) == bundle.regenerate_trace(seed=1)


# ---------------------------------------------------------------------------
# cross-configuration differential: every config answers identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_answers_identical_across_all_configurations(name):
    """backend × rewrite × incremental never changes a scenario's answers."""
    bundle = small_bundle(name)
    baseline = None
    for backend, rewrite, incremental in itertools.product(
        BACKENDS, (False, True), (False, True)
    ):
        engine = WellFoundedEngine(
            bundle.program,
            bundle.database,
            backend=backend,
            rewrite=rewrite,
            incremental=incremental,
        )
        answers = answer_map(engine, bundle.queries)
        if baseline is None:
            baseline = answers
        else:
            assert answers == baseline, (
                f"{name} diverged under backend={backend} "
                f"rewrite={rewrite} incremental={incremental}"
            )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_maintained_engine_matches_well_founded_engine(name):
    """The two engine types agree on every bundled query of the corpus."""
    bundle = small_bundle(name)
    maintained = MaterializedEngine(bundle.program, bundle.database, backend="columnar")
    reference = WellFoundedEngine(bundle.program, bundle.database)
    assert answer_map(maintained, bundle.queries) == answer_map(
        reference, bundle.queries
    )


# ---------------------------------------------------------------------------
# trace replay with differential checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_checkpoints_never_diverge(name, backend):
    bundle, report = replay_scenario(
        name, backend=backend, check=True, **SMALL[name]
    )
    assert report.ok, report.divergences
    assert report.exit_code == 0
    assert report.checks > 0
    assert report.events == len([e for e in bundle.trace if e.kind != "think"])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_rebuild_target_answers_match_materialized(name):
    """The cold-rebuild baseline serves the same answers as the warm engine."""
    bundle = small_bundle(name)
    warm = build_target(bundle, engine="materialized")
    cold = build_target(bundle, engine="rebuild")
    warm_report = replay_trace(bundle.trace, warm)
    cold_report = replay_trace(bundle.trace, cold)
    warm_answers = [r.detail for r in warm_report.records if r.kind == "query"]
    cold_answers = [r.detail for r in cold_report.records if r.kind == "query"]
    assert warm_answers == cold_answers
    assert cold.rebuilds > 1  # the baseline actually paid for rebuilds


def test_rebuild_target_rejects_unknown_options():
    bundle = small_bundle("win-move")
    with pytest.raises(TypeError):
        RebuildTarget(bundle, workers=4)


@pytest.mark.parametrize("budget", ["max_rounds_per_update", "max_atoms"])
def test_rebuild_engine_rejects_update_budgets(budget):
    """Update budgets are not build_target options; passing one is an error."""
    bundle = small_bundle("win-move")
    with pytest.raises(TypeError):
        build_target(bundle, engine="rebuild", **{budget: 8})


def test_recorded_expectations_replay_on_every_backend():
    """A trace recorded on one backend self-verifies on all the others."""
    bundle = small_bundle("access-control")
    recorded, report = record_trace(
        bundle.trace, build_target(bundle, backend="columnar")
    )
    assert report.ok
    assert any(event.kind == "expect" for event in recorded)
    for backend in BACKENDS:
        replayed = replay_trace(recorded, build_target(bundle, backend=backend))
        assert replayed.ok, (backend, replayed.divergences)
        assert replayed.expects > 0


# ---------------------------------------------------------------------------
# uniform query statistics (both engine types, one shape)
# ---------------------------------------------------------------------------

UNIFORM_KEYS = {"seconds", "rounds", "cache_hit", "backend"}


def test_query_stats_share_one_shape_across_engines():
    bundle = small_bundle("telemetry-rca")
    maintained = MaterializedEngine(bundle.program, bundle.database)
    classic = WellFoundedEngine(bundle.program, bundle.database)
    rewriting = WellFoundedEngine(bundle.program, bundle.database, rewrite=True)
    for engine in (maintained, classic, rewriting):
        engine.holds(bundle.queries[0])
        stats = engine.last_query_stats
        assert UNIFORM_KEYS <= set(stats), type(engine).__name__
        assert stats["cache_hit"] is False
        assert stats["seconds"] >= 0.0
        assert isinstance(stats["rounds"], int)
        engine.holds(bundle.queries[0])
        assert engine.last_query_stats["cache_hit"] is True


def test_update_stats_expose_wall_clock_and_rounds():
    bundle = small_bundle("telemetry-rca")
    engine = MaterializedEngine(bundle.program, bundle.database)
    fact = next(
        atom for atom in bundle.dynamic_facts if atom not in engine.edb
    )
    stats = engine.add_facts(fact)
    assert stats["seconds"] >= 0.0
    assert stats["rounds"] == stats["grounding_rounds"]
    assert stats["backend"] == engine.backend
    stats = engine.retract_facts(fact)
    assert {"seconds", "rounds", "backend"} <= set(stats)


def test_replay_counts_cache_hits_from_the_uniform_stats():
    bundle = small_bundle("access-control")
    # consecutive queries with no update in between must hit the model cache
    trace = [e for e in bundle.trace if e.kind == "check"][:1]
    from repro.scenarios import query_event

    trace = [query_event(bundle.queries[0]), query_event(bundle.queries[1])]
    report = replay_trace(trace, build_target(bundle))
    assert report.query_cache_misses == 1
    assert report.query_cache_hits == 1


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


def test_cli_list_names_every_scenario(capsys):
    assert scenarios_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_NAMES:
        assert name in out


def test_cli_run_answers_queries(capsys):
    assert scenarios_main(["run", "win-move", "--size", "5"]) == 0
    out = capsys.readouterr().out
    assert "? win(X)" in out


def test_cli_unknown_scenario_exits_2(capsys):
    assert scenarios_main(["replay", "missing-scenario"]) == 2
    assert "registered" in capsys.readouterr().err


def test_cli_unknown_flag_exits_nonzero():
    # `run` is one-shot: it has no --length flag, so argparse rejects it
    with pytest.raises(SystemExit):
        scenarios_main(["run", "win-move", "--length", "8"])


def test_cli_replay_with_check_passes(capsys):
    code = scenarios_main(
        ["replay", "supply-chain", "--size", "5", "--length", "12", "--check"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "differential" in out


def test_cli_record_then_replay_round_trips(tmp_path, capsys):
    trace_file = tmp_path / "policy.trace"
    code = scenarios_main(
        [
            "record", "access-control",
            "--size", "4", "--length", "10",
            "--out", str(trace_file),
        ]
    )
    assert code == 0
    assert trace_file.exists()
    code = scenarios_main(
        [
            "replay", "access-control",
            "--size", "4",
            "--trace", str(trace_file),
            "--json", str(tmp_path / "report.json"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    import json

    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["ok"] is True
    assert summary["scenario"] == "access-control"


def test_main_cli_dispatches_the_scenarios_verb(capsys):
    from repro.cli import main

    assert main(["scenarios", "list"]) == 0
    assert "win-move" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# long-trace stress replay (runs under -m stress; CI's scheduled job)
# ---------------------------------------------------------------------------


@pytest.mark.stress
@pytest.mark.parametrize("name", ALL_NAMES)
def test_long_trace_replay_stays_faithful(name):
    """Hundreds of churn events with checkpoints on: no divergence, ever."""
    overrides = {k: v for k, v in SMALL[name].items() if k not in ("trace_length", "checkpoint_every")}
    bundle, report = replay_scenario(
        name, check=True, trace_length=400, checkpoint_every=25, **overrides
    )
    assert report.ok, report.divergences
    assert report.checks >= 16
    assert report.latency_summary("insert", "retract")["count"] > 100
