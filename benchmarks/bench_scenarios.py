"""Scenario-corpus replay benchmark — warm serving latency across the registry.

PR 7's view-maintenance bench measured one synthetic shape (independent
reachability chains).  The scenario corpus (``repro.scenarios``) replaces
hand-rolled shapes with the registered workloads — telemetry RCA,
access-control policies, win/move game graphs, a LUBM-flavoured ontology and
supply-chain chase rules — each bundling a seeded update/query trace.  This
benchmark replays every registered scenario's trace against a warm
:class:`repro.views.MaterializedEngine` with differential checkpoints ON
(``!check`` compares the maintained model against ``scratch_model()``), so
the headline ``all_models_identical`` is a hard correctness gate, and
reports the serving-latency profile:

* p50/p95/p99/max wall-clock per **update** (insert/retract + maintenance)
  and per **query** (over the maintained model),
* the query cache hit-rate (reads the uniform ``last_query_stats`` shape),
* the from-scratch comparator: the median ``scratch_model()`` wall-clock on
  the same states (measured at the checkpoints), and the speedup of a
  maintained update over a rebuild — the number the ROADMAP thresholds.

``benchmarks/run_cases.py`` runs the ``scenarios`` case, whose sizes are trace
lengths, and writes ``BENCH_scenarios.json``.
"""

from __future__ import annotations

import time

from repro.scenarios import build_scenario, build_target, replay_trace, scenario_names

BACKEND = "columnar"


def measure_scenario(name: str, trace_length: int) -> dict:
    """Replay one scenario (checkpoints on) and summarise its latency profile."""
    bundle = build_scenario(name, trace_length=trace_length)
    target = build_target(bundle, engine="materialized", backend=BACKEND)

    # Instrument the differential checkpoints so the oracle's own wall-clock
    # becomes the from-scratch comparator for the same engine states.
    scratch_seconds: list[float] = []
    original_scratch = target.engine.scratch_model

    def timed_scratch():
        started = time.perf_counter()
        model = original_scratch()
        scratch_seconds.append(time.perf_counter() - started)
        return model

    target.engine.scratch_model = timed_scratch

    report = replay_trace(bundle.trace, target, check=True)
    updates = report.latency_summary("insert", "retract")
    queries = report.latency_summary("query", "expect")
    scratch_seconds.sort()
    scratch_p50 = (
        scratch_seconds[len(scratch_seconds) // 2] if scratch_seconds else float("nan")
    )
    update_p50 = updates["p50_seconds"]
    speedup = scratch_p50 / update_p50 if update_p50 else float("nan")
    return {
        "scenario": name,
        "params": dict(bundle.params),
        "events": report.events,
        "updates": updates,
        "queries": queries,
        "checkpoints": report.checks,
        "query_cache_hit_rate": report.query_cache_hit_rate,
        "scratch_p50_seconds": scratch_p50,
        "update_speedup_vs_scratch": speedup,
        "models_identical": report.ok,
        "divergences": list(report.divergences),
    }


def measure(trace_length: int) -> dict:
    """Replay every registered scenario's trace of *trace_length* events."""
    names = list(scenario_names())
    rows = [measure_scenario(name, trace_length) for name in names]
    return {
        "benchmark": "scenario corpus trace replay",
        "description": (
            "every registered scenario's seeded update/query trace replayed "
            "against a warm MaterializedEngine with differential checkpoints "
            "on; scratch comparator timed at the same checkpoints"
        ),
        "backend": BACKEND,
        "trace_length": trace_length,
        "scenarios": names,
        "results": rows,
        "all_models_identical": all(row["models_identical"] for row in rows),
    }
