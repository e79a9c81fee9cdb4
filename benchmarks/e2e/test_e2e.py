"""Fast checks of the end-to-end benchmark; the tier-1 suite collects them."""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def test_quick_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(out.read_text())
    spec = run.declared()
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for entry in report["workloads"].values():
        assert entry["failed_ops_frac"] == 0
        for metric in spec["end_to_end"]:
            summary = entry["summary"][metric["name"]]
            assert summary["unit"] == metric["unit"]
            assert math.isfinite(summary["median"]) and summary["median"] > 0
        for metric in spec["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert math.isfinite(value["value"])
        assert entry["per_layer"]["trace.coverage"]["value"] >= 0.9
    assert (tmp_path / "trace-0.json").is_file()


@functools.lru_cache(maxsize=None)
def _one_workload(seed: int, trace: int) -> tuple[dict, dict]:
    """``(result line, detail record)`` of a quick serve-churn run in a child."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-churn", "--quick",
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--detail"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    *_, detail, line = done.stdout.splitlines()
    return json.loads(line), json.loads(detail[len(run.DETAIL):])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_exactly_the_declared_metrics(trace, key):
    line, _ = _one_workload(0, trace)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in run.declared()[key]]


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 1, 2, 3, 5, 6, 7, 8, 11, 12, 14])
    tracer = spans.Tracer(clock=lambda: next(ticks), keep=10)
    tracer.enter("core", "a")  # 1 .. 11
    tracer.enter("chase", "b")  # 2 .. 6
    tracer.enter("chase", "c")  # 3 .. 5
    tracer.exit()
    tracer.exit()
    tracer.enter("lp.wfs", "d")  # 7 .. 8
    tracer.exit()
    tracer.exit()
    tracer.enter("lang.parse", "e")  # 12 .. 14, a second root
    tracer.exit()
    assert tracer.self_s == {"core": 5, "chase": 4, "lp.wfs": 1, "lang.parse": 2}
    assert tracer.root_s == 12
    assert tracer.calls["chase"] == 2
    assert [s["name"] for s in tracer.spans] == ["c", "b", "d", "a", "e"]
    assert tracer.spans[0]["parent"] == tracer.spans[1]["id"]
    metrics = spans.layer_metrics(tracer, tracer.counts, tracer.calls, 16)
    assert metrics["core.share"] == (5 / 16, "ratio")
    assert metrics["trace.coverage"] == (12 / 16, "ratio")


def test_percentile_needs_ten_samples_beyond_it():
    assert run.eligible(20, 50) and not run.eligible(19, 50)
    assert run.eligible(100, 90) and not run.eligible(99, 90)
    assert run.eligible(1000, 99) and not run.eligible(999, 99)
    summary = run._latency_summary([i / 1000 for i in range(150)])
    assert summary["samples"] == 150 and "p90_ms" in summary and "p99_ms" not in summary
    assert run._latency_summary([0.001] * 19)["p50_ms"] is None
    assert run.percentile([1, 2, 3, 4], 50) == 2.5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    make = WORKLOADS[name]
    assert repr(make(0, True).inputs()) == repr(make(0, True).inputs())
    assert repr(make(1, True).inputs()) != repr(make(0, True).inputs())


def test_seed_determines_count_metrics():
    def counts(detail):
        return {k: v["value"] for k, v in detail["metrics"].items() if v["unit"] == "count"}

    _, first = _one_workload(0, 1)
    _one_workload.cache_clear()
    _, again = _one_workload(0, 1)
    _, other = _one_workload(1, 1)
    assert counts(again) == counts(first)
    assert counts(other) != counts(first)


def test_judge_applies_the_pairwise_rule():
    base = [100.0, 101.0, 99.0]
    assert run.judge(base, [100.5, 100.0, 99.5], 0.1, "lower") == "no-worse"
    assert run.judge(base, [130.0, 131.0, 129.0], 0.1, "lower") == "worse"
    assert run.judge(base, [80.0, 81.0, 79.0], 0.1, "lower") == "improved"
    assert run.judge(base, [80.0, 81.0, 79.0], 0.1, "higher") == "worse"
    assert run.judge([50.0, 100.0, 150.0], [100.0, 100.0, 100.0], 0.1, "lower") == "unresolved"
