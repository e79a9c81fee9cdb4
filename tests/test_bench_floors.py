"""The committed ``BENCH_*.json`` files agree with the benchmark runner's table.

``benchmarks/run_cases.py`` declares every benchmark case with its floors.
These tests run no benchmark: they read the committed JSONs, so a hand edit
to the table, or a JSON regenerated below its floor, fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import run_cases  # noqa: E402

CASES = sorted(run_cases.CASES)


def committed(name: str) -> dict:
    return json.loads(run_cases.CASES[name].path.read_text())


def test_every_committed_json_has_a_case():
    on_disk = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert on_disk == {case.path.name for case in run_cases.CASES.values()}


def test_every_bench_module_belongs_to_a_case():
    modules = {path.stem for path in (ROOT / "benchmarks").glob("bench_*.py")}
    measured = {case.measure.__module__ for case in run_cases.CASES.values()}
    measured |= {module.__name__ for module in run_cases.PAPER.values()}
    assert modules <= measured


@pytest.mark.parametrize("name", CASES)
def test_every_floor_names_a_committed_key(name):
    data = committed(name)
    for floor in run_cases.CASES[name].floors:
        assert run_cases.values(data, floor.path), floor.path


@pytest.mark.parametrize("name", CASES)
def test_committed_json_passes_its_report_gates(name):
    verdicts = run_cases.gates(run_cases.CASES[name], committed(name), smoke=False)
    assert [text for verdict, text in verdicts if verdict != "ok"] == []


def test_a_json_below_its_floor_fails():
    case = run_cases.CASES["view_maintenance"]
    data = committed("view_maintenance")
    data["largest_retract_speedup"] = 9.9
    verdicts = run_cases.gates(case, data, smoke=False)
    assert ("FAIL", "largest_retract_speedup = 9.9 (>= 10)") in verdicts


@pytest.mark.parametrize("name", CASES)
def test_only_a_report_run_writes_the_committed_json(name):
    case = run_cases.CASES[name]
    smoke = run_cases.output_path(case, smoke=True)
    assert smoke.parent == run_cases.SMOKE_DIR
    assert smoke != case.path and smoke.name == case.path.name
    assert run_cases.output_path(case, smoke=False) == case.path
