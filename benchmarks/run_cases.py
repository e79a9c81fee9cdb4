"""One runner for every benchmark case: the paper's experiments and the BENCH floors.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/run_cases.py [--smoke] [CASE ...]

Each case in :data:`CASES` calls the ``measure(sizes)`` of one
``bench_*.py`` module at the case's report sizes, or at its smoke sizes with
``--smoke`` (the ``paper`` case calls the ``measure()`` of E1–E6, which run
at one fixed set of parameters).  The runner prints the measured rows,
writes ``BENCH_<case>.json`` and checks the case's gates.  A report run
writes the committed JSON at the repository root; a smoke run writes it
under the git-ignored :data:`SMOKE_DIR` instead, so it never touches the
committed files.  The gates:

* every boolean the measurement records outside its result rows is a named
  check and must be true, and every ``results`` list must be non-empty;
* every :class:`Floor` of the case's row in :data:`CASES` must hold.  A
  floor marked ``smoke=False`` holds only at report sizes; smoke runs
  print it without asserting it.

Each case runs in its own interpreter.  The exit status is 1 when any gate
fails.  ``tests/test_bench_floors.py`` checks every committed JSON against
this table without running anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import bench_baseline_comparison
import bench_chase_agenda
import bench_columnar_grounding
import bench_combined_complexity
import bench_data_complexity
import bench_incremental_wfs
import bench_locality
import bench_lp_substrate
import bench_ontology
import bench_paper_example
import bench_query_rewrite
import bench_scenarios
import bench_view_maintenance

ROOT = Path(__file__).resolve().parent.parent
#: Where smoke runs write their JSONs (git-ignored).
SMOKE_DIR = ROOT / "bench-smoke"

#: The paper's experiments, one section each of ``BENCH_paper.json``.
PAPER = {
    "E1": bench_paper_example,
    "E2": bench_data_complexity,
    "E3": bench_combined_complexity,
    "E4": bench_baseline_comparison,
    "E5": bench_ontology,
    "E6": bench_locality,
}


def measure_paper(experiments: list[str]) -> dict:
    return {name: PAPER[name].measure() for name in experiments}


@dataclass(frozen=True)
class Floor:
    """Bounds on every value ``path`` names in a case's JSON.

    The path is dotted; a step through a list (``results``) applies the bound
    to every row.
    """

    path: str
    low: float | None = None
    high: float | None = None
    smoke: bool = True

    def bound(self) -> str:
        parts = [f">= {self.low:g}"] if self.low is not None else []
        parts += [f"<= {self.high:g}"] if self.high is not None else []
        return " and ".join(parts)

    def holds(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and (self.low is None or value >= self.low)
            and (self.high is None or value <= self.high)
        )


@dataclass(frozen=True)
class Case:
    name: str
    measure: Callable[[Any], dict]
    smoke: Any
    report: Any
    floors: tuple[Floor, ...] = ()

    @property
    def path(self) -> Path:
        return ROOT / f"BENCH_{self.name}.json"


#: Every case with its sizes and floors: the one place the benchmark claims live.
CASES = {
    case.name: case
    for case in (
        Case(
            "paper", measure_paper, list(PAPER), list(PAPER),
            floors=(Floor("E2.growth_exponent", high=1.5),),
        ),
        Case(
            "lp_substrate", bench_lp_substrate.measure, [20, 40], [40, 80, 160, 320, 640, 1280],
            floors=(Floor("largest_size_speedup_naive_over_indexed", 5, smoke=False),),
        ),
        Case(
            "query_rewrite", bench_query_rewrite.measure, [4, 8], [2, 4, 8, 16],
            floors=(Floor("largest_size_reduction_ground_rules", 5),),
        ),
        Case(
            "chase_agenda", bench_chase_agenda.measure, [8, 12], [32, 48, 64],
            floors=(Floor("largest_size_speedup", 3),),
        ),
        Case(
            "incremental_wfs", bench_incremental_wfs.measure, [8, 16], [24, 48, 96],
            floors=(Floor("largest_size_speedup", 3),),
        ),
        Case(
            "columnar_grounding", bench_columnar_grounding.measure,
            [2000, 5000], [10_000, 30_000, 100_000],
            floors=(Floor("largest_size_speedup_columnar", 5),),
        ),
        Case(
            "view_maintenance", bench_view_maintenance.measure, [4, 8], [16, 48, 128],
            floors=(Floor("largest_insert_speedup", 10), Floor("largest_retract_speedup", 10)),
        ),
        Case(
            "scenarios", bench_scenarios.measure, 24, 120,
            floors=(
                Floor("results.update_speedup_vs_scratch", 5),
                Floor("results.checkpoints", 1),
                Floor("results.updates.count", 1),
            ),
        ),
    )
}


def values(data: dict, path: str) -> list:
    """Every value the dotted *path* names; raises ``KeyError`` if it names none."""
    found = [data]
    for key in path.split("."):
        found = [
            item[key]
            for value in found
            for item in (value if isinstance(value, list) else [value])
        ]
    return found


def _entries(data: dict, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """``(dotted key, value)`` of every entry, descending into nested sections."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _entries(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _is_rows(value: Any) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def gates(case: Case, data: dict, *, smoke: bool) -> list[tuple[str, str]]:
    """``(verdict, text)`` for every gate of *case* on *data*.

    The verdict is ``ok``, ``FAIL``, or ``info`` for a report-size floor on a
    smoke run, which is shown but not asserted.
    """
    verdicts = []
    for key, value in _entries(data):
        if isinstance(value, bool):
            verdicts.append(("ok" if value else "FAIL", f"{key} is {value}"))
        elif key.split(".")[-1] == "results" and not value:
            verdicts.append(("FAIL", f"{key} is empty"))
    for floor in case.floors:
        try:
            found = values(data, floor.path)
        except KeyError:
            found = []
        held = bool(found) and all(floor.holds(v) for v in found)
        asserted = floor.smoke or not smoke
        verdict = "ok" if held else ("FAIL" if asserted else "info")
        note = "" if asserted else ", asserted at report sizes"
        shown = ", ".join(_cell(v) for v in found) or "missing"
        verdicts.append((verdict, f"{floor.path} = {shown} ({floor.bound()}{note})"))
    return verdicts


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return "-" if value is None else str(value)


def render_rows(title: str, rows: list[dict]) -> str:
    """One column per result row, one line per (dotted) key."""
    flat = [{key: _cell(value) for key, value in _entries(row)} for row in rows]
    keys = list(dict.fromkeys(key for cells in flat for key in cells))
    table = [[key, *(cells.get(key, "") for cells in flat)] for key in keys]
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    lines = [title]
    lines += ["  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines)


def output_path(case: Case, *, smoke: bool) -> Path:
    """Where a run writes *case*'s JSON: the committed file only at report sizes."""
    return SMOKE_DIR / case.path.name if smoke else case.path


def run(case: Case, *, smoke: bool) -> bool:
    """Measure, print and write one case; return whether every gate held."""
    sizes = case.smoke if smoke else case.report
    print(f"\n== {case.name} ({'smoke' if smoke else 'report'} sizes {sizes})")
    started = time.perf_counter()
    data = case.measure(sizes)
    elapsed = time.perf_counter() - started
    scalars = []
    for key, value in _entries(data):
        if _is_rows(value):
            print(render_rows(key, value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            scalars.append(f"{key} = {_cell(value)}")
    if scalars:
        print("\n".join(scalars))
    path = output_path(case, smoke=smoke)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    verdicts = gates(case, data, smoke=smoke)
    for verdict, text in verdicts:
        print(f"  {verdict:<4}  {text}")
    print(f"wrote {path.relative_to(ROOT)} ({elapsed:.1f} s)")
    return all(verdict != "FAIL" for verdict, _ in verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="run at the smoke sizes")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"cases to run (default: all of {', '.join(CASES)})")
    args = parser.parse_args(argv)
    names = args.cases or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}")
    if len(names) == 1:
        return 0 if run(CASES[names[0]], smoke=args.smoke) else 1
    # One fresh interpreter per case, so no case is timed on another's heap.
    flags = ["--smoke"] if args.smoke else []
    failed = [
        name
        for name in names
        if subprocess.run([sys.executable, __file__, *flags, name]).returncode != 0
    ]
    print(f"\n{len(names)} cases, failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
