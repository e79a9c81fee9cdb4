"""E7 — the classical WFS substrate (Sec. 2.6): polynomial data tractability
and the cost of its constructions.

* win/move games of growing size: the WFS is computed three ways — the
  indexed SCC-modular worklist evaluation (the production path), the seed's
  naive ``W_P`` re-scan iteration (retained as the reference), and Van
  Gelder's alternating fixpoint on the rule index; all three must agree, and
  the table reports the costs;
* a stratified company-hierarchy-style program: the WFS is total and equals
  the perfect model, at comparable cost.

Running the module directly prints the full table **and** writes the
machine-readable ``BENCH_lp_substrate.json`` next to the repository root, so
the naive-vs-indexed perf trajectory is tracked across PRs.  Pass explicit
sizes on the command line for a quick smoke run (``python
benchmarks/bench_lp_substrate.py 20 40``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.lp.grounding import relevant_grounding
from repro.lp.stratification import perfect_model
from repro.lp.wfs import (
    well_founded_model,
    well_founded_model_alternating,
    well_founded_model_naive,
)
from repro.bench.generators import reachability_program, win_move_game
from repro.bench.harness import ResultTable, fit_powerlaw_exponent, time_call

GAME_SIZES = [20, 40, 80, 160]
#: Sizes used by the standalone report; the largest one is where the JSON's
#: headline naive-vs-indexed speedup is measured.
REPORT_SIZES = [40, 80, 160, 320, 640, 1280]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_lp_substrate.json"


def ground_game(size: int):
    return relevant_grounding(win_move_game(size, seed=59))


@pytest.mark.experiment("E7")
@pytest.mark.parametrize("size", GAME_SIZES)
def test_wfs_indexed_scc_construction(benchmark, size):
    """The SCC-modular worklist evaluation on win/move games."""
    ground = ground_game(size)
    ground.index()  # build the rule index outside the timed region
    model = benchmark.pedantic(well_founded_model, args=(ground,), rounds=2, iterations=1)
    assert model.true_atoms() or model.false_atoms()


@pytest.mark.experiment("E7")
@pytest.mark.parametrize("size", GAME_SIZES)
def test_wfs_naive_reference_construction(benchmark, size):
    """The seed's whole-program ``W_P`` re-scan, retained as the reference."""
    ground = ground_game(size)
    model = benchmark.pedantic(
        well_founded_model_naive, args=(ground,), rounds=2, iterations=1
    )
    reference = well_founded_model(ground)
    assert model.true_atoms() == reference.true_atoms()
    assert model.false_atoms() == reference.false_atoms()


@pytest.mark.experiment("E7")
@pytest.mark.parametrize("size", GAME_SIZES)
def test_wfs_alternating_fixpoint_construction(benchmark, size):
    """The same models via Van Gelder's alternating fixpoint."""
    ground = ground_game(size)
    ground.index()
    model = benchmark.pedantic(
        well_founded_model_alternating, args=(ground,), rounds=2, iterations=1
    )
    reference = well_founded_model(ground)
    assert model.true_atoms() == reference.true_atoms()
    assert model.false_atoms() == reference.false_atoms()


@pytest.mark.experiment("E7")
def test_stratified_program_perfect_model(benchmark):
    """Perfect model of a stratified program, compared against its WFS."""
    program = reachability_program(80, seed=61)
    ground = relevant_grounding(program)
    perfect = benchmark(lambda: perfect_model(program, ground=ground))
    wfs = well_founded_model(ground)
    assert wfs.true_atoms() == perfect.true_atoms()


def measure(sizes=None, *, repeats: int = 3) -> dict:
    """Time the three WFS constructions over win/move games of the given sizes.

    Returns the JSON-ready result dictionary (also see :func:`report`, which
    prints the table and persists the dictionary to ``BENCH_lp_substrate.json``).
    """
    sizes = list(sizes) if sizes else list(REPORT_SIZES)
    rows = []
    for size in sizes:
        ground = ground_game(size)
        ground.index()
        indexed_seconds = time_call(lambda g=ground: well_founded_model(g), repeats=repeats)
        naive_seconds = time_call(
            lambda g=ground: well_founded_model_naive(g), repeats=repeats
        )
        alternating_seconds = time_call(
            lambda g=ground: well_founded_model_alternating(g), repeats=repeats
        )
        rows.append(
            {
                "positions": size,
                "ground_rules": len(ground),
                "atoms": len(ground.atoms()),
                "indexed_seconds": indexed_seconds,
                "naive_seconds": naive_seconds,
                "alternating_seconds": alternating_seconds,
                "speedup_naive_over_indexed": naive_seconds / indexed_seconds
                if indexed_seconds > 0
                else float("inf"),
            }
        )
    largest = rows[-1]
    return {
        "experiment": "lp_substrate",
        "workload": "win_move_game(seed=59)",
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["positions"],
        "largest_size_speedup_naive_over_indexed": largest["speedup_naive_over_indexed"],
        "indexed_growth_exponent": fit_powerlaw_exponent(
            [r["positions"] for r in rows], [r["indexed_seconds"] for r in rows]
        ),
        "naive_growth_exponent": fit_powerlaw_exponent(
            [r["positions"] for r in rows], [r["naive_seconds"] for r in rows]
        ),
    }


def report(sizes=None) -> dict:
    """Print the E7 tables and write ``BENCH_lp_substrate.json``."""
    data = measure(sizes)
    table = ResultTable(
        "E7 — classical WFS on win/move games: indexed SCC worklist vs naive W_P vs alternating",
        ["positions", "ground rules", "indexed (s)", "naive (s)", "alternating (s)", "speedup"],
    )
    for row in data["results"]:
        table.add_row(
            row["positions"],
            row["ground_rules"],
            row["indexed_seconds"],
            row["naive_seconds"],
            row["alternating_seconds"],
            f"{row['speedup_naive_over_indexed']:.1f}x",
        )
    table.print()
    print(
        f"\nempirical growth exponents: indexed ~ {data['indexed_growth_exponent']:.2f}, "
        f"naive ~ {data['naive_growth_exponent']:.2f} (polynomial, as Sec. 2.6 recalls)"
    )
    print(
        f"largest size ({data['largest_size']} positions): naive/indexed speedup "
        f"{data['largest_size_speedup_naive_over_indexed']:.1f}x"
    )
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    return data


if __name__ == "__main__":
    cli_sizes = [int(arg) for arg in sys.argv[1:]] or None
    report(cli_sizes)
