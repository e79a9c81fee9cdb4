"""E7 — the classical WFS substrate (Sec. 2.6): polynomial data tractability
and the cost of its constructions.

* win/move games of growing size: the WFS is computed three ways — the
  indexed SCC-modular worklist evaluation (the production path), the seed's
  naive ``W_P`` re-scan iteration (retained as the reference), and Van
  Gelder's alternating fixpoint on the rule index; all three must agree (on
  20–160 positions), and the rows record the costs;
* a stratified reachability program: its perfect model equals its WFS.

``benchmarks/run_cases.py`` runs the ``lp_substrate`` case and writes
``BENCH_lp_substrate.json``.
"""

from __future__ import annotations

from repro.lp.grounding import relevant_grounding
from repro.lp.stratification import perfect_model
from repro.lp.wfs import (
    well_founded_model,
    well_founded_model_alternating,
    well_founded_model_naive,
)
from repro.bench.generators import reachability_program, win_move_game
from repro.bench.harness import fit_powerlaw_exponent, time_call

#: Positions at which the three constructions must agree.
CHECKED_SIZES = [20, 40, 80, 160]
#: each timing is the median of this many runs
REPEATS = 3


def ground_game(size: int):
    return relevant_grounding(win_move_game(size, seed=59))


def constructions_agree(size: int) -> bool:
    """Naive and alternating equal the indexed model, which decides some atom."""
    ground = ground_game(size)
    indexed = well_founded_model(ground)
    return bool(indexed.true_atoms() or indexed.false_atoms()) and all(
        model.true_atoms() == indexed.true_atoms()
        and model.false_atoms() == indexed.false_atoms()
        for model in (well_founded_model_naive(ground), well_founded_model_alternating(ground))
    )


def perfect_model_equals_wfs() -> bool:
    program = reachability_program(80, seed=61)
    ground = relevant_grounding(program)
    perfect = perfect_model(program, ground=ground)
    return perfect.true_atoms() == well_founded_model(ground).true_atoms()


def measure(sizes) -> dict:
    """Time the three WFS constructions over win/move games of the given sizes."""
    rows = []
    for size in sizes:
        ground = ground_game(size)
        ground.index()
        indexed_seconds = time_call(lambda g=ground: well_founded_model(g), repeats=REPEATS)
        naive_seconds = time_call(
            lambda g=ground: well_founded_model_naive(g), repeats=REPEATS
        )
        alternating_seconds = time_call(
            lambda g=ground: well_founded_model_alternating(g), repeats=REPEATS
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
        "all_constructions_agree": all(constructions_agree(size) for size in CHECKED_SIZES),
        "perfect_model_equals_wfs": perfect_model_equals_wfs(),
    }
