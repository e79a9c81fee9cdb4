"""E4 — the WFS for Datalog± generalises both stratified Datalog± and the
classical LP well-founded semantics.

Three comparisons:

* win/move game: the Datalog± engine must assign exactly the same truth
  values to ``win`` as the classical LP substrate (existential-free
  programs); both routes are timed;
* a stratified program: the WFS is total and coincides with the stratified
  (perfect-model) semantics;
* the employment ontology of Example 2: the stratified Datalog± baseline of
  [1] *rejects* it (negation cycle), while the WFS engine answers.

Section ``E4`` of ``BENCH_paper.json``.
"""

from __future__ import annotations

from repro.bench.generators import (
    employment_workload,
    reachability_program,
    win_move_datalog_pm,
    win_move_game,
)
from repro.bench.harness import time_call
from repro.core.engine import WellFoundedEngine
from repro.core.stratified import StratifiedDatalogPM
from repro.exceptions import NotStratifiedError
from repro.lp.grounding import relevant_grounding
from repro.lp.stratification import perfect_model
from repro.lp.wfs import well_founded_model

GAME_SIZES = [20, 40, 80]
EMPLOYMENT_QUERY = "? employeeID(X, V), validID(V)"


def lp_win_move(size: int):
    return well_founded_model(relevant_grounding(win_move_game(size, seed=31)))


def dpm_win_move(size: int):
    program, database = win_move_datalog_pm(size, seed=31)
    return WellFoundedEngine(program, database).model()


def _rejected_by_stratified(program, database) -> bool:
    try:
        StratifiedDatalogPM(program, database)
    except NotStratifiedError:
        return True
    return False


def measure() -> dict:
    rows = []
    for size in GAME_SIZES:
        reference, model = lp_win_move(size), dpm_win_move(size)
        rows.append(
            {
                "positions": size,
                "lp_seconds": time_call(lambda: lp_win_move(size), repeats=2),
                "engine_seconds": time_call(lambda: dpm_win_move(size), repeats=2),
                "win_agrees": all(
                    reference.is_true(atom) == model.is_true(atom)
                    and reference.is_false(atom) == model.is_false(atom)
                    for atom in reference.universe()
                    if atom.predicate == "win"
                ),
            }
        )

    reachability = reachability_program(60, seed=37)
    ground = relevant_grounding(reachability)
    wfs = well_founded_model(ground)
    perfect = perfect_model(reachability, ground=ground)

    program, database = employment_workload(40, seed=41)

    def employment_answer() -> bool:
        return WellFoundedEngine(program, database).holds(EMPLOYMENT_QUERY)

    return {
        "results": rows,
        "stratified_wfs_seconds": time_call(lambda: well_founded_model(ground)),
        "employment_seconds": time_call(employment_answer),
        "all_win_agree": all(row["win_agrees"] for row in rows),
        "stratified_wfs_total": wfs.is_total(),
        "stratified_wfs_equals_perfect_model": wfs.true_atoms() == perfect.true_atoms(),
        "stratified_baseline_rejects_employment": _rejected_by_stratified(program, database),
        "engine_answers_employment": employment_answer() is True,
    }
