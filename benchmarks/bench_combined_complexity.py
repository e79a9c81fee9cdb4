"""E3 — combined complexity (Theorem 13/14: 2-EXPTIME in general, EXPTIME for
bounded arity).

Here the database stays small and fixed while the *program/schema* grows: the
number of predicates and, separately, the maximum predicate arity.  The paper
predicts much steeper growth in these parameters than in the data (E2); the
recorded series makes that contrast visible (the arity sweep in particular
grows much faster than linearly), without attempting to reach the
doubly-exponential asymptotics on a laptop.  Every model must converge.
Section ``E3`` of ``BENCH_paper.json``.
"""

from __future__ import annotations

from repro.bench.generators import combined_complexity_workload
from repro.bench.harness import fit_powerlaw_exponent, time_call
from repro.core.engine import WellFoundedEngine

#: sweep over the number of predicates (arity fixed at 2)
PREDICATE_COUNTS = [2, 4, 8, 16]

#: sweep over the maximum arity (number of predicates fixed at 3)
ARITIES = [1, 2, 3, 4]


def solve(program, database):
    return WellFoundedEngine(program, database, max_depth=9).model()


def measure() -> dict:
    sweeps = {
        "predicates": [(n, combined_complexity_workload(n, arity=2)) for n in PREDICATE_COUNTS],
        "arity": [
            (a, combined_complexity_workload(3, arity=a, num_constants=3)) for a in ARITIES
        ],
    }
    rows = []
    for sweep, points in sweeps.items():
        for size, (program, database) in points:
            model = solve(program, database)
            rows.append(
                {
                    "sweep": sweep,
                    "size": size,
                    "true_atoms": len(model.true_atoms()),
                    "depth": model.depth,
                    "converged": model.converged,
                    "seconds": time_call(lambda: solve(program, database), repeats=2),
                }
            )

    def exponent(sweep: str) -> float:
        points = [(row["size"], row["seconds"]) for row in rows if row["sweep"] == sweep]
        return fit_powerlaw_exponent(*zip(*points))

    return {
        "results": rows,
        "predicates_growth_exponent": exponent("predicates"),
        "arity_growth_exponent": exponent("arity"),
        "all_converged": all(row["converged"] for row in rows),
    }
