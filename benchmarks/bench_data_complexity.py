"""E2 — data complexity of NBCQ answering (Theorem 13/14, PTIME data complexity).

The program Σ (the employment ontology of Example 2, translated to guarded
normal Datalog±) and the query are fixed; only the database grows.  The paper
proves the problem is PTIME-complete in data complexity; the experiment fits
the growth exponent of the answer time against the number of persons, which
should be a small constant (roughly linear for this workload) rather than
exponential.  Section ``E2`` of ``BENCH_paper.json``; the runner's floor
table bounds ``growth_exponent``.
"""

from __future__ import annotations

from repro.bench.generators import employment_workload
from repro.bench.harness import fit_powerlaw_exponent, time_call
from repro.core.engine import WellFoundedEngine

#: database sizes (number of persons) of the sweep
PERSONS = [25, 50, 100, 200]
SEED = 17
#: each point is the median of this many cold answers
REPEATS = 3

#: the fixed NBCQ: "is there an employee ID that is a valid ID?"
QUERY = "? employeeID(X, V), validID(V)"


def answer(program, database) -> bool:
    return WellFoundedEngine(program, database).holds(QUERY)


def measure() -> dict:
    rows = []
    for persons in PERSONS:
        program, database = employment_workload(persons, seed=SEED)
        rows.append(
            {
                "persons": persons,
                "database_atoms": len(database),
                "seconds": time_call(lambda: answer(program, database), repeats=REPEATS),
                "answer": answer(program, database),
            }
        )
    return {
        "workload": f"employment_workload(persons, seed={SEED})",
        "query": QUERY,
        "results": rows,
        "growth_exponent": fit_powerlaw_exponent(
            [row["persons"] for row in rows], [row["seconds"] for row in rows]
        ),
        "all_answers_true": all(row["answer"] is True for row in rows),
    }
