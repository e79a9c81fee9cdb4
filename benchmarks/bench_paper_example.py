"""E1 — the paper's running example (Examples 4, 6, 9).

Checks the literal-by-literal content of Example 4/9 (the well-founded
model containing ``P(0,1)``, ``¬Q(1)``, ``¬S(0)`` and the "transfinite"
``T(0)``) with 0, 4 and 16 additional isomorphic chains in the database,
times the model at each size, and checks and times the NBCQ
``? t(X), not s(X)``.  Section ``E1`` of ``BENCH_paper.json``.
"""

from __future__ import annotations

from repro.bench.generators import paper_example_program
from repro.bench.harness import time_call
from repro.core.engine import WellFoundedEngine
from repro.lang.parser import parse_atom

EXPECTED_LITERALS = {
    "r(0,0,1)": "true",
    "p(0,0)": "true",
    "p(0,1)": "true",
    "q(1)": "false",
    "s(0)": "false",
    "t(0)": "true",
}

EXTRA_CHAINS = [0, 4, 16]
QUERY = "? t(X), not s(X)"


def compute_model(extra_chains: int):
    program, database = paper_example_program(extra_chains=extra_chains)
    return WellFoundedEngine(program, database).model()


def measure() -> dict:
    rows = []
    for extra in EXTRA_CHAINS:
        model = compute_model(extra)
        rows.append(
            {
                "extra_chains": extra,
                "chase_nodes": len(model.forest()),
                "depth": model.depth,
                "seconds": time_call(lambda: compute_model(extra), repeats=3),
                "literals_match": all(
                    model.value(parse_atom(text)) == value
                    for text, value in EXPECTED_LITERALS.items()
                ),
                "converged": model.converged,
            }
        )
    program, database = paper_example_program()
    engine = WellFoundedEngine(program, database)
    engine.model()  # materialise once; the timing covers query evaluation only
    return {
        "results": rows,
        "query": QUERY,
        "query_seconds": time_call(lambda: engine.holds(QUERY), repeats=3),
        "all_literals_match": all(row["literals_match"] for row in rows),
        "all_converged": all(row["converged"] for row in rows),
        "query_holds": engine.holds(QUERY) is True,
    }
