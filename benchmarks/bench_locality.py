"""E6 — locality (Proposition 12): answers stabilise at a tiny chase depth
compared with the theoretical bound n·δ.

For each workload the section records the depth at which the engine's
type-repetition test fired (i.e. the chase depth actually needed), the size of
the materialised segment, and the number of decimal digits of the
theoretical worst-case bound δ of Prop. 12 for a one-literal query — which is
astronomically larger.  This is the ablation for the engine's central design
choice: a type-repetition test instead of the n·δ bound.  It also checks that
the query bound n·δ is linear in the number of query literals.  Section
``E6`` of ``BENCH_paper.json``.
"""

from __future__ import annotations

from repro.bench.generators import (
    employment_workload,
    paper_example_program,
    win_move_datalog_pm,
)
from repro.bench.harness import time_call
from repro.core.engine import WellFoundedEngine
from repro.core.locality import delta_bound
from repro.lang.parser import parse_query

WORKLOADS = {
    "paper example 4": lambda: paper_example_program(),
    "employment (40 persons)": lambda: employment_workload(40, seed=53),
    "win/move (30 positions)": lambda: win_move_datalog_pm(30, seed=53),
}
#: the first k of these form the k-literal query of the n·δ check
QUERY_LITERALS = ["t(X)", "not s(X)", "p(X, Y)"]
#: stabilisation depths above this fail the check
MAX_DEPTH = 9


def converge(workload_name: str):
    """The chase plan's model: its stabilisation depth is what E6 measures.

    The employment and win/move programs are certified terminating, so
    ``model()`` would answer them on the finite plan, with no chase depth.
    """
    program, database = WORKLOADS[workload_name]()
    engine = WellFoundedEngine(program, database)
    model = engine._chase_model()
    return engine, model


def measure() -> dict:
    rows = []
    for name in sorted(WORKLOADS):
        engine, model = converge(name)
        delta = delta_bound(engine.program.schema(engine.database))
        rows.append(
            {
                "workload": name,
                "depth": model.depth,
                "chase_nodes": len(model.forest()),
                "delta_digits": len(str(delta)),
                "seconds": time_call(lambda: converge(name), repeats=2),
                "converged": model.converged,
                "depth_below_delta": model.depth < delta,
            }
        )
    program, database = paper_example_program()
    engine = WellFoundedEngine(program, database)
    sizes = range(1, len(QUERY_LITERALS) + 1)
    bounds = [
        engine.query_depth_bound(parse_query("? " + ", ".join(QUERY_LITERALS[:k])))
        for k in sizes
    ]
    return {
        "results": rows,
        "all_converged": all(row["converged"] for row in rows),
        "all_depths_within_max": all(row["depth"] <= MAX_DEPTH for row in rows),
        "all_depths_below_delta": all(row["depth_below_delta"] for row in rows),
        "query_depth_bound_is_k_delta": bounds == [k * engine.delta() for k in sizes],
    }
