"""E6 — locality (Proposition 12): answers stabilise at a tiny chase depth
compared with the theoretical bound n·δ.

For each workload the table reports the depth at which the engine's
type-repetition test fired (i.e. the chase depth actually needed), the size of
the materialised segment, and the theoretical worst-case bound of Prop. 12 for
a one-literal query — which is astronomically larger.  This is the ablation
for the engine's central design choice: a type-repetition test instead of
the n·δ bound.
"""

from __future__ import annotations

import pytest

from repro.core.engine import WellFoundedEngine
from repro.core.locality import delta_bound
from repro.lang.parser import parse_query
from repro.bench.generators import (
    employment_workload,
    paper_example_program,
    win_move_datalog_pm,
)
from repro.bench.harness import ResultTable

WORKLOADS = {
    "paper example 4": lambda: paper_example_program(),
    "employment (40 persons)": lambda: employment_workload(40, seed=53),
    "win/move (30 positions)": lambda: win_move_datalog_pm(30, seed=53),
}


def converge(workload_name: str):
    program, database = WORKLOADS[workload_name]()
    engine = WellFoundedEngine(program, database)
    model = engine.model()
    return engine, model


@pytest.mark.experiment("E6")
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_stabilisation_depth_is_small(benchmark, workload_name):
    """The engine stabilises at a depth orders of magnitude below n·δ."""
    engine, model = benchmark.pedantic(converge, args=(workload_name,), rounds=2, iterations=1)
    assert model.converged
    assert model.depth <= 9
    assert model.depth < delta_bound(engine.program.schema(engine.database))


@pytest.mark.experiment("E6")
@pytest.mark.parametrize("query_size", [1, 2, 3])
def test_query_depth_bound_grows_linearly_in_the_query(benchmark, query_size):
    """Prop. 12's bound n·δ is linear in the number of query literals."""
    program, database = paper_example_program()
    engine = WellFoundedEngine(program, database)
    literals = ["t(X)", "not s(X)", "p(X, Y)"][:query_size]
    query = parse_query("? " + ", ".join(literals))

    bound = benchmark(lambda: engine.query_depth_bound(query))
    assert bound == query_size * engine.delta()


def report() -> None:
    """Print the E6 table: stabilisation depth vs the theoretical bound."""
    table = ResultTable(
        "E6 — locality: actual stabilisation depth vs Prop. 12's worst-case bound",
        ["workload", "depth used", "chase nodes", "delta (1-literal bound)"],
    )
    for name in sorted(WORKLOADS):
        engine, model = converge(name)
        delta = delta_bound(engine.program.schema(engine.database))
        # delta can exceed float range (it is doubly exponential), so render it
        # as a power of ten from its decimal length instead of converting.
        shown = str(delta) if delta < 10**6 else f"~1e{len(str(delta)) - 1}"
        table.add_row(name, model.depth, len(model.forest()), shown)
    table.print()


if __name__ == "__main__":
    report()
