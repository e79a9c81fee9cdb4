"""Query-rewriting benchmark — magic-sets vs. classic bottom-up answering.

Disjoint reachability chains (:func:`repro.bench.generators.chain_reachability_workload`)
scaled by the number of chains; a query about the last node of chain 0 is
*selective*: only one chain is relevant to it.  For every size the benchmark
answers the query twice through :class:`~repro.core.engine.WellFoundedEngine` —
classic bottom-up (chase segment + full WFS) and goal-directed
(``rewrite=True``, magic-restricted grounding) — checks that the answers are
identical, and records the ground-program sizes and cold wall-clock times.
Each timed repeat gets its own copy of the database, made outside the timed
region, so no repeat finds the columnar snapshot an earlier one built; a
second, *warm* rewritten timing runs fresh engines over one database whose
snapshot a first engine already built — the goal-directed serving case.
At 2 and 4 chains it also checks four queries and one ``answer()`` for
equality between the two routes.  ``benchmarks/run_cases.py`` runs the
``query_rewrite`` case and writes ``BENCH_query_rewrite.json``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.bench.generators import chain_reachability_workload
from repro.bench.harness import time_call
from repro.core.engine import WellFoundedEngine
from repro.lang.program import Database

#: Edges per chain; the selective query targets the last node of chain 0.
CHAIN_LENGTH = 12
#: Chain counts at which every checked query must answer alike both ways.
CHECKED_CHAINS = [2, 4]
#: each timing is the median of this many cold runs
REPEATS = 3


def _cold_seconds(run: Callable[[Database], object], database: Database) -> float:
    """Median time of ``run`` over :data:`REPEATS` copies of *database*.

    Every repeat runs on a copy made before its clock starts: a fresh
    :class:`Database` carries no columnar snapshot, so each repeat pays for
    interning its facts, as a cold run must.
    """
    samples = []
    for _ in range(REPEATS):
        fresh = database.copy()
        start = time.perf_counter()
        run(fresh)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def _workload(chains: int):
    program, database = chain_reachability_workload(chains, CHAIN_LENGTH)
    positive = f"? reach(c0_{CHAIN_LENGTH})"
    negated = f"? node(c0_{CHAIN_LENGTH}), not reach(c0_{CHAIN_LENGTH})"
    return program, database, positive, negated


def rewritten_matches_classic(chains: int) -> bool:
    """Fresh engines answer the selective query both ways; one engine agrees on four."""
    program, database, positive, negated = _workload(chains)
    if not (
        WellFoundedEngine(program, database).holds(positive)
        and WellFoundedEngine(program, database).holds(positive, rewrite=True)
    ):
        return False
    engine = WellFoundedEngine(program, database)
    queries = (positive, negated, "? reach(X)", f"? unreachable(c1_{CHAIN_LENGTH})")
    return all(engine.holds(q) == engine.holds(q, rewrite=True) for q in queries) and (
        engine.answer("? reach(X)") == engine.answer("? reach(X)", rewrite=True)
    )


def measure(sizes) -> dict:
    """Compare classic and rewritten answering over growing chain counts.

    ``classic_seconds`` and ``rewritten_seconds`` are *cold*: engine
    construction, interning, grounding and model computation all happen
    inside the timed region, over a database copy no earlier run touched,
    because the point of the rewriting is to avoid materialising state a
    single query never needs.  ``rewritten_warm_seconds`` times fresh
    rewritten engines over one database after a first engine built its
    snapshot.
    """
    rows = []
    for chains in sizes:
        program, database, positive, negated = _workload(chains)

        classic_seconds = _cold_seconds(
            lambda fresh: WellFoundedEngine(program, fresh).holds(positive), database
        )
        rewritten_seconds = _cold_seconds(
            lambda fresh: WellFoundedEngine(program, fresh).holds(positive, rewrite=True),
            database,
        )
        warm = database.copy()
        WellFoundedEngine(program, warm).holds(positive, rewrite=True)
        rewritten_warm_seconds = time_call(
            lambda: WellFoundedEngine(program, warm).holds(positive, rewrite=True),
            repeats=REPEATS,
        )

        probe = WellFoundedEngine(program, database)
        classic_answer = probe.holds(positive)
        classic_ground = len(probe.ground_program())
        rewritten_answer = probe.holds(positive, rewrite=True)
        stats = probe.last_query_stats
        answers_equal = classic_answer == rewritten_answer and (
            probe.holds(negated) == probe.holds(negated, rewrite=True)
        )

        # A multi-pattern probe reaching both reach^f and reach^b: adornment
        # subsumption folds the bound copy into the free one, so the magic
        # program carries one set of reach rules instead of two.
        multi = f"? reach(X), reach(c0_{CHAIN_LENGTH})"
        multi_equal = probe.holds(multi) == probe.holds(multi, rewrite=True)
        multi_stats = probe.last_query_stats
        answers_equal = answers_equal and multi_equal

        rows.append(
            {
                "chains": chains,
                "chain_length": CHAIN_LENGTH,
                "db_facts": len(database),
                "folded_adornments": multi_stats.get("folded_adornments", 0),
                "multi_query_magic_rules": multi_stats.get("magic_rules", 0),
                "classic_ground_rules": classic_ground,
                "rewritten_ground_rules": stats["ground_rules"],
                "reduction_ground_rules": classic_ground / stats["ground_rules"]
                if stats["ground_rules"]
                else float("inf"),
                "classic_seconds": classic_seconds,
                "rewritten_seconds": rewritten_seconds,
                "rewritten_warm_seconds": rewritten_warm_seconds,
                "speedup_classic_over_rewritten": classic_seconds / rewritten_seconds
                if rewritten_seconds > 0
                else float("inf"),
                "mode": stats["mode"],
                "answers_equal": answers_equal,
            }
        )
    largest = rows[-1]
    return {
        "experiment": "query_rewrite",
        "workload": f"chain_reachability_workload(chains, {CHAIN_LENGTH})",
        "query": f"? reach(c0_{CHAIN_LENGTH})",
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["chains"],
        "largest_size_reduction_ground_rules": largest["reduction_ground_rules"],
        "largest_size_speedup": largest["speedup_classic_over_rewritten"],
        "largest_size_folded_adornments": largest["folded_adornments"],
        "all_answers_equal": all(row["answers_equal"] for row in rows),
        "rewritten_matches_classic": all(
            rewritten_matches_classic(chains) for chains in CHECKED_CHAINS
        ),
    }
