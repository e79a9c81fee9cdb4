"""Columnar-grounding benchmark — bulk delta joins vs. the tuple matcher.

A large-EDB reachability/ontology workload
(:func:`repro.bench.generators.large_edb_reachability`) scaled by the number
of database facts: a small deterministic core is reachable from the source
while the bulk of the database is background edges and node facts the
derivation never touches.  For every size the benchmark runs the semi-naive
relevant grounding once per backend — the per-candidate ``tuple`` matcher
(the differential oracle) and the pure-Python ``columnar`` hash-join
backend — checks that both saturate and that the resulting ground programs
are *set-identical* (same rules modulo insertion order) with identical
well-founded models, and records the cold wall-clock times.
``benchmarks/run_cases.py`` runs the ``columnar_grounding`` case and writes
``BENCH_columnar_grounding.json``.
"""

from __future__ import annotations

import time

from repro.bench.generators import large_edb_reachability
from repro.lp.columnar import BACKENDS, make_grounder
from repro.lp.wfs import well_founded_model

#: Length of the reachable chain; the tuple matcher re-scans the full edge
#: extension on every one of these deepening rounds, the columnar backend
#: only probes its hash indexes.
CORE_SIZE = 128
#: each timing is the median of this many cold runs (one for tuple runs above
#: 20k facts)
REPEATS = 3


def _timed_grounding(program, edb, backend: str, *, repeats: int):
    """Median cold grounding time plus the last run's grounder."""
    samples = []
    grounder = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        grounder = make_grounder(program, edb, backend=backend)
        grounder.run()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2], grounder


def measure(sizes) -> dict:
    """Compare the grounding backends over a growing EDB.

    Each measurement is *cold*: grounder construction (term interning, index
    building) and the full semi-naive run both happen inside the timed
    region.
    """
    rows = []
    for facts_count in sizes:
        program, edb = large_edb_reachability(facts_count, core_size=CORE_SIZE)

        seconds = {}
        grounders = {}
        for backend in BACKENDS:
            backend_repeats = 1 if backend == "tuple" and facts_count > 20_000 else REPEATS
            seconds[backend], grounders[backend] = _timed_grounding(
                program, edb, backend, repeats=backend_repeats
            )

        oracle, columnar = grounders["tuple"].ground, grounders["columnar"].ground
        rules_equal = set(columnar) == set(oracle)
        models_equal = well_founded_model(columnar) == well_founded_model(oracle)

        rows.append(
            {
                "db_facts": len(edb),
                "core_size": CORE_SIZE,
                "ground_rules": len(grounders["tuple"].ground),
                "rounds": grounders["columnar"].rounds,
                "tuple_seconds": seconds["tuple"],
                "columnar_seconds": seconds["columnar"],
                "speedup_columnar": seconds["tuple"] / seconds["columnar"]
                if seconds["columnar"] > 0
                else float("inf"),
                "ground_rules_equal": rules_equal,
                "models_equal": models_equal,
                "saturated": all(grounder.saturated for grounder in grounders.values()),
            }
        )
    largest = rows[-1]
    return {
        "experiment": "columnar_grounding",
        "workload": f"large_edb_reachability(facts, core_size={CORE_SIZE})",
        "backends": list(BACKENDS),
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["db_facts"],
        "largest_size_speedup_columnar": largest["speedup_columnar"],
        "all_ground_rules_equal": all(row["ground_rules_equal"] for row in rows),
        "all_models_equal": all(row["models_equal"] for row in rows),
        "all_saturated": all(row["saturated"] for row in rows),
    }
