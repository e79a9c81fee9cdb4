"""Columnar-grounding benchmark — bulk delta joins vs. the tuple matcher.

A large-EDB reachability/ontology workload
(:func:`repro.bench.generators.large_edb_reachability`) scaled by the number
of database facts: a small deterministic core is reachable from the source
while the bulk of the database is background edges and node facts the
derivation never touches.  For every size the benchmark runs the semi-naive
relevant grounding once per backend — the per-candidate ``tuple`` matcher
(the differential oracle) and the pure-Python ``columnar`` hash-join
backend — checks that the resulting ground programs are *set-identical*
(same rules modulo insertion order) with identical well-founded models, and
records the cold wall-clock times.

Running the module directly prints the comparison table **and** writes the
machine-readable ``BENCH_columnar_grounding.json`` next to the repository
root, so the backend trajectory is tracked across PRs (the ROADMAP's
BENCH-trajectory item).  Pass explicit fact counts on the command line for a
quick smoke run (``python benchmarks/bench_columnar_grounding.py 2000``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.bench.generators import large_edb_reachability
from repro.bench.harness import ResultTable
from repro.lp.columnar import BACKENDS, make_grounder
from repro.lp.wfs import well_founded_model

#: Length of the reachable chain; the tuple matcher re-scans the full edge
#: extension on every one of these deepening rounds, the columnar backend
#: only probes its hash indexes.
CORE_SIZE = 128

SMOKE_SIZES = [2000, 5000]
#: EDB fact counts for the standalone report; the largest is where the JSON's
#: headline speedup is measured (the ISSUE's >= 1e5-fact regime).
REPORT_SIZES = [10_000, 30_000, 100_000]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_columnar_grounding.json"


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


@pytest.mark.experiment("columnar")
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_grounding(benchmark, backend):
    """Cold semi-naive grounding of the large-EDB workload, per backend."""
    program, edb = large_edb_reachability(SMOKE_SIZES[0], core_size=CORE_SIZE)

    def run():
        grounder = make_grounder(program, edb, backend=backend)
        grounder.run()
        return grounder

    assert benchmark.pedantic(run, rounds=2, iterations=1).saturated


@pytest.mark.experiment("columnar")
@pytest.mark.parametrize("facts_count", SMOKE_SIZES)
def test_backends_agree(facts_count):
    """Both backends must produce set-identical ground programs and models."""
    program, edb = large_edb_reachability(facts_count, core_size=CORE_SIZE)
    grounders = {}
    for backend in BACKENDS:
        grounders[backend] = make_grounder(program, edb, backend=backend)
        grounders[backend].run()
    oracle, columnar = grounders["tuple"].ground, grounders["columnar"].ground
    assert set(columnar) == set(oracle)
    assert well_founded_model(columnar) == well_founded_model(oracle)


def measure(sizes=None, *, repeats: int = 3) -> dict:
    """Compare the grounding backends over a growing EDB.

    Each measurement is *cold*: grounder construction (term interning, index
    building) and the full semi-naive run both happen inside the timed
    region.  The slow tuple runs above 20k facts are timed once instead of
    ``repeats`` times.  Returns the JSON-ready dictionary (see
    :func:`report`).
    """
    sizes = list(sizes) if sizes else list(REPORT_SIZES)
    rows = []
    for facts_count in sizes:
        program, edb = large_edb_reachability(facts_count, core_size=CORE_SIZE)

        seconds = {}
        grounders = {}
        for backend in BACKENDS:
            backend_repeats = 1 if backend == "tuple" and facts_count > 20_000 else repeats
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
    }


def report(sizes=None) -> dict:
    """Print the comparison table and write ``BENCH_columnar_grounding.json``."""
    data = measure(sizes)
    table = ResultTable(
        "Columnar grounding — bulk delta joins vs. the per-candidate tuple matcher",
        [
            "facts",
            "ground rules",
            "tuple (s)",
            "columnar (s)",
            "speedup",
        ],
    )
    for row in data["results"]:
        table.add_row(
            row["db_facts"],
            row["ground_rules"],
            row["tuple_seconds"],
            row["columnar_seconds"],
            f"{row['speedup_columnar']:.1f}x",
        )
    table.print()
    print(
        f"\nlargest size ({data['largest_size']} facts): columnar speedup "
        f"{data['largest_size_speedup_columnar']:.1f}x, ground programs equal: "
        f"{data['all_ground_rules_equal']}, models equal: {data['all_models_equal']}"
    )
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    return data


if __name__ == "__main__":
    cli_sizes = [int(arg) for arg in sys.argv[1:]] or None
    report(cli_sizes)
