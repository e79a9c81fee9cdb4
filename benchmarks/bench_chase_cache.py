"""Chase-segment cache benchmark — splicing memoized subtrees vs. re-deriving.

The workload is an ontology-shaped program whose chase is *deep* and whose
rule set is *wide*:

* a two-rule existential descent (``e(X) -> exists Y n(X, Y)``,
  ``n(X, Y) -> e(Y)``) drives every root fact down to the depth bound, with a
  negative feedback pair (``live``/``stop``) so the well-founded model keeps
  all three truth values in play;
* ``gated`` side-condition rules (``n(X, Y), probe_k(X) -> hit_k(Y)``) fire
  only near the *first* root, where ``probe_k`` holds — everywhere else their
  side atom never materialises, so the uncached engine pays a guard match and
  a failed side-atom check per gated rule on every single node, which is
  exactly the re-derivation work Lemma 11 says is unnecessary for repeated
  atom types (a cached engine splices those nodes without consulting the
  rules at all).  The width (``GATED_RULES``) mirrors the wide TBoxes of
  ontological workloads — the regime the segment cache targets now that
  agenda-based saturation has removed the per-round re-scans that dominated
  before.

For every size the benchmark runs the *same repeated workload* twice — a
sequence of freshly constructed engines over the same program/database, each
computing its model and answering a query, the pattern produced by the
:mod:`repro.core.answering` engine LRU on recurring (program, database) pairs
— once with the segment cache off and once with it on (stores cleared first,
so the first cached engine pays for recording).  A secondary scenario runs a
single engine through full iterative deepening from depth 3.  Answers are
checked to be identical between modes in both scenarios.

Running the module directly prints the comparison table and writes the
machine-readable ``BENCH_chase_cache.json`` at the repository root (uploaded
as a CI artifact; the ROADMAP's BENCH-trajectory item).  Pass explicit depths
for a quick smoke run (``python benchmarks/bench_chase_cache.py 12``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.bench.harness import ResultTable
from repro.chase.segments import clear_segment_stores, segment_store_info
from repro.core.engine import WellFoundedEngine
from repro.lang.atoms import Atom
from repro.lang.program import Database, DatalogPMProgram
from repro.lang.rules import NTGD
from repro.lang.terms import Constant, Variable

#: Side-condition rules that only fire near the first root.
GATED_RULES = 192
#: Fresh engines per repeated-workload series.  Chosen so the first (cold,
#: store-recording) engine is well amortised: the headline measures the
#: steady state of a recurring workload, not the cold start.
REPEATS = 12

SMOKE_SIZES = [8, 12]
#: Chase depths for the standalone report; the largest is where the JSON's
#: headline speedup is measured.
REPORT_SIZES = [32, 48, 64]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_chase_cache.json"


def deep_type_workload(
    depth: int, *, gated: int = GATED_RULES
) -> tuple[DatalogPMProgram, Database]:
    """The benchmark program and database for a given chase depth.

    The number of root facts scales with the depth (``max(2, depth // 4)``)
    so forests grow in both dimensions.  From depth two on, every chain's
    atoms have the same canonical shape (all-null arguments).  A repeated
    engine over the same database finds each root's recorded subtree under
    the root's own label, so the segment cache collapses the entire descent
    into one splice per root.  The ``probe_k`` side
    atoms hold of the first root only: the gated rules stay *checkable*
    everywhere but *fire* almost nowhere, which keeps the uncached matching
    burden proportional to ``nodes × gated`` while the materialised forest
    (and hence the shared WFS cost) stays lean.
    """
    x, y = Variable("X"), Variable("Y")
    rules = [
        NTGD((Atom("e", (x,)),), Atom("n", (x, y)), label="spawn"),
        NTGD((Atom("n", (x, y)),), Atom("e", (y,)), label="descend"),
        NTGD((Atom("n", (x, y)),), Atom("live", (x,)), (Atom("stop", (y,)),), label="live"),
        NTGD((Atom("e", (x,)),), Atom("stop", (x,)), (Atom("live", (x,)),), label="stopper"),
    ]
    for k in range(gated):
        rules.append(
            NTGD(
                (Atom("n", (x, y)), Atom(f"probe{k}", (x,))),
                Atom(f"hit{k}", (y,)),
                label=f"gate{k}",
            )
        )
    facts = []
    for i in range(max(2, depth // 4)):
        facts.append(Atom("e", (Constant(f"c{i}"),)))
    for k in range(gated):
        facts.append(Atom(f"probe{k}", (Constant("c0"),)))
    return DatalogPMProgram(rules), Database(facts)


QUERY = "? live(c0)"


def _model_signature(engine: WellFoundedEngine):
    """Everything answer-relevant about an engine's model, for equality checks."""
    model = engine.model()
    return (
        frozenset(model.true_atoms()),
        frozenset(model.false_atoms()),
        frozenset(model.undefined_atoms()),
        engine.holds(QUERY),
        model.depth,
        model.converged,
    )


def _run_repeated(program, database, depth: int, *, segment_cache: bool, repeats: int):
    """Build *repeats* fresh single-shot engines; return (seconds, signature)."""
    clear_segment_stores()
    signature = None
    started = time.perf_counter()
    for _ in range(repeats):
        engine = WellFoundedEngine(
            program,
            database,
            initial_depth=depth,
            max_depth=depth,
            segment_cache=segment_cache,
        )
        signature = _model_signature(engine)
    return time.perf_counter() - started, signature


def _run_deepening(program, database, depth: int, *, segment_cache: bool):
    """One engine, full iterative deepening from 3; return (seconds, signature)."""
    clear_segment_stores()
    started = time.perf_counter()
    engine = WellFoundedEngine(
        program,
        database,
        initial_depth=3,
        depth_step=2,
        max_depth=depth,
        segment_cache=segment_cache,
    )
    signature = _model_signature(engine)
    return time.perf_counter() - started, signature


@pytest.mark.experiment("chase_cache")
@pytest.mark.parametrize("depth", SMOKE_SIZES)
def test_cached_answers_match_uncached(depth):
    """Cached and uncached engines must produce bit-identical models/answers."""
    program, database = deep_type_workload(depth, gated=4)
    _, cached = _run_repeated(program, database, depth, segment_cache=True, repeats=2)
    _, uncached = _run_repeated(program, database, depth, segment_cache=False, repeats=1)
    assert cached == uncached


@pytest.mark.experiment("chase_cache")
@pytest.mark.parametrize("depth", SMOKE_SIZES)
def test_warm_engine_splices(depth):
    """A fresh engine over a warm store derives (almost) nothing itself."""
    program, database = deep_type_workload(depth, gated=4)
    clear_segment_stores()
    WellFoundedEngine(
        program, database, initial_depth=depth, max_depth=depth, segment_cache=True
    ).model()
    warm = WellFoundedEngine(
        program, database, initial_depth=depth, max_depth=depth, segment_cache=True
    )
    warm.model()
    stats = warm.segment_cache_stats()
    assert stats["nodes_spliced"] > 0
    assert stats["segments_recorded"] == 0  # the store already knew every type


def measure(sizes=None, *, repeats: int = REPEATS) -> dict:
    """Compare cache-on and cache-off over growing chase depths.

    Returns the JSON-ready dictionary (see :func:`report`).  Each row holds
    both scenarios: ``repeated`` (the headline — *repeats* fresh engines over
    the same inputs) and ``deepening`` (one engine, full iterative deepening).
    """
    sizes = list(sizes) if sizes else list(REPORT_SIZES)
    rows = []
    for depth in sizes:
        program, database = deep_type_workload(depth)

        off_seconds, off_signature = _run_repeated(
            program, database, depth, segment_cache=False, repeats=repeats
        )
        on_seconds, on_signature = _run_repeated(
            program, database, depth, segment_cache=True, repeats=repeats
        )
        store = segment_store_info()

        deep_off_seconds, deep_off_signature = _run_deepening(
            program, database, depth, segment_cache=False
        )
        deep_on_seconds, deep_on_signature = _run_deepening(
            program, database, depth, segment_cache=True
        )

        rows.append(
            {
                "depth": depth,
                "roots": max(2, depth // 4),
                "gated_rules": GATED_RULES,
                "repeats": repeats,
                "db_facts": len(database),
                "uncached_seconds": off_seconds,
                "cached_seconds": on_seconds,
                "speedup_repeated": off_seconds / on_seconds if on_seconds > 0 else float("inf"),
                "deepening_uncached_seconds": deep_off_seconds,
                "deepening_cached_seconds": deep_on_seconds,
                "speedup_deepening": deep_off_seconds / deep_on_seconds
                if deep_on_seconds > 0
                else float("inf"),
                "segments": store["segments"],
                "store_hits": store["hits"],
                "answers_equal": off_signature == on_signature
                and deep_off_signature == deep_on_signature,
            }
        )
    largest = rows[-1]
    return {
        "experiment": "chase_cache",
        "workload": f"deep_type_workload(depth, gated={GATED_RULES})",
        "query": QUERY,
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["depth"],
        "largest_size_speedup": largest["speedup_repeated"],
        "largest_size_speedup_deepening": largest["speedup_deepening"],
        "all_answers_equal": all(row["answers_equal"] for row in rows),
    }


def report(sizes=None) -> dict:
    """Print the comparison table and write ``BENCH_chase_cache.json``."""
    data = measure(sizes)
    table = ResultTable(
        "Chase-segment cache — splicing memoized subtrees vs. re-deriving",
        [
            "depth",
            "uncached (s)",
            "cached (s)",
            "speedup",
            "deepen off (s)",
            "deepen on (s)",
            "speedup",
        ],
    )
    for row in data["results"]:
        table.add_row(
            row["depth"],
            row["uncached_seconds"],
            row["cached_seconds"],
            f"{row['speedup_repeated']:.1f}x",
            row["deepening_uncached_seconds"],
            row["deepening_cached_seconds"],
            f"{row['speedup_deepening']:.1f}x",
        )
    table.print()
    print(
        f"\nlargest size (depth {data['largest_size']}): repeated-workload speedup "
        f"{data['largest_size_speedup']:.1f}x, deepening speedup "
        f"{data['largest_size_speedup_deepening']:.1f}x, answers equal: "
        f"{data['all_answers_equal']}"
    )
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    return data


if __name__ == "__main__":
    cli_sizes = [int(arg) for arg in sys.argv[1:]] or None
    report(cli_sizes)
