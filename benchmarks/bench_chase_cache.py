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
computing its model and answering a query, the pattern of a service that
rebuilds its engine for a recurring (program, database) pair — once with no
segment store and once with one fresh :class:`SegmentStore` handed to every
engine of the series (so the first engine pays for recording).  A secondary scenario runs a
single engine through full iterative deepening from depth 3.  Answers are
checked to be identical between modes in both scenarios.  At depths 8 and 12,
with four gated rules, it also checks cached ≡ uncached answers and that an
engine over a warm store splices and records nothing.
``benchmarks/run_cases.py`` runs the ``chase_cache`` case and writes
``BENCH_chase_cache.json``.
"""

from __future__ import annotations

import time

from repro.chase.segments import SegmentStore
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

#: Depths of the cached ≡ uncached and warm-splice checks (four gated rules).
CHECKED_DEPTHS = [8, 12]


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
    """Build *repeats* fresh single-shot engines, all handed one store when
    *segment_cache* is set; return (seconds, signature, store)."""
    store = SegmentStore()
    signature = None
    started = time.perf_counter()
    for _ in range(repeats):
        engine = WellFoundedEngine(
            program,
            database,
            initial_depth=depth,
            max_depth=depth,
            segment_cache=store if segment_cache else False,
        )
        signature = _model_signature(engine)
    return time.perf_counter() - started, signature, store


def _run_deepening(program, database, depth: int, *, segment_cache: bool):
    """One engine, full iterative deepening from 3; return (seconds, signature)."""
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


def cached_matches_uncached(depth: int) -> bool:
    """Cached and uncached engines produce bit-identical models/answers."""
    program, database = deep_type_workload(depth, gated=4)
    _, cached, _ = _run_repeated(program, database, depth, segment_cache=True, repeats=2)
    _, uncached, _ = _run_repeated(program, database, depth, segment_cache=False, repeats=1)
    return cached == uncached


def warm_engine_splices(depth: int) -> bool:
    """A fresh engine over a warm store splices and records no segment itself."""
    program, database = deep_type_workload(depth, gated=4)
    store = SegmentStore()
    for _ in range(2):  # the first engine records, the second finds a warm store
        engine = WellFoundedEngine(
            program, database, initial_depth=depth, max_depth=depth, segment_cache=store
        )
        engine.model()
    stats = engine.segment_cache_stats()
    return stats["nodes_spliced"] > 0 and stats["segments_recorded"] == 0


def measure(sizes) -> dict:
    """Compare cache-on and cache-off over growing chase depths.

    Each row holds both scenarios: ``repeated`` (the headline — ``REPEATS``
    fresh engines over the same inputs) and ``deepening`` (one engine, full
    iterative deepening).
    """
    rows = []
    for depth in sizes:
        program, database = deep_type_workload(depth)

        off_seconds, off_signature, _ = _run_repeated(
            program, database, depth, segment_cache=False, repeats=REPEATS
        )
        on_seconds, on_signature, store = _run_repeated(
            program, database, depth, segment_cache=True, repeats=REPEATS
        )
        store_stats = store.stats()

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
                "repeats": REPEATS,
                "db_facts": len(database),
                "uncached_seconds": off_seconds,
                "cached_seconds": on_seconds,
                "speedup_repeated": off_seconds / on_seconds if on_seconds > 0 else float("inf"),
                "deepening_uncached_seconds": deep_off_seconds,
                "deepening_cached_seconds": deep_on_seconds,
                "speedup_deepening": deep_off_seconds / deep_on_seconds
                if deep_on_seconds > 0
                else float("inf"),
                "segments": store_stats["segments"],
                "store_hits": store_stats["hits"],
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
        "cached_matches_uncached": all(cached_matches_uncached(d) for d in CHECKED_DEPTHS),
        "warm_engine_splices": all(warm_engine_splices(d) for d in CHECKED_DEPTHS),
    }
