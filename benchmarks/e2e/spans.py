"""Per-layer spans for the traced run, recorded from the benchmark's own files.

``WRAP_POINTS`` is the one table of where each layer is entered: for every
layer, the public functions and methods that enter it.  :func:`installed`
wraps them in place for the duration of a ``with`` block (module functions
are rebound in every loaded ``repro`` module that imported them by name), so
``src/`` stays untouched and the untraced run pays nothing.

A span's self time is its duration minus the time covered by its direct
child spans; the run is single-threaded, so children never overlap.  Counts
are read from the engines' public statistics by the hooks in ``HOOKS``, at
the same boundaries the spans wrap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: layer -> entry points ``(module, attribute path)``; a dotted attribute
#: path names a method of a class defined in that module.
WRAP_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "lang.parse": (
        ("repro.lang.parser", "parse_program"),
        ("repro.lang.parser", "parse_database"),
        ("repro.lang.parser", "parse_query"),
        ("repro.lang.parser", "parse_atom"),
    ),
    "analysis": (
        ("repro.analysis.planner", "analyze"),
        ("repro.analysis.termination", "termination_verdict"),
    ),
    "chase": (
        ("repro.chase.engine", "GuardedChaseEngine.__init__"),
        ("repro.chase.engine", "GuardedChaseEngine.expand"),
    ),
    "core": (
        ("repro.core.engine", "WellFoundedEngine.__init__"),
        ("repro.core.engine", "WellFoundedEngine.model"),
        ("repro.core.engine", "WellFoundedEngine.holds"),
        ("repro.core.engine", "WellFoundedEngine.answer"),
    ),
    "lp.grounding": (
        ("repro.lp.grounding", "SemiNaiveGrounder.__init__"),
        ("repro.lp.grounding", "SemiNaiveGrounder.run"),
        ("repro.lp.columnar", "ColumnarGrounder.__init__"),
        ("repro.lp.columnar", "ColumnarGrounder.run"),
        ("repro.lp.grounding", "relevant_grounding"),
    ),
    "lp.wfs": (
        ("repro.lp.wfs", "IncrementalWFS.__init__"),
        ("repro.lp.wfs", "IncrementalWFS.model"),
        ("repro.lp.wfs", "IncrementalWFS.refresh_structure"),
        ("repro.lp.wfs", "well_founded_model"),
    ),
    "rewrite": (
        ("repro.rewrite.magic", "rewrite_for_query"),
        ("repro.rewrite.magic", "ground_magic"),
    ),
    "views": (
        ("repro.views.materialized", "MaterializedEngine.__init__"),
        ("repro.views.materialized", "MaterializedEngine.add_facts"),
        ("repro.views.materialized", "MaterializedEngine.retract_facts"),
        ("repro.views.materialized", "MaterializedEngine.model"),
        ("repro.views.materialized", "MaterializedEngine.holds"),
        ("repro.views.materialized", "MaterializedEngine.answer"),
    ),
    "lang.queries": (
        ("repro.lang.queries", "query_holds"),
        ("repro.lang.queries", "evaluate_query"),
    ),
    "scenarios": (("repro.scenarios.replay", "replay_trace"),),
}

LAYERS = tuple(WRAP_POINTS)


def _query_stats(counts, args, _before, _result):
    """Per-query counters from the uniform ``last_query_stats`` of either engine."""
    stats = args[0].last_query_stats or {}
    if stats.get("cache_hit"):
        counts["lang.queries.cache_hits"] += 1
        return
    counts["lang.queries.cache_misses"] += 1
    if stats.get("mode") == "classic":
        counts["chase.nodes"] += stats["chase_nodes"]
        counts["chase.nodes_spliced"] += stats["nodes_spliced"]
        counts["core.models"] += 1
        counts["core.depth_total"] += stats["depth"]
        counts["core.deepening_rounds"] += stats["rounds"]
    elif stats.get("mode") == "magic":
        counts["rewrite.magic_rules"] += stats["magic_rules"]
        counts["rewrite.ground_rules"] += stats["ground_rules"]


def _grounder_before(args):
    grounder = args[0]
    return grounder.rounds, len(grounder.ground)


def _grounder_after(counts, args, before, _result):
    grounder = args[0]
    counts["lp.grounding.rounds"] += grounder.rounds - before[0]
    counts["lp.grounding.ground_rules"] += len(grounder.ground) - before[1]


def _wfs_after(counts, args, _before, _result):
    solver = args[0]
    counts["lp.wfs.components_resolved"] += solver.last_resolved
    counts["lp.wfs.components_reused"] += solver.last_reused


def _update_after(counts, _args, _before, stats):
    for key in ("overdeleted", "rederived", "counting_kept"):
        counts[f"views.{key}"] += stats[key]


#: entry point -> ``(before, after)``; ``before(args)`` snapshots state and
#: ``after(counts, args, snapshot, result)`` adds to the counters.
HOOKS = {
    ("repro.core.engine", "WellFoundedEngine.holds"): (None, _query_stats),
    ("repro.core.engine", "WellFoundedEngine.answer"): (None, _query_stats),
    ("repro.views.materialized", "MaterializedEngine.holds"): (None, _query_stats),
    ("repro.views.materialized", "MaterializedEngine.answer"): (None, _query_stats),
    ("repro.lp.grounding", "SemiNaiveGrounder.run"): (_grounder_before, _grounder_after),
    ("repro.lp.columnar", "ColumnarGrounder.run"): (_grounder_before, _grounder_after),
    ("repro.lp.wfs", "IncrementalWFS.model"): (None, _wfs_after),
    ("repro.views.materialized", "MaterializedEngine.add_facts"): (None, _update_after),
    ("repro.views.materialized", "MaterializedEngine.retract_facts"): (None, _update_after),
}


class Tracer:
    """Nested spans, kept in memory: per-layer self time, calls and counters.

    ``keep`` bounds how many finished spans are retained as records for the
    trace file; the aggregates always cover every span.  ``op`` is the index
    of the benchmark operation the next spans belong to (``-1`` for set-up).
    """

    def __init__(self, *, clock=time.perf_counter, keep: int = 0):
        self.clock = clock
        self.keep = keep
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: summed duration of the spans with no parent (the attributed time)
        self.root_s = 0.0
        self.spans: list[dict] = []
        self.op = -1
        self._origin = clock()
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, layer: str, name: str) -> None:
        parent = self._stack[-1][4] if self._stack else None
        self._stack.append([layer, name, self.clock(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> None:
        layer, name, start, child_s, span_id, parent = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_s += duration
        if len(self.spans) < self.keep:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "op": self.op,
                    "layer": layer,
                    "name": name,
                    "start_ms": (start - self._origin) * 1e3,
                    "duration_ms": duration * 1e3,
                }
            )


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for an entry point; owner is a module or class."""
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


def _wrap(tracer: Tracer, layer: str, name: str, function, hook):
    before, after = hook if hook is not None else (None, None)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        snapshot = before(args) if before is not None else None
        tracer.enter(layer, name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer.counts, args, snapshot, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point of ``WRAP_POINTS`` while the block runs."""
    patches: list[tuple[object, str, object]] = []
    try:
        for layer, points in WRAP_POINTS.items():
            for point in points:
                owner, attribute = _resolve(*point)
                original = getattr(owner, attribute)
                wrapped = _wrap(tracer, layer, point[1], original, HOOKS.get(point))
                if isinstance(owner, type):
                    owners = [owner]
                else:
                    # a function imported by name lives on in its importers
                    owners = [
                        module
                        for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "repro"
                        and getattr(module, attribute, None) is original
                    ]
                for target in owners:
                    patches.append((target, attribute, original))
                    setattr(target, attribute, wrapped)
        yield tracer
    finally:
        for target, attribute, original in reversed(patches):
            setattr(target, attribute, original)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 where nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counts: Counter, calls: Counter, wall_s: float) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced window.

    ``counts`` and ``calls`` are snapshots taken over a fixed amount of work
    (so they repeat exactly for a seed); self time is over the whole window.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        metrics[f"{layer}.share"] = (_ratio(tracer.self_s[layer], wall_s), "ratio")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for name in (
        "chase.nodes",
        "chase.nodes_spliced",
        "core.deepening_rounds",
        "lp.grounding.rounds",
        "lp.grounding.ground_rules",
        "lp.wfs.components_resolved",
        "lp.wfs.components_reused",
        "views.overdeleted",
        "views.rederived",
        "views.counting_kept",
        "rewrite.magic_rules",
        "rewrite.ground_rules",
    ):
        metrics[name] = (counts[name], "count")
    metrics["chase.splice_ratio"] = (
        _ratio(counts["chase.nodes_spliced"], counts["chase.nodes"]),
        "ratio",
    )
    metrics["core.depth"] = (_ratio(counts["core.depth_total"], counts["core.models"]), "count")
    metrics["lp.wfs.reuse_ratio"] = (
        _ratio(
            counts["lp.wfs.components_reused"],
            counts["lp.wfs.components_resolved"] + counts["lp.wfs.components_reused"],
        ),
        "ratio",
    )
    metrics["views.rederive_ratio"] = (
        _ratio(counts["views.rederived"], counts["views.overdeleted"]),
        "ratio",
    )
    metrics["lang.queries.cache_hit_rate"] = (
        _ratio(
            counts["lang.queries.cache_hits"],
            counts["lang.queries.cache_hits"] + counts["lang.queries.cache_misses"],
        ),
        "ratio",
    )
    metrics["trace.coverage"] = (_ratio(tracer.root_s, wall_s), "ratio")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics
