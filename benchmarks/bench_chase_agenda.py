"""Agenda-based chase saturation benchmark — incremental worklist vs. re-scan.

PR 3 left the chase engine's saturation loop round-based: every round
re-scanned every forest node against every rule, O(nodes × rules) per round
even with the decided-pair memo, which dominated first-run and deepening cost
on the paper's guarded-chase fragment.  This PR replaces it with a
Dowling–Gallier-style agenda (``saturation="agenda"``, the default): new
nodes enter a worklist, blocked (node, rule) pairs watch their first missing
side atom, and each pair is considered once instead of once per round.  The
historical loop is retained verbatim as ``saturation="scan"`` and is the
baseline here.

The workload is a deep, wide program (:func:`deep_type_workload`:
existential descent plus side-gated rules that fire only near the first
root): its chase runs one round per depth level, so the round-based scan
re-visits every node ``O(depth)`` times while the agenda visits it once.
Two scenarios per size:

* **first-run saturation** (the headline ``largest_size_speedup``): one
  fresh chase engine expanded straight to the target depth;
* **deepening** (``largest_size_speedup_deepening``): one engine stepped
  through an iterative-deepening schedule to the same depth, the
  :class:`repro.core.engine.WellFoundedEngine` usage pattern.

Forests are checked to be bit-identical between the modes (labels, parents,
edge rules and canonical levels) via a canonical node signature, and again at
depths 8 and 12 with four gated rules, where both the first-run and the
deepening agenda forest must equal the first-run scan forest.
``benchmarks/run_cases.py`` runs the ``chase_agenda`` case and writes
``BENCH_chase_agenda.json``.
"""

from __future__ import annotations

import time

from repro.chase.engine import GuardedChaseEngine
from repro.lang.atoms import Atom
from repro.lang.program import Database, DatalogPMProgram
from repro.lang.rules import NTGD
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, Variable

#: Side-condition rules that only fire near the first root.
GATED_RULES = 192

#: Deepening schedule factor: the deepening scenario expands at 3, 5, 9, …
#: up to the target depth (initial_depth=3, depth_step doubling-ish).
DEEPENING_STEPS = (3, 5, 9, 17, 33)

#: Depths at which the agenda forests (four gated rules) must equal the scan's.
CHECKED_DEPTHS = [8, 12]


def deep_type_workload(
    depth: int, *, gated: int = GATED_RULES
) -> tuple[DatalogPMProgram, Database]:
    """The benchmark program and database for a given chase depth.

    A two-rule existential descent (``e(X) -> exists Y n(X, Y)``,
    ``n(X, Y) -> e(Y)``) drives every root fact down to the depth bound, and
    a negative feedback pair (``live``/``stop``) keeps all three truth values
    of the well-founded model in play.  The number of root facts scales with
    the depth (``max(2, depth // 4)``) so forests grow in both dimensions.
    The ``gated`` side-condition rules (``n(X, Y), probe_k(X) -> hit_k(Y)``)
    mirror the wide TBoxes of ontological workloads: their ``probe_k`` side
    atoms hold of the first root only, so the gated rules stay *checkable*
    everywhere but *fire* almost nowhere, which keeps the matching burden
    proportional to ``nodes × gated`` while the materialised forest stays
    lean.
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


def forest_signature(forest) -> frozenset:
    """Canonical identity of a forest: nodes keyed by root label + rule path."""
    entries = []
    for node in forest.nodes():
        path = []
        current = node
        while current.parent is not None:
            path.append(current.edge_rule)
            current = forest.node(current.parent)
        entries.append(
            (current.label, tuple(reversed(path)), node.label, node.depth, node.level)
        )
    return frozenset(entries)


def _first_run(skolemized, database, depth: int, saturation: str):
    """One fresh chase engine, expanded straight to *depth*."""
    engine = GuardedChaseEngine(skolemized, database, saturation=saturation)
    started = time.perf_counter()
    engine.expand(depth)
    return time.perf_counter() - started, engine.forest


def _deepening(skolemized, database, depth: int, saturation: str):
    """One engine stepped through the deepening schedule up to *depth*."""
    engine = GuardedChaseEngine(skolemized, database, saturation=saturation)
    schedule = [step for step in DEEPENING_STEPS if step < depth] + [depth]
    started = time.perf_counter()
    for step in schedule:
        engine.expand(step)
    return time.perf_counter() - started, engine.forest


def agenda_matches_scan(depth: int, run) -> bool:
    """The agenda forest built by *run* equals the first-run scan forest."""
    program, database = deep_type_workload(depth, gated=4)
    skolemized = skolemize_program(program)
    _, agenda = run(skolemized, database, depth, "agenda")
    _, scan = _first_run(skolemized, database, depth, "scan")
    return forest_signature(agenda) == forest_signature(scan)


def measure(sizes) -> dict:
    """Compare agenda and scan saturation over growing chase depths."""
    rows = []
    for depth in sizes:
        program, database = deep_type_workload(depth)
        skolemized = skolemize_program(program)

        scan_seconds, scan_forest = _first_run(skolemized, database, depth, "scan")
        agenda_seconds, agenda_forest = _first_run(
            skolemized, database, depth, "agenda"
        )
        identical = forest_signature(agenda_forest) == forest_signature(scan_forest)

        deep_scan_seconds, deep_scan_forest = _deepening(
            skolemized, database, depth, "scan"
        )
        deep_agenda_seconds, deep_agenda_forest = _deepening(
            skolemized, database, depth, "agenda"
        )
        identical = identical and (
            forest_signature(deep_agenda_forest) == forest_signature(deep_scan_forest)
        )

        rows.append(
            {
                "depth": depth,
                "nodes": len(agenda_forest),
                "rules": len(program),
                "scan_seconds": scan_seconds,
                "agenda_seconds": agenda_seconds,
                "speedup_first_run": scan_seconds / agenda_seconds
                if agenda_seconds > 0
                else float("inf"),
                "deepening_scan_seconds": deep_scan_seconds,
                "deepening_agenda_seconds": deep_agenda_seconds,
                "speedup_deepening": deep_scan_seconds / deep_agenda_seconds
                if deep_agenda_seconds > 0
                else float("inf"),
                "forests_identical": identical,
            }
        )
    largest = rows[-1]
    return {
        "experiment": "chase_agenda",
        "workload": "deep_type_workload(depth)",
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["depth"],
        "largest_size_speedup": largest["speedup_first_run"],
        "largest_size_speedup_deepening": largest["speedup_deepening"],
        "all_forests_identical": all(row["forests_identical"] for row in rows),
        "agenda_matches_scan": all(agenda_matches_scan(d, _first_run) for d in CHECKED_DEPTHS),
        "deepening_agenda_matches_scan": all(
            agenda_matches_scan(d, _deepening) for d in CHECKED_DEPTHS
        ),
    }
