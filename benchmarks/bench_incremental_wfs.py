"""Incremental WFS maintenance benchmark — dirty-component re-solve vs. from-scratch.

PR 4 left one cold spot in the deepening loop: although the ground program
and its rule index grow incrementally, `WellFoundedEngine.model` recomputed
the dependency condensation and the full SCC-modular well-founded model from
scratch at every depth step.  This PR adds the incremental fixpoint layer
(`repro.lp.fixpoint.IncrementalCondensation` +
`repro.lp.wfs.IncrementalWFS`): the condensation is maintained under rule
insertion (order-consistent insertions are absorbed without any Tarjan; only
order violations re-run Tarjan on the affected suffix) and only components
the delta touched — plus components whose external inputs changed value —
are re-solved; every other component keeps its value in the previous
depth's model.

The workload mirrors the shape iterative deepening actually produces: a
**layered win/move game**.  Layer ``l`` holds ``width`` positions with random
intra-layer moves (cycles and dead ends — the full true/false/undefined mix)
plus moves down into layer ``l - 1``; each growth step appends one layer's
ground rules (move facts and ``win(x) <- move(x, y), not win(y)`` instances),
so new heads depend on older atoms exactly like new chase levels do.  Both
modes share the identical growth schedule and the identical incremental
`GroundProgram`/`RuleIndex` machinery; the *only* difference is the resolve
call per step:

* **from-scratch** (the baseline this PR replaces): `well_founded_model`
  on the grown program at every step — full condensation + full re-solve;
* **incremental**: `well_founded_model_incremental` threaded through the
  schedule.

Models are checked bit-identical (true/false/undefined sets) at every step.
``benchmarks/run_cases.py`` runs the ``incremental_wfs`` case and writes
``BENCH_incremental_wfs.json``.
"""

from __future__ import annotations

import random
import time

from repro.lang.atoms import Atom
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant
from repro.lp.grounding import GroundProgram
from repro.lp.wfs import well_founded_model, well_founded_model_incremental

#: Number of growth steps (layers): the deepening schedule length.
LAYERS = 24


def layered_win_move(layers: int, width: int, seed: int = 0) -> list[list[NormalRule]]:
    """Per-layer ground-rule chunks of a layered win/move game.

    Positions are ``p{layer}_{i}``; each position gets 0–2 intra-layer moves
    (about a quarter are dead ends) and, from layer 1 up, 1–2 moves into the
    previous layer.  The chunk for a layer contains its move facts plus the
    ground ``win`` rule instances those moves induce — new heads over current-
    and previous-layer atoms, the growth shape of chase deepening.
    """
    rng = random.Random(seed)

    def pos(layer: int, i: int) -> Constant:
        return Constant(f"p{layer}_{i}")

    def chunk_for(layer: int) -> list[NormalRule]:
        rules: list[NormalRule] = []
        for i in range(width):
            targets: set[Constant] = set()
            if rng.random() >= 0.25:
                for _ in range(rng.randint(1, 2)):
                    j = rng.randrange(width)
                    if j != i:
                        targets.add(pos(layer, j))
            if layer > 0:
                for _ in range(rng.randint(1, 2)):
                    targets.add(pos(layer - 1, rng.randrange(width)))
            source = pos(layer, i)
            for target in sorted(targets, key=str):
                move = Atom("move", (source, target))
                rules.append(NormalRule(move))
                rules.append(
                    NormalRule(
                        Atom("win", (source,)),
                        (move,),
                        (Atom("win", (target,)),),
                    )
                )
        return rules

    return [chunk_for(layer) for layer in range(layers)]


def model_fingerprint(model):
    return (model.true_atoms(), model.false_atoms(), model.undefined_atoms())


def _run_scratch(chunks):
    """Grow one program; re-solve from scratch at every step (the old path)."""
    program = GroundProgram()
    seconds = 0.0
    fingerprints = []
    for chunk in chunks:
        program.update(chunk)
        started = time.perf_counter()
        model = well_founded_model(program)
        seconds += time.perf_counter() - started
        fingerprints.append(model_fingerprint(model))
    return seconds, fingerprints


def _run_incremental(chunks):
    """Grow one program; thread the incremental solver through the schedule."""
    program = GroundProgram()
    state = None
    seconds = 0.0
    fingerprints = []
    for chunk in chunks:
        program.update(chunk)
        started = time.perf_counter()
        model, state = well_founded_model_incremental(program, state)
        seconds += time.perf_counter() - started
        fingerprints.append(model_fingerprint(model))
    return seconds, fingerprints, state


def measure(sizes) -> dict:
    """Compare incremental and from-scratch deepening resolves over growing widths."""
    rows = []
    for width in sizes:
        chunks = layered_win_move(LAYERS, width)
        scratch_seconds, scratch_models = _run_scratch(chunks)
        incremental_seconds, incremental_models, state = _run_incremental(chunks)
        rows.append(
            {
                "width": width,
                "layers": LAYERS,
                "ground_rules": sum(len(c) for c in chunks),
                "components": len(state.condensation),
                "scratch_seconds": scratch_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup_deepening_resolve": scratch_seconds / incremental_seconds
                if incremental_seconds > 0
                else float("inf"),
                "last_step_resolved": state.last_resolved,
                "last_step_reused": state.last_reused,
                "tarjan_reruns": state.condensation.tarjan_reruns,
                "models_identical": incremental_models == scratch_models,
            }
        )
    largest = rows[-1]
    return {
        "experiment": "incremental_wfs",
        "workload": (
            f"layered_win_move(layers={LAYERS}, width) — one layer of ground "
            "rules per deepening step, resolve-only timings"
        ),
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["width"],
        "largest_size_speedup": largest["speedup_deepening_resolve"],
        "all_models_identical": all(row["models_identical"] for row in rows),
    }
