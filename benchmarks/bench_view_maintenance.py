"""Materialized-view maintenance benchmark — DRed/counting vs. from-scratch.

PR 6 left the warm path one-directional: engines stayed warm while rules
*grew* (chase deepening), but any change to the *database* meant rebuilding
everything.  PR 7 adds `repro.views.MaterializedEngine`: facts are inserted
by regrounding only the delta the new facts can fire (reusing the resumable
semi-naive grounder) and retracted by DRed delete–rederive with a counting
fast path for non-recursive atoms, with `IncrementalWFS` re-solving only the
touched components.

The workload is **many independent reachability chains** — the shape where
maintenance should shine, because a single-fact update touches one chain
while a from-scratch rebuild pays for all of them:

* ``chains`` chains of ``CHAIN_LENGTH`` nodes: ``source(c_0)``,
  ``edge(c_i, c_{i+1})`` facts;
* rules ``source(X) -> reach(X)``, ``reach(X), edge(X, Y) -> reach(Y)`` and
  the stratified-negation probe ``sink(X), not reach(X) -> unreachable(X)``
  (each chain's last node is a ``sink``), so cutting a chain flips a
  negative literal and the WFS ripple is exercised, not just the positive
  closure.

Each trial retracts a mid-chain edge (DRed overdeletes the chain's suffix,
the negation probe flips) and re-inserts it (delta grounding reactivates the
suffix).  The maintained latency charged is *update + model re-solve* — the
time until queries are answerable again.  The engine's initial solve runs
once before the first trial and is recorded as ``initial_solve_seconds``, so
no trial is charged for it.  The from-scratch comparator is
:meth:`MaterializedEngine.scratch_model` on the same state (full reground +
full solve), which doubles as the differential oracle: the maintained model
is checked bit-identical against it after **every** update.  Two-trial runs
at 4 and 8 chains are checked the same way and must overdelete.
``benchmarks/run_cases.py`` runs the ``view_maintenance`` case and writes
``BENCH_view_maintenance.json``.
"""

from __future__ import annotations

import time

from repro.lang.atoms import Atom
from repro.lang.parser import parse_normal_program
from repro.lang.terms import Constant
from repro.views import MaterializedEngine

BACKEND = "tuple"
CHAIN_LENGTH = 24
#: Retract/insert trials per size (each on a different chain).
TRIALS = 3
#: Chain counts of the two-trial identity and overdeletion check.
CHECKED_CHAINS = [4, 8]

RULES = parse_normal_program(
    """
    source(X) -> reach(X).
    reach(X), edge(X, Y) -> reach(Y).
    sink(X), not reach(X) -> unreachable(X).
    """
)


def node(chain: int, position: int) -> Constant:
    return Constant(f"n{chain}_{position}")


def chain_facts(chains: int, length: int = CHAIN_LENGTH) -> list[Atom]:
    """EDB of *chains* independent chains with a negation probe at each end."""
    facts: list[Atom] = []
    for chain in range(chains):
        facts.append(Atom("source", (node(chain, 0),)))
        facts.append(Atom("sink", (node(chain, length - 1),)))
        for position in range(length - 1):
            facts.append(
                Atom("edge", (node(chain, position), node(chain, position + 1)))
            )
    return facts


def model_fingerprint(model):
    return (model.true_atoms(), model.false_atoms(), model.undefined_atoms())


def _maintained_latency(engine: MaterializedEngine, update) -> float:
    """Seconds from issuing *update* until queries are answerable again."""
    started = time.perf_counter()
    update()
    engine.model()
    return time.perf_counter() - started


def maintain(chains: int, *, trials: int = TRIALS) -> dict:
    """One row: *trials* maintained retract/insert pairs against rebuilds."""
    engine = MaterializedEngine(RULES, chain_facts(chains), backend=BACKEND)
    started = time.perf_counter()
    engine.model()
    initial_solve_seconds = time.perf_counter() - started
    identical = True
    insert_seconds: list[float] = []
    retract_seconds: list[float] = []
    scratch_seconds: list[float] = []
    for trial in range(trials):
        chain = (trial * chains) // trials
        mid = CHAIN_LENGTH // 2
        edge = Atom("edge", (node(chain, mid), node(chain, mid + 1)))
        for update, latencies in (
            (engine.retract_facts, retract_seconds),
            (engine.add_facts, insert_seconds),
        ):
            latencies.append(_maintained_latency(engine, lambda: update([edge])))
            started = time.perf_counter()
            oracle = engine.scratch_model()
            scratch_seconds.append(time.perf_counter() - started)
            identical &= model_fingerprint(engine.model()) == model_fingerprint(oracle)

    scratch = sum(scratch_seconds) / len(scratch_seconds)
    insert = sum(insert_seconds) / len(insert_seconds)
    retract = sum(retract_seconds) / len(retract_seconds)
    stored, active = engine.ground_rule_count()
    return {
        "chains": chains,
        "edb_facts": len(engine.edb),
        "stored_rules": stored,
        "active_rules": active,
        "initial_solve_seconds": initial_solve_seconds,
        "scratch_seconds": scratch,
        "insert_seconds": insert,
        "retract_seconds": retract,
        "insert_speedup": scratch / insert if insert > 0 else float("inf"),
        "retract_speedup": scratch / retract if retract > 0 else float("inf"),
        "counting_kept": engine.total_stats["counting_kept"],
        "overdeleted": engine.total_stats["overdeleted"],
        "models_identical": identical,
    }


def measure(sizes) -> dict:
    """Compare maintained single-fact updates against from-scratch rebuilds."""
    rows = [maintain(chains) for chains in sizes]
    checked = [maintain(chains, trials=2) for chains in CHECKED_CHAINS]
    largest = rows[-1]
    return {
        "experiment": "view_maintenance",
        "workload": (
            f"{CHAIN_LENGTH}-node independent reachability chains with a "
            "stratified-negation probe; per-trial mid-chain edge retract + "
            "re-insert, maintained latency = update + model re-solve"
        ),
        "backend": BACKEND,
        "sizes": sizes,
        "results": rows,
        "largest_size": largest["chains"],
        "largest_insert_speedup": largest["insert_speedup"],
        "largest_retract_speedup": largest["retract_speedup"],
        "all_models_identical": all(row["models_identical"] for row in rows),
        "two_trial_models_identical": all(row["models_identical"] for row in checked),
        "two_trial_runs_overdelete": all(row["overdeleted"] > 0 for row in checked),
    }
