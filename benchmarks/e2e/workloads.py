"""The four end-to-end workloads: seeded inputs, set-up, operations, references.

Every workload is a closed loop with one client and no think time.  A
workload object is built from ``seed`` (all inputs derive from it) and then
driven by ``run.py``:

* :meth:`setup` builds the warm state the timed loop starts from (timed as
  ``setup_s``) and resets the seeded operation stream, so two set-ups replay
  the same operations; :meth:`teardown` drops that state before the next
  set-up, so freeing it is not charged to the set-up;
* :meth:`prepare` does the untimed bookkeeping before operation ``i``;
* :meth:`op` performs operation ``i`` through the public API and returns
  its answer;
* :meth:`verify` checks the recorded answers against a reference that does
  not share the timed code path, returning ``(checked, failed)``.

``cycle`` is the fixed number of operations the traced run counts work over.
"""

from __future__ import annotations

import random

from repro import WellFoundedEngine, parse_query
from repro.bench.generators import (
    chain_reachability_workload,
    large_edb_reachability,
    paper_example_program,
)
from repro.chase.segments import clear_segment_stores
from repro.core.answering import clear_engine_cache
from repro.lang.atoms import Atom
from repro.lang.terms import Constant
from repro.scenarios import MaterializedTarget, build_scenario, get_scenario, replay, scenario_names
from repro.views import MaterializedEngine

#: what a failed operation records in place of an answer
FAILED = object()

PAPER_QUERIES = ("? t(X), not s(X)", "? q(1)", "? s(0)", "? p(0, X)")


def _is_open(query_text: str) -> bool:
    """Open positive queries are answered with tuples, the rest yes/no."""
    query = parse_query(query_text)
    return bool(query.variables()) and not query.negative


def _ask(engine, query_text: str, is_open: bool):
    return frozenset(engine.answer(query_text)) if is_open else engine.holds(query_text)


def _program_text(program, database) -> str:
    return str(program) + "\n" + "".join(f"{atom}.\n" for atom in database)


class Workload:
    """The hooks a workload may leave out."""

    def setup(self) -> None:
        """Nothing persists between operations: set-up is the import alone."""

    def teardown(self) -> None:
        """No warm state to drop."""

    def prepare(self, i: int) -> None:
        """No bookkeeping before an operation."""


class ColdAnswer(Workload):
    """Program text in, answers out: a fresh ``WellFoundedEngine`` per sample.

    Why: the chase, the deepening loop and the incremental WFS across
    depths do the work; views, rewrite and the columnar grounder sit idle.
    The corpus is 16 copies of (five scenarios, paper example), each copy's
    scenarios built at their own seed drawn from the run's seed.  With one
    or four copies the median answer time moved by a tenth from seed to
    seed: it falls among scenarios whose cost varies with their seed, and
    only many copies average that out.
    """

    name = "cold-answer"

    def __init__(self, seed: int, quick: bool = False):
        scale, instances = (1, 2) if quick else (4, 16)
        paper_program, paper_database = paper_example_program(2 if quick else 16)
        paper = (
            _program_text(paper_program, paper_database),
            tuple((q, _is_open(q)) for q in PAPER_QUERIES),
        )
        self.programs: list[tuple[str, tuple[tuple[str, bool], ...]]] = []
        for instance in range(instances):
            for name in scenario_names():
                size = get_scenario(name).defaults["size"] * scale
                bundle = build_scenario(name, size=size, seed=seed * instances + instance)
                self.programs.append(
                    (
                        _program_text(bundle.program, bundle.database),
                        tuple((q, _is_open(q)) for q in bundle.queries),
                    )
                )
            self.programs.append(paper)
        self.cycle = len(self.programs)
        self._reference: dict[str, tuple] = {}

    def inputs(self) -> object:
        return self.programs

    def prepare(self, i: int) -> None:
        clear_segment_stores()
        clear_engine_cache()

    def op(self, i: int):
        text, queries = self.programs[i % len(self.programs)]
        engine = WellFoundedEngine(text)
        return tuple(_ask(engine, q, is_open) for q, is_open in queries)

    def verify(self, results: list) -> tuple[int, int]:
        failed = 0
        for i, result in enumerate(results):
            text, queries = self.programs[i % len(self.programs)]
            if text not in self._reference:
                oracle = WellFoundedEngine(
                    text,
                    saturation="scan",
                    incremental=False,
                    segment_cache=False,
                    backend="tuple",
                )
                self._reference[text] = tuple(_ask(oracle, q, o) for q, o in queries)
            failed += result is FAILED or result != self._reference[text]
        return len(results), failed


class ServeChurn(Workload):
    """Scenario traces replayed against warm ``MaterializedEngine``s.

    Why: small state with point writes and reads mixed, so views
    maintenance, the lazy WFS re-solve and query evaluation do the work; the
    chase and rewrite are idle.  The five traces are interleaved event by
    event, so any prefix of the loop has the same scenario mix.
    """

    name = "serve-churn"

    #: every CHECK_STRIDE-th ``!check`` of a trace is verified (and the last)
    CHECK_STRIDE = 60

    def __init__(self, seed: int, quick: bool = False):
        scale, length = (1, 60) if quick else (4, 3000)
        self.bundles = [
            build_scenario(
                name,
                size=get_scenario(name).defaults["size"] * scale,
                seed=seed,
                trace_length=length,
            )
            for name in scenario_names()
        ]
        timed = [[e for e in b.trace if e.kind != "check"] for b in self.bundles]
        self.events: list[tuple[int, int]] = [
            (s, j)
            for j in range(max(map(len, timed)))
            for s in range(len(timed))
            if j < len(timed[s])
        ]
        self._timed = timed
        self.cycle = len(self.events)
        self._reference: tuple | None = None

    def inputs(self) -> object:
        return [(_program_text(b.program, b.database), b.trace) for b in self.bundles]

    def setup(self) -> None:
        self.targets = [MaterializedTarget(b, backend="columnar") for b in self.bundles]
        for target in self.targets:
            target.engine.model()

    def teardown(self) -> None:
        self.targets = []

    def prepare(self, i: int) -> None:
        if i and i % self.cycle == 0:
            self.teardown()
            self.setup()  # every pass replays the traces from the start

    def kind(self, i: int) -> str:
        s, j = self.events[i % self.cycle]
        return "update" if self._timed[s][j].is_update else "query"

    def op(self, i: int):
        s, j = self.events[i % self.cycle]
        report = replay.replay_trace([self._timed[s][j]], self.targets[s])
        return report.records[-1].detail

    def _replay_reference(self) -> tuple[list, int, int]:
        """Replay each trace with sampled ``!check`` against ``scratch_model()``."""
        answers: list[list] = []
        checks = diverged = 0
        for bundle in self.bundles:
            check_at = [i for i, e in enumerate(bundle.trace) if e.kind == "check"]
            keep = set(check_at[:: self.CHECK_STRIDE]) | set(check_at[-1:])
            events = [
                e for i, e in enumerate(bundle.trace) if e.kind != "check" or i in keep
            ]
            target = MaterializedTarget(bundle, backend="columnar")
            report = replay.replay_trace(events, target, check=True)
            answers.append([r.detail for r in report.records if r.kind != "check"])
            checks += report.checks
            diverged += len(report.divergences)
        return answers, checks, diverged

    def verify(self, results: list) -> tuple[int, int]:
        if self._reference is None:
            self._reference = self._replay_reference()
        answers, checks, diverged = self._reference
        failed = diverged
        for i, result in enumerate(results):
            s, j = self.events[i % self.cycle]
            failed += result is FAILED or result != answers[s][j]
        return len(results) + checks, failed


class BulkLoad(Workload):
    """A 10^5-fact EDB loaded cold, then single-fact updates each followed by a query.

    Why: the same views and WFS layers as serve-churn, but one bulk write
    plus point writes on a state far larger than each delta, so costs that
    scale with total state show here.  Even operations toggle a core-chain
    edge (a DRed ripple down the chain); odd ones a background edge (none).
    """

    name = "bulk-load"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.rules, self.facts = large_edb_reachability(2_000 if quick else 100_000, seed=seed)
        self.core = sorted(
            (f for f in self.facts if f.predicate == "edge" and f.args[0].name.startswith("k")),
            key=lambda f: int(f.args[0].name[1:]),
        )
        self.background = [
            f for f in self.facts if f.predicate == "edge" and f.args[0].name.startswith("b")
        ]
        self.cycle = 20 if quick else 50

    def inputs(self) -> object:
        return self.facts

    def setup(self) -> None:
        self.engine = MaterializedEngine(self.rules, self.facts, backend="columnar")
        self.engine.model()
        self._rng = random.Random(self.seed)
        self._missing_core: set[int] = set()
        self._missing_background: set[Atom] = set()
        self.expected: list[bool] = []

    def prepare(self, i: int) -> None:
        rng = self._rng
        if i % 2 == 0:
            index = rng.randrange(len(self.core))
            edge, missing, key = self.core[index], self._missing_core, index
        else:
            edge = rng.choice(self.background)
            missing, key = self._missing_background, edge
        insert = key in missing
        (missing.discard if insert else missing.add)(key)
        node = rng.randrange(len(self.core) + 1)
        reachable = all(m >= node for m in self._missing_core)
        positive = rng.random() < 0.5
        self._next = (
            edge,
            insert,
            f"? {'reach' if positive else 'unreachable'}(k{node})",
        )
        self.expected.append(reachable if positive else not reachable)

    def teardown(self) -> None:
        self.engine = None

    def op(self, i: int):
        edge, insert, query = self._next
        if insert:
            self.engine.add_facts(edge)
        else:
            self.engine.retract_facts(edge)
        return self.engine.holds(query)

    def verify(self, results: list) -> tuple[int, int]:
        failed = sum(
            result is FAILED or result != expected
            for result, expected in zip(results, self.expected)
        )
        # the whole reach core of the final state: k0 .. k<first cut edge>
        cut = min(self._missing_core, default=len(self.core))
        reach = {(Constant(f"k{n}"),) for n in range(cut + 1)}
        failed += self.engine.answer("? reach(X)") != reach
        return len(results) + 1, failed


class GoalDirected(Workload):
    """One seeded selective query per fresh engine, answered by magic rewriting.

    Why: magic rewriting and columnar grounding of the restricted program do
    the work and the chase is bypassed: the control for chase optimisations.
    """

    name = "goal-directed"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.chains, self.length = (8, 6) if quick else (64, 24)
        self.program, self.database = chain_reachability_workload(self.chains, self.length)
        self.cycle = 20 if quick else 100

    def inputs(self) -> object:
        rng = random.Random(self.seed)
        return [self._draw(rng) for _ in range(self.cycle)]

    def _draw(self, rng: random.Random) -> tuple[str, bool]:
        chain, node = rng.randrange(self.chains), rng.randrange(self.length + 1)
        positive = rng.random() < 0.5
        predicate = "reach" if positive else "unreachable"
        # every chain node is reachable from its chain's source
        return f"? {predicate}(c{chain}_{node})", positive

    def setup(self) -> None:
        self._rng = random.Random(self.seed)
        self.expected: list[bool] = []

    def prepare(self, i: int) -> None:
        self._query, expected = self._draw(self._rng)
        self.expected.append(expected)

    def op(self, i: int):
        engine = WellFoundedEngine(self.program, self.database, rewrite=True)
        return engine.holds(self._query)

    def verify(self, results: list) -> tuple[int, int]:
        failed = sum(
            result is FAILED or result != expected
            for result, expected in zip(results, self.expected)
        )
        return len(results), failed


WORKLOADS = {w.name: w for w in (ColdAnswer, ServeChurn, BulkLoad, GoalDirected)}
