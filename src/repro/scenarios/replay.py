"""The replay client: drive a warm engine with a trace, measure everything.

:func:`replay_trace` walks a list of :class:`~repro.scenarios.trace.TraceEvent`
against a *replay target* and returns a :class:`ReplayReport` with per-event
wall-clock latencies, p50/p95/p99 percentiles per event kind, query
cache-hit rates (read off the uniform ``last_query_stats`` shape both engine
types expose), and every divergence found at a checkpoint:

* ``!check`` events (honored when ``check=True``) compare the maintained
  model against the target's from-scratch differential oracle;
* ``!expect`` events are always verified — the query's rendered answer must
  equal the recorded one.

Two targets cover the serving shapes named in the ROADMAP:

* :class:`MaterializedTarget` — the warm path: one long-lived
  :class:`repro.views.MaterializedEngine` maintained under every update;
* :class:`RebuildTarget` — the cold baseline: updates mutate a database copy
  and the next query pays for a full :class:`repro.core.engine.WellFoundedEngine`
  rebuild (what serving would cost without view maintenance; its ``!check``
  checkpoints are trivially true because the served model *is* the
  from-scratch one, so they are counted but free).

A budget-exhausted update (:class:`~repro.exceptions.GroundingError` from the
engine's ``max_rounds_per_update``/``max_atoms``) raises
:class:`ReplayInterrupted` carrying the partial report and the index of the
interrupted event; re-calling :func:`replay_trace` on ``events[error.index:]``
with the same target resumes losslessly — the staged update inside the
engine completes first, exactly like the engine's own resumable budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..core.engine import WellFoundedEngine
from ..exceptions import GroundingError, ReproError
from ..lang.parser import parse_query
from ..lang.queries import as_conjunctive_query
from ..views import MaterializedEngine
from .registry import ScenarioBundle, build_scenario
from .trace import TraceEvent, expect_event

__all__ = [
    "ReplayInterrupted",
    "EventRecord",
    "ReplayReport",
    "MaterializedTarget",
    "RebuildTarget",
    "build_target",
    "replay_trace",
    "record_trace",
    "replay_scenario",
    "answer_text",
    "percentile",
]


class ReplayInterrupted(ReproError):
    """A budget ran out mid-trace; replay can resume at ``events[index:]``."""

    def __init__(self, message: str, *, index: int, report: "ReplayReport"):
        super().__init__(message)
        self.index = index
        self.report = report


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) of *samples* with linear interpolation.

    ``q=0`` is the minimum and ``q=100`` the maximum, exactly (no
    interpolation artifacts at the edges).  Empty input has no percentiles:
    it raises :class:`ValueError` rather than returning the old silent
    ``nan`` (which is unorderable *and* not valid strict JSON — both failure
    modes surfaced far from the cause).  Callers that aggregate possibly
    empty kinds render ``None`` instead (:meth:`ReplayReport.latency_summary`).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not samples:
        raise ValueError("percentile of an empty sample set is undefined")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    if q == 100.0:
        return ordered[-1]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class EventRecord:
    """One replayed event: what ran, how long it took, whether it diverged."""

    kind: str
    lineno: int
    seconds: float
    ok: bool = True
    detail: str = ""


@dataclass
class ReplayReport:
    """Everything a replay measured; :meth:`summary` is the JSON-ready view."""

    target: str = ""
    records: list[EventRecord] = field(default_factory=list)
    divergences: list[str] = field(default_factory=list)
    checks: int = 0
    expects: int = 0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    think_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """No checkpoint of any kind diverged."""
        return not self.divergences

    @property
    def exit_code(self) -> int:
        """Process exit code for CLI use: 0 clean, 3 divergence (as --check)."""
        return 0 if self.ok else 3

    @property
    def events(self) -> int:
        return len(self.records)

    @property
    def query_cache_hit_rate(self) -> Optional[float]:
        """Hit fraction of the frontier query cache; ``None`` before any query.

        ``None`` (JSON ``null``) rather than ``nan``: the rate flows into
        :meth:`summary`, which must stay strict-JSON serialisable.
        """
        total = self.query_cache_hits + self.query_cache_misses
        return self.query_cache_hits / total if total else None

    def latencies(self, *kinds: str) -> list[float]:
        """Per-event seconds, optionally restricted to the given kinds."""
        return [
            record.seconds
            for record in self.records
            if not kinds or record.kind in kinds
        ]

    def latency_summary(self, *kinds: str) -> dict:
        """count/total and p50/p95/p99/max seconds over the given kinds.

        A kind with zero samples has no latency distribution: its
        percentiles and max render as ``None`` (JSON ``null``) so reports
        stay strict-JSON clean instead of crashing or emitting ``NaN``.
        """
        samples = self.latencies(*kinds)
        if not samples:
            return {
                "count": 0,
                "total_seconds": 0.0,
                "p50_seconds": None,
                "p95_seconds": None,
                "p99_seconds": None,
                "max_seconds": None,
            }
        return {
            "count": len(samples),
            "total_seconds": sum(samples),
            "p50_seconds": percentile(samples, 50),
            "p95_seconds": percentile(samples, 95),
            "p99_seconds": percentile(samples, 99),
            "max_seconds": max(samples),
        }

    def summary(self) -> dict:
        """A JSON-ready aggregate (what the bench and ``--json`` emit)."""
        return {
            "target": self.target,
            "events": self.events,
            "updates": self.latency_summary("insert", "retract"),
            "queries": self.latency_summary("query", "expect"),
            "checkpoints": self.checks,
            "expect_checkpoints": self.expects,
            "query_cache_hit_rate": self.query_cache_hit_rate,
            "think_seconds": self.think_seconds,
            "divergences": list(self.divergences),
            "ok": self.ok,
        }


def _render_answers(answers) -> str:
    """The CLI's rendering of an open query's answer set (sorted tuples)."""
    rendered = sorted(
        "(" + ", ".join(str(term) for term in tup) + ")" for tup in answers
    )
    return " ".join(rendered) if rendered else "no answers"


def answer_text(engine, query_text: str) -> str:
    """The rendered answer of one query on *engine*, in the CLI's conventions.

    An open query without negation renders its answer set (sorted tuples,
    ``no answers`` when empty); a Boolean query, or one with negation,
    renders ``yes`` or ``no``.  *engine* is a
    :class:`~repro.core.engine.WellFoundedEngine` or a
    :class:`~repro.views.MaterializedEngine`.
    """
    query = parse_query(query_text)
    if query.variables() and not query.negative:
        return _render_answers(engine.answer(as_conjunctive_query(query)))
    return "yes" if engine.holds(query) else "no"


def _model_fingerprint(model) -> tuple:
    return (model.true_atoms(), model.false_atoms(), model.undefined_atoms())


class MaterializedTarget:
    """The warm serving path: one maintained engine across the whole trace."""

    name = "materialized"

    def __init__(
        self,
        bundle_or_engine: Union[ScenarioBundle, MaterializedEngine],
        *,
        backend: str = "columnar",
    ):
        if isinstance(bundle_or_engine, MaterializedEngine):
            self.engine = bundle_or_engine
        else:
            self.engine = MaterializedEngine(
                bundle_or_engine.program, bundle_or_engine.database, backend=backend
            )

    def insert(self, atom) -> None:
        self.engine.add_facts(atom)

    def retract(self, atom) -> None:
        self.engine.retract_facts(atom)

    def answer_text(self, query_text: str) -> str:
        """The rendered answer of one trace query (CLI conventions)."""
        return answer_text(self.engine, query_text)

    def query_stats(self) -> Optional[dict]:
        return self.engine.last_query_stats

    def check(self) -> bool:
        """Maintained model ≡ from-scratch oracle (the differential gate)."""
        return _model_fingerprint(self.engine.model()) == _model_fingerprint(
            self.engine.scratch_model()
        )


class RebuildTarget:
    """The cold baseline: every update invalidates a one-shot engine.

    Queries between two updates share one engine (and therefore its model
    cache); the first query after an update pays the full rebuild — the cost
    profile of serving without view maintenance.
    """

    name = "rebuild"

    def __init__(self, bundle: ScenarioBundle, *, backend: str = "columnar"):
        self.program = bundle.program
        self.database = bundle.database.copy()
        self.backend = backend
        self._engine: Optional[WellFoundedEngine] = None
        self.rebuilds = 0
        self.last_query_stats: Optional[dict] = None

    def _current_engine(self) -> WellFoundedEngine:
        if self._engine is None or self._engine.is_stale():
            self._engine = WellFoundedEngine(self.program, self.database, backend=self.backend)
            self.rebuilds += 1
        return self._engine

    def insert(self, atom) -> None:
        self.database.add(atom)

    def retract(self, atom) -> None:
        self.database.discard(atom)

    def answer_text(self, query_text: str) -> str:
        engine = self._current_engine()
        text = answer_text(engine, query_text)
        self.last_query_stats = engine.last_query_stats
        return text

    def query_stats(self) -> Optional[dict]:
        return self.last_query_stats

    def check(self) -> bool:
        """Trivially true: the served model is the from-scratch model."""
        self._current_engine()
        return True


def build_target(
    bundle: ScenarioBundle, *, engine: str = "materialized", backend: str = "columnar"
):
    """A replay target by name: ``"materialized"`` (warm) or ``"rebuild"`` (cold).

    Update budgets are set on the maintained engine itself
    (``target.engine.max_rounds_per_update``); the rebuild engine has none.
    """
    if engine == "materialized":
        return MaterializedTarget(bundle, backend=backend)
    if engine == "rebuild":
        return RebuildTarget(bundle, backend=backend)
    raise ValueError(f"unknown replay engine {engine!r} (materialized|rebuild)")


def replay_trace(
    events: Sequence[TraceEvent],
    target,
    *,
    check: bool = False,
    honor_think: bool = False,
    record: Optional[list[TraceEvent]] = None,
    report: Optional[ReplayReport] = None,
) -> ReplayReport:
    """Replay *events* against *target*; return the filled :class:`ReplayReport`.

    ``check=True`` honors ``!check`` differential checkpoints (slow: each one
    runs the from-scratch oracle); ``!expect`` checkpoints are always
    verified.  ``honor_think=True`` sleeps through ``@think`` annotations
    (excluded from latency).  When *record* is a list, every replayed
    ``query`` event appends a pinned ``!expect`` event to it (and all other
    events are appended unchanged) — the ``record`` verb builds self-checking
    traces this way.  Passing a previous *report* accumulates into it, which
    is how a :class:`ReplayInterrupted` resume keeps one unified report.
    """
    report = report if report is not None else ReplayReport(
        target=getattr(target, "name", type(target).__name__)
    )
    for index, event in enumerate(events):
        if event.kind == "think":
            if honor_think and event.seconds > 0:
                time.sleep(event.seconds)
            report.think_seconds += event.seconds
            if record is not None:
                record.append(event)
            continue

        started = time.perf_counter()
        ok = True
        detail = ""
        try:
            if event.kind == "insert":
                target.insert(event.atom)
            elif event.kind == "retract":
                target.retract(event.atom)
            elif event.kind in ("query", "expect"):
                answer = target.answer_text(event.query)
                stats = target.query_stats() or {}
                if stats.get("cache_hit"):
                    report.query_cache_hits += 1
                else:
                    report.query_cache_misses += 1
                if event.kind == "expect":
                    report.expects += 1
                    if answer != event.expected:
                        ok = False
                        detail = (
                            f"{event.query} answered {answer!r}, trace "
                            f"expected {event.expected!r}"
                        )
                else:
                    detail = answer
            elif event.kind == "check":
                if check:
                    report.checks += 1
                    if not target.check():
                        ok = False
                        detail = "maintained model diverged from the from-scratch oracle"
                else:
                    if record is not None:
                        record.append(event)
                    continue
        except GroundingError as error:
            raise ReplayInterrupted(
                f"budget exhausted at trace line {event.lineno}: {error}",
                index=index,
                report=report,
            ) from error
        elapsed = time.perf_counter() - started

        report.records.append(
            EventRecord(event.kind, event.lineno, elapsed, ok=ok, detail=detail)
        )
        if not ok:
            prefix = f"line {event.lineno}: " if event.lineno else ""
            report.divergences.append(f"{prefix}{detail}")
        if record is not None:
            if event.kind == "query":
                record.append(expect_event(event.query, detail))
            else:
                record.append(event)
    return report


def record_trace(
    events: Sequence[TraceEvent], target, *, check: bool = False
) -> tuple[list[TraceEvent], ReplayReport]:
    """Replay *events* and pin every query's answer as an ``!expect`` checkpoint.

    Returns ``(recorded events, report)``: the recorded trace replays
    anywhere and verifies itself without the from-scratch oracle.  Existing
    ``!expect`` events are re-verified (and kept verbatim), so re-recording a
    recorded trace is idempotent when answers are unchanged.
    """
    recorded: list[TraceEvent] = []
    report = replay_trace(events, target, check=check, record=recorded)
    return recorded, report


def replay_scenario(
    name: str,
    *,
    engine: str = "materialized",
    backend: str = "columnar",
    check: bool = False,
    trace: Optional[Sequence[TraceEvent]] = None,
    honor_think: bool = False,
    **build_overrides,
) -> tuple[ScenarioBundle, ReplayReport]:
    """Build a registered scenario and replay its (or the given) trace."""
    bundle = build_scenario(name, **build_overrides)
    target = build_target(bundle, engine=engine, backend=backend)
    events = bundle.trace if trace is None else trace
    report = replay_trace(events, target, check=check, honor_think=honor_think)
    return bundle, report
