"""The trace format: a line-oriented log of update/query events with checkpoints.

A *trace* is the unit of replayable workload in the scenario corpus: a plain
text file, one event per line, that drives a warm engine through a recorded
session of fact updates and queries.  The grammar is a **superset** of the
``--updates`` script format introduced with :class:`repro.views.MaterializedEngine`
(every ``.upd`` script is a valid trace)::

    % comment                      # '%' or '#' to end of line
    + edge(a, b).                  % insert a fact
    - edge(a, b).                  % retract a fact
    ? reach(X), not blocked(X)     % query the maintained model
    @think 0.05                    % client think time in seconds (replay may honor)
    !check                         % differential checkpoint: maintained model
                                   %   must equal the from-scratch oracle
    !expect ? reach(X) => (a) (b)  % expected-answer checkpoint: the query's
                                   %   rendered answer must equal the recorded one

The rendered answer after ``=>`` uses the CLI's conventions: sorted
``(t1, t2)`` tuples joined by single spaces for open queries, ``no answers``
when empty, and ``yes``/``no`` for Boolean queries.  ``!expect`` lines are what
``repro scenarios record`` emits — they turn a trace into a self-checking
regression artifact that replays without the (slow) from-scratch oracle.

Constants containing spaces or comment characters do not survive the
line-oriented round trip; scenario constants are plain identifiers.

:func:`generate_trace` is the seeded workload generator: given a pool of
*dynamic* facts and a query mix it emits a deterministic random interleaving
of inserts, retracts and queries punctuated by ``!check`` checkpoints — the
shape every registered scenario uses to build its bundled trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..exceptions import ParseError
from ..lang.atoms import Atom
from ..lang.parser import parse_atom, parse_query

__all__ = [
    "TraceEvent",
    "insert_event",
    "retract_event",
    "query_event",
    "think_event",
    "check_event",
    "expect_event",
    "parse_trace",
    "parse_trace_line",
    "format_event",
    "format_trace",
    "generate_trace",
    "render_query",
]

#: Event kinds, in the order they appear in reports.
KINDS = ("insert", "retract", "query", "expect", "check", "think")


@dataclass(frozen=True)
class TraceEvent:
    """One line of a trace.

    ``kind`` is one of :data:`KINDS`; the payload fields used depend on it:
    ``atom`` for ``insert``/``retract``, ``query`` (canonical ``? ...`` text)
    for ``query``/``expect``, ``expected`` (rendered answer) for ``expect``,
    ``seconds`` for ``think``.  ``lineno`` is the 1-based source line when the
    event was parsed from text (0 for generated events); it is excluded from
    equality so parse/format round trips compare clean.
    """

    kind: str
    atom: Optional[Atom] = None
    query: Optional[str] = None
    expected: Optional[str] = None
    seconds: float = 0.0
    lineno: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace event kind {self.kind!r}")

    @property
    def is_update(self) -> bool:
        """Does this event mutate the database?"""
        return self.kind in ("insert", "retract")


def render_query(query) -> str:
    """The canonical ``? ...`` text of a query (string or NBCQ)."""
    if isinstance(query, str):
        query = parse_query(query)
    return "? " + ", ".join(str(literal) for literal in query.literals())


def insert_event(atom, lineno: int = 0) -> TraceEvent:
    """An insert event (``+ fact.``); *atom* may be text."""
    if isinstance(atom, str):
        atom = parse_atom(atom)
    return TraceEvent("insert", atom=atom, lineno=lineno)


def retract_event(atom, lineno: int = 0) -> TraceEvent:
    """A retract event (``- fact.``); *atom* may be text."""
    if isinstance(atom, str):
        atom = parse_atom(atom)
    return TraceEvent("retract", atom=atom, lineno=lineno)


def query_event(query, lineno: int = 0) -> TraceEvent:
    """A query event (``? query``); the text is canonicalised by parsing."""
    return TraceEvent("query", query=render_query(query), lineno=lineno)


def think_event(seconds: float, lineno: int = 0) -> TraceEvent:
    """A think-time annotation (``@think SECONDS``)."""
    return TraceEvent("think", seconds=float(seconds), lineno=lineno)


def check_event(lineno: int = 0) -> TraceEvent:
    """A differential checkpoint (``!check``)."""
    return TraceEvent("check", lineno=lineno)


def expect_event(query, expected: str, lineno: int = 0) -> TraceEvent:
    """An expected-answer checkpoint (``!expect ? query => rendered``)."""
    return TraceEvent(
        "expect", query=render_query(query), expected=expected, lineno=lineno
    )


def parse_trace_line(line: str, lineno: int = 0) -> Optional[TraceEvent]:
    """Parse one raw trace line; ``None`` for blank/comment-only lines.

    Raises :class:`~repro.exceptions.ParseError` on malformed lines, with the
    line number in the message.
    """
    # Strip '%'/'#' comments, except inside !expect payloads, where the
    # rendered answer is the rest of the line.
    stripped = line.strip()
    if not stripped.startswith("!expect"):
        stripped = line.split("%", 1)[0].split("#", 1)[0].strip()
    if not stripped:
        return None
    try:
        if stripped[0] == "+":
            return insert_event(stripped[1:].strip().rstrip("."), lineno)
        if stripped[0] == "-":
            return retract_event(stripped[1:].strip().rstrip("."), lineno)
        if stripped[0] == "?":
            return query_event(stripped, lineno)
        if stripped.startswith("@think"):
            return think_event(float(stripped[len("@think"):].strip()), lineno)
        if stripped == "!check":
            return check_event(lineno)
        if stripped.startswith("!expect"):
            payload = stripped[len("!expect"):].strip()
            if "=>" not in payload:
                raise ParseError("!expect needs '? query => rendered-answer'")
            query_text, expected = payload.split("=>", 1)
            return expect_event(query_text.strip(), expected.strip(), lineno)
    except (ParseError, ValueError) as error:
        raise ParseError(f"line {lineno}: {error}") from error
    raise ParseError(
        f"line {lineno}: expected '+fact.', '-fact.', '? query', '@think s', "
        f"'!check' or '!expect ...', got {stripped!r}"
    )


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a whole trace file into its events (blank/comment lines dropped)."""
    events: list[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        event = parse_trace_line(line, lineno)
        if event is not None:
            events.append(event)
    return events


def format_event(event: TraceEvent) -> str:
    """The canonical single-line rendering of an event (inverse of parsing)."""
    if event.kind == "insert":
        return f"+ {event.atom}."
    if event.kind == "retract":
        return f"- {event.atom}."
    if event.kind == "query":
        return event.query
    if event.kind == "think":
        return f"@think {event.seconds:g}"
    if event.kind == "check":
        return "!check"
    if event.kind == "expect":
        return f"!expect {event.query} => {event.expected}"
    raise ValueError(f"unknown trace event kind {event.kind!r}")  # pragma: no cover


def format_trace(events: Iterable[TraceEvent], *, header: str = "") -> str:
    """Render events as trace text; ``parse_trace`` inverts it exactly."""
    lines = [f"% {line}" for line in header.splitlines()] if header else []
    lines.extend(format_event(event) for event in events)
    return "\n".join(lines) + "\n"


def generate_trace(
    dynamic_facts: Sequence[Atom],
    queries: Sequence[str],
    *,
    length: int = 60,
    seed: int = 0,
    initially_present: Iterable[Atom] = (),
    query_ratio: float = 0.35,
    checkpoint_every: int = 10,
    think_time: float = 0.0,
) -> list[TraceEvent]:
    """A deterministic random interleaving of updates, queries and checkpoints.

    ``dynamic_facts`` is the pool of facts the trace may toggle;
    ``initially_present`` names the pool members already in the database when
    replay starts (a pool fact currently present is retracted, an absent one
    inserted, so the trace is always replayable from that state).  With
    probability ``query_ratio`` an event is instead a query drawn from
    ``queries``.  Every ``checkpoint_every`` events a ``!check`` differential
    checkpoint is emitted (and one final checkpoint at the end).  A positive
    ``think_time`` precedes each event with an ``@think`` annotation jittered
    uniformly in ``[0.5, 1.5] * think_time``.  Deterministic given *seed*.
    """
    if not dynamic_facts and not queries:
        raise ValueError("generate_trace needs a fact pool or queries")
    rng = random.Random(seed)
    pool = list(dynamic_facts)
    present = set(initially_present) & set(pool)
    events: list[TraceEvent] = []
    since_checkpoint = 0
    for _ in range(length):
        if think_time > 0.0:
            events.append(think_event(think_time * rng.uniform(0.5, 1.5)))
        if queries and (not pool or rng.random() < query_ratio):
            events.append(query_event(rng.choice(queries)))
        else:
            fact = rng.choice(pool)
            if fact in present:
                present.discard(fact)
                events.append(retract_event(fact))
            else:
                present.add(fact)
                events.append(insert_event(fact))
        since_checkpoint += 1
        if checkpoint_every and since_checkpoint >= checkpoint_every:
            events.append(check_event())
            since_checkpoint = 0
    if not events or events[-1].kind != "check":
        events.append(check_event())
    return events
