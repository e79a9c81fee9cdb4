"""The trace grammar and the replay client: round trips, checkpoints, budgets.

The trace format is a strict superset of the ``--updates`` script grammar
(PR 7): every ``.upd`` script parses as a trace, and the extensions —
``@think`` annotations, ``!check`` differential checkpoints and ``!expect``
expected-answer checkpoints — round-trip exactly through
``format_trace``/``parse_trace``.  The replay client must reproduce recorded
answers bit-for-bit, flag tampered expectations with the divergence exit
code, and resume losslessly after a budget interruption.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ParseError
from repro.lang.parser import parse_atom, parse_program
from repro.lang.program import Database
from repro.scenarios import (
    ReplayInterrupted,
    ReplayReport,
    ScenarioBundle,
    build_target,
    check_event,
    expect_event,
    format_trace,
    generate_trace,
    insert_event,
    parse_trace,
    parse_trace_line,
    percentile,
    query_event,
    record_trace,
    replay_trace,
    retract_event,
    think_event,
)

# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_every_updates_script_is_a_valid_trace():
    """PR 7 ``.upd`` back-compat: the old grammar parses unchanged."""
    script = """
    % warm-up inserts
    + edge(a, b).   % trailing comment
    + edge(b, c).   # hash comments too
    - edge(a, b).
    ? reach(X), not blocked(X)
    """
    events = parse_trace(script)
    assert [event.kind for event in events] == ["insert", "insert", "retract", "query"]
    assert events[0].atom == parse_atom("edge(a, b)")
    assert events[3].query == "? reach(X), not blocked(X)"


def test_extended_events_parse():
    events = parse_trace(
        "@think 0.25\n!check\n!expect ? win(X) => (a) (b)\n!expect ? win(a) => yes\n"
    )
    assert events[0] == think_event(0.25)
    assert events[1] == check_event()
    assert events[2] == expect_event("? win(X)", "(a) (b)")
    assert events[3].expected == "yes"


def test_expect_payload_is_not_comment_stripped():
    # '#' may legitimately appear nowhere in our constants, but the payload
    # after '=>' must survive verbatim either way
    event = parse_trace_line("!expect ? p(X) => no answers")
    assert event.expected == "no answers"


def test_round_trip_is_exact():
    events = [
        insert_event("edge(a, b)"),
        retract_event("edge(a, b)"),
        query_event("? reach(X)"),
        think_event(0.05),
        check_event(),
        expect_event("? reach(X)", "(a) (b)"),
    ]
    text = format_trace(events, header="round-trip fixture")
    assert text.startswith("% round-trip fixture\n")
    assert parse_trace(text) == events
    # and formatting the re-parse reproduces the text (idempotent)
    assert format_trace(parse_trace(text), header="round-trip fixture") == text


@pytest.mark.parametrize(
    "line",
    [
        "!expect ? p(X)",  # missing =>
        "wat",
        "@think soon",
        "+ not_an_atom((",
        "+ edge(c, X).",  # updates take ground facts only
        "- edge(c, X).",
    ],
)
def test_malformed_lines_raise_parse_errors(line):
    with pytest.raises(ParseError, match="^line 7: "):
        parse_trace_line(line, 7)


def test_parse_errors_carry_the_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_trace("+ a(b).\n+ a(c).\nwat\n")


def test_unknown_event_kind_is_rejected():
    from repro.scenarios import TraceEvent

    with pytest.raises(ValueError):
        TraceEvent("mystery")


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def test_generate_trace_is_deterministic_and_balanced():
    pool = [parse_atom(f"alert(s{i})") for i in range(6)]
    queries = ["? alert(X)"]
    first = generate_trace(pool, queries, length=40, seed=3)
    assert first == generate_trace(pool, queries, length=40, seed=3)
    assert first != generate_trace(pool, queries, length=40, seed=4)
    # toggling discipline: an insert of a fact can only follow its retract
    present = set()
    for event in first:
        if event.kind == "insert":
            assert event.atom not in present
            present.add(event.atom)
        elif event.kind == "retract":
            assert event.atom in present
            present.discard(event.atom)
    assert first[-1].kind == "check"


def test_generate_trace_respects_initially_present():
    pool = [parse_atom("a(x)"), parse_atom("a(y)")]
    trace = generate_trace(
        pool, [], length=6, seed=0, initially_present=pool, checkpoint_every=0
    )
    # everything starts present, so the first touch of each fact is a retract
    first_touch = {}
    for event in trace:
        if event.is_update:
            first_touch.setdefault(event.atom, event.kind)
    assert set(first_touch.values()) == {"retract"}


def test_generate_trace_think_time_annotations():
    pool = [parse_atom("a(x)")]
    trace = generate_trace(pool, [], length=5, seed=0, think_time=0.01)
    thinks = [event for event in trace if event.kind == "think"]
    assert len(thinks) == 5
    assert all(0.005 <= event.seconds <= 0.015 for event in thinks)


def test_generate_trace_needs_some_workload():
    with pytest.raises(ValueError):
        generate_trace([], [], length=5)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------


def test_percentile_interpolates():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 50) == 2.5
    assert percentile([7.0], 95) == 7.0


def test_percentile_edges():
    # q=0 / q=100 are exactly min/max, including on unsorted input
    samples = [3.0, 1.0, 4.0, 2.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile([5.0], 0) == 5.0
    assert percentile([5.0], 100) == 5.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValueError, match="0, 100"):
        percentile([1.0], -1)
    with pytest.raises(ValueError, match="0, 100"):
        percentile([1.0], 101)


def test_latency_summary_renders_none_for_empty_kinds():
    report = ReplayReport(target="unit")
    summary = report.latency_summary("insert", "retract")
    assert summary["count"] == 0
    assert summary["total_seconds"] == 0.0
    assert summary["p50_seconds"] is None
    assert summary["p95_seconds"] is None
    assert summary["p99_seconds"] is None
    assert summary["max_seconds"] is None
    # the aggregate view must stay strict-JSON serialisable (no NaN)
    text = json.dumps(report.summary(), allow_nan=False)
    assert '"p50_seconds": null' in text


# ---------------------------------------------------------------------------
# record -> file -> replay round trip
# ---------------------------------------------------------------------------

_CHAIN_RULES = """
source(X) -> reach(X).
edge(X, Y), reach(X) -> reach(Y).
sink(X), not reach(X) -> dark(X).
"""


def chain_bundle(length=6) -> ScenarioBundle:
    program, _ = parse_program(_CHAIN_RULES)
    facts = [parse_atom(f"edge(n{i}, n{i + 1})") for i in range(length - 1)]
    facts.append(parse_atom(f"sink(n{length - 1})"))
    facts.append(parse_atom("source(n0)"))
    return ScenarioBundle(
        name="chain-fixture",
        description="reachability chain used by the replay unit tests",
        program=program,
        database=Database(facts),
        queries=("? reach(X)", "? dark(X)"),
        trace=(),
        dynamic_facts=(parse_atom("source(n0)"),),
        initially_present=(parse_atom("source(n0)"),),
    )


def test_record_to_file_to_replay_reproduces_answers(tmp_path):
    bundle = chain_bundle()
    trace = [
        query_event("? reach(X)"),
        retract_event("source(n0)"),
        query_event("? reach(X)"),
        query_event("? dark(X)"),
        insert_event("source(n0)"),
        query_event("? dark(X)"),
        check_event(),
    ]
    recorded, report = record_trace(trace, build_target(bundle), check=True)
    assert report.ok and report.checks == 1
    # queries became pinned expectations; everything else survives verbatim
    assert [e.kind for e in recorded] == [
        "expect", "retract", "expect", "expect", "insert", "expect", "check",
    ]

    path = tmp_path / "chain.trace"
    path.write_text(format_trace(recorded, header="chain fixture"))
    replayed = replay_trace(
        parse_trace(path.read_text()), build_target(bundle), check=True
    )
    assert replayed.ok
    assert replayed.exit_code == 0
    assert replayed.expects == 4


def test_tampered_expectation_reports_divergence(tmp_path):
    bundle = chain_bundle()
    recorded, _ = record_trace(
        [query_event("? reach(X)")], build_target(bundle)
    )
    path = tmp_path / "tampered.trace"
    path.write_text(format_trace(recorded).replace("(n0)", "(n9)"))
    report = replay_trace(parse_trace(path.read_text()), build_target(bundle))
    assert not report.ok
    assert report.exit_code == 3
    assert "expected" in report.divergences[0]


def test_rerecording_a_recorded_trace_is_idempotent():
    bundle = chain_bundle()
    trace = [query_event("? reach(X)"), retract_event("source(n0)"), query_event("? dark(X)")]
    once, _ = record_trace(trace, build_target(bundle))
    twice, report = record_trace(once, build_target(bundle))
    assert report.ok
    assert twice == once


def test_boolean_queries_record_yes_no():
    bundle = chain_bundle()
    recorded, _ = record_trace(
        [query_event("? reach(n1)"), retract_event("source(n0)"), query_event("? reach(n1)")],
        build_target(bundle),
    )
    assert recorded[0].expected == "yes"
    assert recorded[2].expected == "no"


# ---------------------------------------------------------------------------
# budget interruption and lossless resume
# ---------------------------------------------------------------------------


def long_chain_trace():
    return [
        retract_event("source(n0)"),
        query_event("? reach(X)"),
        insert_event("source(n0)"),
        query_event("? reach(X)"),
        check_event(),
    ]


def test_budget_interrupted_replay_resumes_losslessly():
    bundle = chain_bundle(length=14)
    reference = replay_trace(
        long_chain_trace(), build_target(bundle), check=True
    )
    assert reference.ok

    # A tiny per-update round budget imposed *after* the initial load:
    # re-inserting source(n0) must re-derive the whole chain, which cannot
    # fit in one round.
    target = build_target(bundle)
    target.engine.max_rounds_per_update = 1
    events = long_chain_trace()
    with pytest.raises(ReplayInterrupted) as error_info:
        replay_trace(events, target, check=True)
    error = error_info.value
    assert error.index < len(events)
    partial = error.report

    # Lift the budget and resume from the interrupted event with the same
    # target and report: the staged update completes first, then the tail
    # replays — answers identical to the uninterrupted run.
    target.engine.max_rounds_per_update = None
    resumed = replay_trace(
        events[error.index:], target, check=True, report=partial
    )
    assert resumed is partial
    assert resumed.ok, resumed.divergences
    assert [r.detail for r in resumed.records if r.kind == "query"] == [
        r.detail for r in reference.records if r.kind == "query"
    ]
    assert resumed.checks == reference.checks


def test_think_events_are_tallied_not_timed():
    bundle = chain_bundle()
    report = replay_trace(
        [think_event(0.5), query_event("? reach(n0)")],
        build_target(bundle),
    )
    # not honored by default: no sleeping, but the annotation is accounted
    assert report.think_seconds == 0.5
    assert all(record.kind != "think" for record in report.records)
    assert report.latency_summary("query")["count"] == 1
