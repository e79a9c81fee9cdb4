"""The ``repro scenarios`` sub-command: list, run, record and replay workloads.

Dispatched from :func:`repro.cli.main` when the first argument is
``scenarios``::

    python -m repro scenarios list [--verbose]
    python -m repro scenarios run NAME [--backend B --rewrite] [overrides]
    python -m repro scenarios record NAME --out trace.txt [overrides]
    python -m repro scenarios replay NAME [--trace FILE --engine E --check]

``run`` answers the scenario's bundled queries one-shot (a smoke of the
workload); ``record`` replays the scenario's seeded trace against a warm
maintained engine and writes it back with every query's answer pinned as an
``!expect`` checkpoint; ``replay`` drives a trace against a warm
:class:`~repro.views.MaterializedEngine` (or the ``rebuild`` cold baseline)
and prints per-event-kind latency percentiles, cache hit-rates and any
divergence.  Exit codes follow the main CLI: 0 clean, 2 usage/parse errors,
3 checkpoint divergence.

Builder overrides (``--size``, ``--seed``, ``--length``) apply when the
scenario's builder has the matching parameter; sizes stay at the registered
defaults otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..cli import _format_query_stats
from ..core.engine import WellFoundedEngine
from ..exceptions import ReproError
from ..lp.columnar import BACKENDS
from .registry import build_scenario, get_scenario, scenario_names
from .replay import answer_text, build_target, record_trace, replay_scenario
from .trace import format_trace, parse_trace

__all__ = ["build_scenarios_parser", "scenarios_main"]


def build_scenarios_parser() -> argparse.ArgumentParser:
    """The ``repro scenarios`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description=(
            "Named workload scenarios: realistic rule bases with seeded "
            "update/query traces, replayable against a warm engine."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    verbs.add_parser("list", help="list registered scenarios").add_argument(
        "--verbose", action="store_true", help="also print parameters and tags"
    )

    def common(sub: argparse.ArgumentParser, *, trace_options: bool) -> None:
        sub.add_argument("name", help="a registered scenario name")
        sub.add_argument(
            "--size", type=int, default=None, help="override the scenario size"
        )
        sub.add_argument(
            "--seed", type=int, default=None, help="override the workload seed"
        )
        sub.add_argument(
            "--backend",
            choices=BACKENDS,
            default="columnar",
            help="grounding backend (answers are backend-invariant)",
        )
        if trace_options:
            sub.add_argument(
                "--length",
                type=int,
                default=None,
                help="override the generated trace length (number of events)",
            )

    run = verbs.add_parser("run", help="answer the scenario's queries one-shot")
    common(run, trace_options=False)
    run.add_argument(
        "--rewrite",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="answer goal-directedly via magic-sets rewriting",
    )
    run.add_argument(
        "--verbose", action="store_true", help="print per-query statistics"
    )

    record = verbs.add_parser(
        "record",
        help="replay the scenario's trace and pin answers as !expect checkpoints",
    )
    common(record, trace_options=True)
    record.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the recorded trace here (default: stdout)",
    )

    replay = verbs.add_parser(
        "replay", help="drive a warm engine through a trace, report latencies"
    )
    common(replay, trace_options=True)
    replay.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="replay this trace file instead of the scenario's generated one",
    )
    replay.add_argument(
        "--engine",
        choices=["materialized", "rebuild"],
        default="materialized",
        help="warm maintained engine (default) or the rebuild-per-update baseline",
    )
    replay.add_argument(
        "--check",
        action="store_true",
        help="verify maintained ≡ from-scratch oracle at every !check checkpoint",
    )
    replay.add_argument(
        "--think",
        action="store_true",
        help="honor @think annotations by sleeping (excluded from latencies)",
    )
    replay.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also dump the replay report summary as JSON",
    )
    replay.add_argument(
        "--verbose", action="store_true", help="print every event's answer/latency"
    )
    return parser


def _overrides(args) -> dict:
    """Builder overrides from CLI flags, restricted to supported parameters."""
    scenario = get_scenario(args.name)
    overrides = {}
    mapping = {
        "size": getattr(args, "size", None),
        "seed": getattr(args, "seed", None),
        "trace_length": getattr(args, "length", None),
    }
    for key, value in mapping.items():
        if value is not None:
            if key not in scenario.defaults:
                raise SystemExit(
                    f"error: scenario {args.name!r} has no {key!r} parameter"
                )
            overrides[key] = value
    return overrides


def _ms(seconds) -> str:
    if seconds is None:  # a kind with zero samples has no percentiles
        return "n/a"
    return f"{seconds * 1000:.2f}ms"


def _print_latency_line(label: str, summary: dict) -> None:
    print(
        f"# {label}: n={summary['count']} p50={_ms(summary['p50_seconds'])} "
        f"p95={_ms(summary['p95_seconds'])} p99={_ms(summary['p99_seconds'])} "
        f"total={summary['total_seconds']:.4f}s"
    )


def _cmd_list(args) -> int:
    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"{name}: {scenario.description}")
        if args.verbose:
            print(f"  params: {dict(scenario.defaults)}")
            print(f"  tags: {sorted(scenario.tags)}")
    return 0


def _cmd_run(args) -> int:
    bundle = build_scenario(args.name, **_overrides(args))
    engine = WellFoundedEngine(
        bundle.program,
        bundle.database,
        rewrite=args.rewrite,
        backend=args.backend,
    )
    for text in bundle.queries:
        print(f"{text} : {answer_text(engine, text)}")
        if args.verbose and engine.last_query_stats is not None:
            print(f"#   {_format_query_stats(engine.last_query_stats)}")
    return 0


def _cmd_record(args) -> int:
    bundle = build_scenario(args.name, **_overrides(args))
    target = build_target(bundle, backend=args.backend)
    recorded, report = record_trace(bundle.trace, target)
    text = format_trace(
        recorded,
        header=(
            f"scenario {bundle.name} (params {dict(bundle.params)}), "
            f"recorded with backend={args.backend}"
        ),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"# recorded {len(recorded)} events "
            f"({report.events} replayed) to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return report.exit_code


def _cmd_replay(args) -> int:
    overrides = _overrides(args)
    events = None
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as handle:
                events = parse_trace(handle.read())
        except OSError as error:
            raise SystemExit(f"error: cannot read {args.trace}: {error}")
    bundle, report = replay_scenario(
        args.name,
        engine=args.engine,
        backend=args.backend,
        check=args.check,
        trace=events,
        honor_think=args.think,
        **overrides,
    )
    if args.verbose:
        for record in report.records:
            status = "ok" if record.ok else "DIVERGED"
            print(
                f"# {record.kind:<8} {_ms(record.seconds):>10} {status} "
                f"{record.detail}"
            )
    summary = report.summary()
    print(
        f"# replayed {report.events} events of scenario '{bundle.name}' "
        f"(engine={args.engine}, backend={args.backend})"
    )
    _print_latency_line("updates", summary["updates"])
    _print_latency_line("queries", summary["queries"])
    hit_rate = report.query_cache_hit_rate
    hit_text = f"{hit_rate:.2f}" if hit_rate is not None else "n/a"
    print(
        f"# checkpoints: {report.checks} differential, {report.expects} expected-"
        f"answer; query cache hit-rate: {hit_text}"
    )
    for divergence in report.divergences:
        print(f"# DIVERGENCE {divergence}", file=sys.stderr)
    if args.json:
        summary["scenario"] = bundle.name
        summary["params"] = dict(bundle.params)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"# wrote {args.json}")
    return report.exit_code


def scenarios_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro scenarios ...``."""
    parser = build_scenarios_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "list":
            return _cmd_list(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "record":
            return _cmd_record(args)
        if args.verb == "replay":
            return _cmd_replay(args)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled verb {args.verb!r}")  # pragma: no cover
