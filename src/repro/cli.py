"""Command-line interface: load a Datalog± program and answer queries.

Usage (after ``pip install -e .``)::

    python -m repro PROGRAM_FILE [options]

    # answer an NBCQ against the well-founded model
    python -m repro ontology.dlp --query "? isAuthorOf(john, Y)"

    # print the truth value of a ground atom
    python -m repro ontology.dlp --atom "article(pods13)"

    # dump the whole (finite-segment) well-founded model
    python -m repro ontology.dlp --dump-model

The program file uses the textual syntax of :mod:`repro.lang.parser`: NTGDs
written ``body -> head.`` (with ``exists`` for existential head variables and
``not`` for default negation) and plain facts ``atom.``; the facts become the
database.  Additional facts can be supplied from a second file with
``--database``.

The CLI is deliberately thin: it parses, builds a
:class:`~repro.core.engine.WellFoundedEngine`, runs the requested action and
prints plain text, so it can be scripted and diffed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.engine import WellFoundedEngine
from .core.stratified import StratifiedDatalogPM
from .exceptions import NotStratifiedError, ParseError, ReproError
from .lang.parser import parse_atom, parse_database, parse_program
from .lp.columnar import BACKENDS

__all__ = ["build_argument_parser", "main"]


def build_argument_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed separately for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Answer queries over a guarded normal Datalog± program under the "
            "well-founded semantics with the unique name assumption (PODS 2013)."
        ),
    )
    parser.add_argument("program", help="path to the program file (rules and facts)")
    parser.add_argument(
        "--database",
        help="optional path to an extra database file (facts only)",
        default=None,
    )
    parser.add_argument(
        "--query",
        action="append",
        default=[],
        metavar="NBCQ",
        help='an NBCQ such as "? p(X), not q(X)" (repeatable)',
    )
    parser.add_argument(
        "--atom",
        action="append",
        default=[],
        metavar="ATOM",
        help="a ground atom whose truth value should be printed (repeatable)",
    )
    parser.add_argument(
        "--dump-model",
        action="store_true",
        help="print every literal of the (finite-segment) well-founded model",
    )
    parser.add_argument(
        "--stratified",
        action="store_true",
        help="also evaluate the queries under the stratified Datalog± baseline of [1]",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=31,
        help="chase depth budget for the iterative deepening (default: 31)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print model statistics: the plan (finite, with its termination "
        "criterion, or chase, with its depth and convergence) and atom counts",
    )
    parser.add_argument(
        "--rewrite",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "answer --query goal-directedly via magic-sets rewriting "
            "(--no-rewrite forces the classic bottom-up evaluation)"
        ),
    )
    parser.add_argument(
        "--incremental",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "re-solve the well-founded model incrementally across the "
            "iterative-deepening schedule (--no-incremental recomputes it "
            "from scratch at every depth; models are identical either way)"
        ),
    )
    parser.add_argument(
        "--saturation",
        choices=["agenda", "scan"],
        default="agenda",
        help=(
            "chase saturation discipline: the incremental agenda worklist "
            "(default) or the retained breadth-first re-scan; forests and "
            "answers are identical either way"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="columnar",
        help=(
            "grounding backend for the finite plan, the magic-sets query path "
            "and --updates maintenance: bulk columnar hash joins over interned ids "
            "(default) or the per-candidate tuple matcher; ground programs "
            "and answers are identical across backends"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-query grounding statistics (mode, ground-rule counts, fallbacks)",
    )
    parser.add_argument(
        "--updates",
        metavar="FILE",
        default=None,
        help=(
            "replay an update script against a warm materialized view "
            "(repro.views.MaterializedEngine) instead of a one-shot engine: "
            "each line is '+ fact.' (insert), '- fact.' (retract) or "
            "'? query' (answer against the maintained well-founded model); "
            "'%%'/'#' start comments.  --query/--atom/--dump-model then "
            "report against the final maintained state"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "with --updates: after every update, rebuild the model from "
            "scratch and verify the maintained model is identical "
            "(differential oracle; slow, for debugging and CI)"
        ),
    )
    return parser


def _format_query_stats(stats: dict) -> str:
    """One-line ``key=value`` rendering of a query's grounding statistics."""
    parts = []
    for key, value in stats.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _read(path: str) -> str:
    """Read a text file, raising a uniform error message on failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}") from error


def _truth(model, atom) -> str:
    """Three-valued truth of a ground atom in an lp-layer model."""
    if model.is_true(atom):
        return "true"
    if model.is_false(atom):
        return "false"
    return "undefined"


def _run_updates(args) -> int:
    """Replay an update script against a warm :class:`MaterializedEngine`.

    Script syntax, one statement per line (``%``/``#`` start comments)::

        + edge(a, b).      % insert a fact
        - edge(a, b).      % retract a fact
        ? reach(X)         % answer against the maintained model

    The lines are read with the trace parser of :mod:`repro.scenarios.trace`,
    whose grammar extends this one; its other event kinds are rejected here.
    The engine stays warm across the whole script: each update grounds and
    re-solves only what it touched.  With ``--check`` the maintained model is
    verified against a from-scratch rebuild after every update.
    """
    from .scenarios.replay import answer_text
    from .scenarios.trace import format_event, parse_trace_line
    from .views import MaterializedEngine

    program, database = parse_program(_read(args.program))
    if args.database:
        extra = parse_database(_read(args.database))
        database = database.copy()
        database.update(extra)
    engine = MaterializedEngine(program, database, backend=args.backend)
    exit_code = 0

    def check(context: str) -> None:
        nonlocal exit_code
        if args.check and engine.model() != engine.scratch_model():
            print(f"# CHECK FAILED {context}", file=sys.stderr)
            exit_code = 3

    check("after init")
    for lineno, line in enumerate(_read(args.updates).splitlines(), start=1):
        try:
            event = parse_trace_line(line, lineno)
            if event is None:
                continue
            if event.is_update:
                if event.kind == "insert":
                    stats = engine.add_facts(event.atom)
                else:
                    stats = engine.retract_facts(event.atom)
                if args.verbose:
                    print(f"# {format_event(event)} {_format_query_stats(stats)}")
                check(f"after line {lineno}: {format_event(event)}")
            elif event.kind == "query":
                print(f"{event.query} : {answer_text(engine, event.query)}")
            else:
                print(
                    f"error: line {lineno}: expected '+fact.', '-fact.' or "
                    f"'? query', got {format_event(event)!r}",
                    file=sys.stderr,
                )
                exit_code = 2
        except ParseError as error:  # the trace parser names the line itself
            print(f"error: {error}", file=sys.stderr)
            exit_code = 2
        except ReproError as error:
            print(f"error: line {lineno}: {error}", file=sys.stderr)
            exit_code = 2

    model = engine.model()
    for text in args.query:
        try:
            print(f"{text} : {'yes' if engine.holds(text) else 'no'}")
        except ReproError as error:
            print(f"error in query {text!r}: {error}", file=sys.stderr)
            exit_code = 2
    for text in args.atom:
        try:
            print(f"{text} : {_truth(model, parse_atom(text))}")
        except ReproError as error:
            print(f"error in atom {text!r}: {error}", file=sys.stderr)
            exit_code = 2
    if args.verbose:
        print(f"# view: {_format_query_stats(engine.total_stats)}")
    if args.dump_model:
        for atom in sorted(model.true_atoms(), key=lambda a: a.sort_key()):
            print(f"true   {atom}")
        for atom in sorted(model.false_atoms(), key=lambda a: a.sort_key()):
            print(f"false  {atom}")
        for atom in sorted(model.undefined_atoms(), key=lambda a: a.sort_key()):
            print(f"undef  {atom}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    # The scenario corpus has its own verb-structured CLI; dispatch before
    # the flag-style parser sees (and rejects) the sub-command word.
    effective = list(sys.argv[1:] if argv is None else argv)
    if effective and effective[0] == "scenarios":
        from .scenarios.cli import scenarios_main

        return scenarios_main(effective[1:])
    if effective and effective[0] == "analyze":
        from .analysis.cli import analyze_main

        return analyze_main(effective[1:])

    parser = build_argument_parser()
    args = parser.parse_args(argv)

    if args.updates:
        try:
            return _run_updates(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    # The full model is only materialised when something actually needs it
    # (--stats / --atom / --dump-model); with --rewrite, plain --query runs
    # stay goal-directed and never pay for the whole chase segment.
    needs_model = args.stats or args.atom or args.dump_model
    try:
        program, database = parse_program(_read(args.program))
        if args.database:
            extra = parse_database(_read(args.database))
            database = database.copy()
            database.update(extra)
        engine = WellFoundedEngine(
            program,
            database,
            max_depth=args.max_depth,
            rewrite=args.rewrite,
            saturation=args.saturation,
            incremental=args.incremental,
            backend=args.backend,
        )
        model = engine.model() if needs_model else None
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.stats:
        if model.depth is None:  # the finite plan has no chase depth
            criterion = engine.analysis().verdicts["termination_criterion"]
            plan = f"plan=finite criterion={criterion}"
        else:
            plan = f"plan=chase depth={model.depth} converged={model.converged}"
        print(
            f"# model: {plan} "
            f"true={len(model.true_atoms())} false={len(model.false_atoms())} "
            f"undefined={len(model.undefined_atoms())}"
        )

    baseline = None
    if args.stratified:
        try:
            baseline = StratifiedDatalogPM(program, database)
        except NotStratifiedError:
            print("# stratified baseline: program is not stratified", file=sys.stderr)

    exit_code = 0
    for text in args.query:
        try:
            answer = engine.holds(text)
        except ReproError as error:
            print(f"error in query {text!r}: {error}", file=sys.stderr)
            exit_code = 2
            continue
        line = f"{text} : {'yes' if answer else 'no'}"
        if baseline is not None:
            line += f"   [stratified: {'yes' if baseline.holds(text) else 'no'}]"
        print(line)
        if args.verbose and engine.last_query_stats is not None:
            print(f"#   {_format_query_stats(engine.last_query_stats)}")

    for text in args.atom:
        try:
            atom = parse_atom(text)
        except ReproError as error:
            print(f"error in atom {text!r}: {error}", file=sys.stderr)
            exit_code = 2
            continue
        print(f"{text} : {model.value(atom)}")

    if args.dump_model:
        for atom in sorted(model.true_atoms(), key=lambda a: a.sort_key()):
            print(f"true   {atom}")
        for atom in sorted(model.false_atoms(), key=lambda a: a.sort_key()):
            print(f"false  {atom}")
        for atom in sorted(model.undefined_atoms(), key=lambda a: a.sort_key()):
            print(f"undef  {atom}")

    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
