"""The analyzer entry point and the engine planner.

:func:`analyze` is the one call the rest of the codebase (and the ``repro
analyze`` CLI verb) makes: it coerces any program representation the repo
uses — textual source, a :class:`~repro.lang.program.DatalogPMProgram`, a
:class:`~repro.lang.program.NormalProgram`, or a bare rule iterable — runs
the lint rules, the dependency analyzer and the termination hierarchy, and
returns an :class:`~repro.analysis.diagnostics.AnalysisReport` whose
``verdicts`` double as an execution plan:

* ``termination_criterion`` / ``chase_terminates`` — the strongest member of
  the acyclicity hierarchy that accepted the (skolemized) program;
* ``stratified`` / ``negative_cycle`` — whether stratified engines apply,
  with the minimal odd-loop explanation when they do not;
* ``guarded`` — whether the guarded chase machinery applies (NTGD input);
* ``plan`` — the engine knobs: magic rewriting eligibility, whether
  materialized maintenance is safe, and whether evaluation must fall back to
  *run-and-check* (budgeted evaluation with dynamic convergence checks)
  because every static termination test failed.

The verdicts are static and evaluation-free, so calling :func:`analyze` is
always safe — it never grounds, never chases, never loops.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union, cast

from ..exceptions import IllFormedRuleError, ParseError, ReproError
from ..lang.atoms import Atom
from ..lang.program import Database, DatalogPMProgram, NormalProgram, atom_signature
from ..lang.rules import NTGD, NormalRule
from ..lang.skolem import skolemize_program
from .diagnostics import AnalysisReport, Diagnostic, make_report
from .graph import (
    DependencyAnalysis,
    GuardednessProfile,
    analyze_dependencies,
    guardedness_profile,
)
from .lint import lint_rules
from .termination import TerminationVerdict, termination_verdict

__all__ = ["analyze", "plan_engine"]

ProgramLike = Union[
    str,
    DatalogPMProgram,
    NormalProgram,
    Iterable[NormalRule],
    Iterable[NTGD],
]


def analyze(
    program: ProgramLike,
    database: Optional[Union[Database, Iterable[Atom]]] = None,
    *,
    query: Optional[Any] = None,
    queries: Sequence[Any] = (),
) -> AnalysisReport:
    """Statically analyze *program* and return the full report.

    ``database`` (when known) enables the reachability lints and feeds the
    arity check, both of which read only its ``(predicate, arity)``
    signature — cached per version on a :class:`Database`, so analysing an
    unchanged database again visits no fact; ``query``/``queries`` mark
    predicates as consumed.  Textual
    input is parsed with the Datalog± grammar — facts in the text merge into
    the database — and a parse or safety error becomes an ``E102`` finding
    instead of an exception, so the analyzer can always be pointed at
    untrusted source.
    """
    all_queries = list(queries)
    if query is not None:
        all_queries.append(query)
    try:
        ntgds, rules, parsed_facts = _coerce_program(program)
    except (ParseError, IllFormedRuleError, ReproError) as exc:
        diagnostic = Diagnostic("E102", f"program is ill-formed: {exc}")
        return make_report([diagnostic], verdicts={}, summary={})

    # The lints read the facts' (predicate, arity) signature only; a
    # Database caches its own per version, so re-analysing it is free.
    signature: Optional[frozenset[tuple[str, int]]] = None
    facts: Optional[int] = None
    if database is not None or parsed_facts:
        signature, facts = atom_signature(parsed_facts), len(parsed_facts)
        if isinstance(database, Database):
            signature |= database.signature()
            facts += len(database)
        elif database is not None:
            atoms = list(database)
            signature |= atom_signature(atoms)
            facts += len(atoms)

    diagnostics = lint_rules(
        rules, database_signature=signature, queries=all_queries
    )
    dependencies = analyze_dependencies(rules)
    verdict = termination_verdict(rules)
    profile = guardedness_profile(ntgds) if ntgds is not None else None
    diagnostics += _structural_diagnostics(ntgds, dependencies, verdict, profile)

    verdicts = _verdicts(dependencies, verdict, profile)
    summary = {
        "rules": len(rules),
        "predicates": len(dependencies.predicates),
        "facts": facts,
    }
    return make_report(diagnostics, verdicts=verdicts, summary=summary)


def plan_engine(report: AnalysisReport) -> dict[str, Any]:
    """The engine-facing slice of a report's verdicts (always present keys)."""
    plan = dict(report.verdicts.get("plan", {}))
    plan.setdefault("magic_eligible", False)
    plan.setdefault("materializable", False)
    plan.setdefault("run_and_check", True)
    plan.setdefault("stratified_fastpath", False)
    return plan


# -- coercion -----------------------------------------------------------------


def _coerce_program(
    program: ProgramLike,
) -> tuple[Optional[DatalogPMProgram], list[NormalRule], list[Atom]]:
    """Normalise any accepted program form to (NTGDs?, normal rules, facts).

    The termination hierarchy and the lint rules operate on skolemized normal
    rules — the representation the engines actually evaluate; the NTGD view
    is kept when available because guardedness is an NTGD-level property
    (Skolemization erases the guard structure).
    """
    if isinstance(program, str):
        from ..lang.parser import parse_program

        ntgds, database = parse_program(program)
        normal = skolemize_program(ntgds)
        return ntgds, list(normal.rules()), list(database)
    if isinstance(program, DatalogPMProgram):
        normal = skolemize_program(program)
        return program, list(normal.rules()), []
    if isinstance(program, NormalProgram):
        return None, list(program.rules()), []
    items = list(program)
    if items and isinstance(items[0], NTGD):
        ntgds = DatalogPMProgram(cast("list[NTGD]", items))
        normal = skolemize_program(ntgds)
        return ntgds, list(normal.rules()), []
    return None, cast("list[NormalRule]", items), []


# -- structural diagnostics ---------------------------------------------------


def _structural_diagnostics(
    ntgds: Optional[DatalogPMProgram],
    dependencies: DependencyAnalysis,
    verdict: TerminationVerdict,
    profile: Optional[GuardednessProfile],
) -> list[Diagnostic]:
    """Findings derived from the graph and termination analyses."""
    findings: list[Diagnostic] = []
    if not dependencies.stratified and dependencies.negative_cycle is not None:
        loop = " -> ".join(dependencies.negative_cycle)
        findings.append(
            Diagnostic(
                "I303",
                f"negation is not stratified (cycle {loop}); the well-founded "
                "engines handle this, stratified evaluation does not",
                predicate=dependencies.negative_cycle[0],
            )
        )
    if ntgds is not None and profile is not None:
        for index in profile.unguarded_rule_indices:
            rule = ntgds.rules()[index]
            findings.append(
                Diagnostic(
                    "W206",
                    "NTGD has no guard atom covering all universal variables; "
                    "the guarded chase engine will reject the program",
                    rule_index=index,
                    rule=str(rule),
                )
            )
    if verdict.criterion != "function-free":
        findings.append(
            Diagnostic(
                "I304",
                "the functional transformation introduces Skolem functions; "
                "termination depends on the acyclicity hierarchy",
            )
        )
    if not verdict.terminating:
        findings.append(
            Diagnostic(
                "W207",
                "no static termination criterion holds "
                f"({verdict.reason}); evaluation falls back to budgeted "
                "run-and-check",
            )
        )
    return findings


# -- verdicts -----------------------------------------------------------------


def _verdicts(
    dependencies: DependencyAnalysis,
    verdict: TerminationVerdict,
    profile: Optional[GuardednessProfile],
) -> dict[str, Any]:
    guarded: Optional[bool] = None
    guardedness: Optional[dict[str, int]] = None
    if profile is not None:
        guarded = profile.all_guarded
        guardedness = {
            "guarded": profile.guarded,
            "linear": profile.linear,
            "unguarded": profile.unguarded,
        }
    terminates = verdict.terminating
    return {
        "termination_criterion": verdict.criterion,
        "termination_reason": verdict.reason,
        "chase_terminates": terminates,
        "stratified": dependencies.stratified,
        "negative_cycle": (
            list(dependencies.negative_cycle)
            if dependencies.negative_cycle is not None
            else None
        ),
        "strata_count": (
            1 + max(dependencies.strata.values(), default=0)
            if dependencies.strata is not None and dependencies.strata
            else (1 if dependencies.strata is not None else None)
        ),
        "recursive": dependencies.recursive,
        "guarded": guarded,
        "guardedness": guardedness,
        "existential": verdict.criterion != "function-free",
        "plan": {
            "magic_eligible": terminates,
            "materializable": terminates,
            "run_and_check": not terminates,
            "stratified_fastpath": dependencies.stratified,
        },
    }
