"""Unit tests for the static-analysis subsystem (:mod:`repro.analysis`).

Covers the diagnostics framework (stable codes, ordering, exit codes), the
lint rules, the dependency-graph analyzer with its minimal negative-cycle
witness, the chase-termination hierarchy (with one pinned program per strict
widening step), the planner verdicts, the engine integrations (magic
eligibility widened to joint/super-weak acyclicity, the materialized-engine
termination gate) and the ``repro analyze`` CLI verb.  Every registered
scenario is run through the analyzer as a regression corpus.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    CODE_TABLE,
    AnalysisReport,
    Diagnostic,
    Severity,
    TerminationVerdict,
    analyze,
    analyze_dependencies,
    guardedness_profile,
    is_jointly_acyclic,
    is_super_weakly_acyclic,
    is_weakly_acyclic,
    lint_rules,
    make_report,
    negative_cycle_witness,
    plan_engine,
    termination_verdict,
    weak_acyclicity_violation,
)
from repro.analysis.cli import analyze_main
from repro.core.engine import WellFoundedEngine
from repro.exceptions import AnalysisError
from repro.lang.atoms import Atom, pos
from repro.lang.parser import parse_atom, parse_normal_program, parse_program, parse_query
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, Variable
from repro.rewrite.magic import rewrite_for_query, _weak_acyclicity_violation
from repro.scenarios import build_scenario, scenario_names
from repro.views import MaterializedEngine

X, Y = Variable("X"), Variable("Y")


def skolemized(text: str) -> list[NormalRule]:
    """The skolemized normal rules of a textual Datalog± program."""
    ntgds, _ = parse_program(text)
    return list(skolemize_program(ntgds).rules())


#: One pinned program per level of the hierarchy, each accepted by its level
#: and rejected by every narrower one (the containment tests below rely on
#: exactly this structure).
HIERARCHY_PINS = {
    "function-free": "e(a, b). e(X, Y) -> t(X, Y).",
    # fresh values, no recursion through them
    "weak": "p(X) -> exists Y q(X, Y).",
    # weakly cyclic (a[1] -> a[1] through the Skolem position) but the nulls
    # can never satisfy b(Y), so the feeds graph is empty
    "joint": "a(X, Y), b(Y) -> exists Z a(Y, Z).",
    # jointly cyclic (position p[0] feeds itself) but p(·, b) never unifies
    # with the body pattern p(·, a)
    "super-weak": "p(X, a) -> exists Z p(Z, b).",
    None: "p(X) -> exists Y p(Y).",
}

#: The skolemization of an existential variable repeated in the head: ONE null
#: fills both positions of ``p`` simultaneously, so ``p(U, U)`` matches it and
#: the chase diverges.  Every criterion must reject this program (regression
#: pin: the joint/super-weak Move sets used to be seeded with a single head
#: position, unsoundly accepting it as terminating).
REPEATED_SKOLEM = "b(X) -> exists Z p(Z, Z). p(U, U) -> b(U)."

#: Two generator sites under one function symbol: rule 1's ``q``-term and
#: rule 2's ``p``-term are both ``f(a)``, so rule 1's ``Y`` is bound through
#: both sites and the program grounds ``f(f(…))`` forever.  Per-site Move
#: sets used to miss that and certify it jointly acyclic.
SHARED_SYMBOL = (
    "p(Y, Y), q(Y, Y) -> q(f(Y), f(Y)). q(X, X) -> p(f(X), f(X)). p(a, a). q(a, a)."
)


class TestDiagnostics:
    def test_severity_is_derived_from_the_code_prefix(self):
        assert Diagnostic("E101", "m").severity is Severity.ERROR
        assert Diagnostic("W202", "m").severity is Severity.WARNING
        assert Diagnostic("I301", "m").severity is Severity.INFO

    def test_unknown_codes_are_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("E999", "no such code")

    def test_every_code_has_a_severity_prefix(self):
        assert all(code[0] in "EWI" for code in CODE_TABLE)

    def test_reports_order_errors_first_deterministically(self):
        report = make_report(
            [
                Diagnostic("I301", "c", predicate="p"),
                Diagnostic("W202", "b", rule_index=3),
                Diagnostic("E101", "a", predicate="q"),
                Diagnostic("W202", "b", rule_index=1),
            ]
        )
        assert [d.code for d in report] == ["E101", "W202", "W202", "I301"]
        assert [d.rule_index for d in report.by_code("W202")] == [1, 3]

    def test_exit_codes(self):
        errors = make_report([Diagnostic("E101", "m")])
        warnings = make_report([Diagnostic("W204", "m")])
        infos = make_report([Diagnostic("I302", "m")])
        assert errors.exit_code() == errors.exit_code(strict=True) == 2
        assert warnings.exit_code() == 0
        assert warnings.exit_code(strict=True) == 1
        assert infos.exit_code() == infos.exit_code(strict=True) == 0
        assert infos.is_clean(strict=True)
        assert not warnings.is_clean(strict=True)

    def test_render_and_json_are_stable(self):
        diagnostic = Diagnostic("W204", "never fires", rule_index=2, predicate="p")
        assert diagnostic.render() == (
            "W204 warning: never fires  [rule 2, predicate p]"
        )
        report = make_report([diagnostic], verdicts={"stratified": True})
        document = json.loads(report.to_json_text())
        assert document["diagnostics"][0]["code"] == "W204"
        assert document["verdicts"]["stratified"] is True
        assert document["exit_code"] == 0
        assert document["exit_code_strict"] == 1
        assert "stratified = True" in report.render()


class TestLint:
    def test_inconsistent_arities_are_an_error(self):
        rules = parse_normal_program("p(X) -> q(X). q(X, X) -> r(X).").rules()
        codes = {d.code for d in lint_rules(rules)}
        assert "E101" in codes

    def test_magic_namespace_collision_is_flagged(self):
        rules = [NormalRule(Atom("__magic_b__p", (X,)), (Atom("q", (X,)),), ())]
        findings = lint_rules(rules)
        assert [d.code for d in findings] == ["W201"]

    def test_duplicate_rules_flag_the_later_copy(self):
        rules = parse_normal_program(
            "e(X, Y) -> r(X, Y). e(A, B) -> r(A, B)."
        ).rules()
        findings = [d for d in lint_rules(rules) if d.code == "W202"]
        assert len(findings) == 1
        assert findings[0].rule_index == 1

    def test_subsumed_rule_is_flagged(self):
        rules = parse_normal_program(
            "e(X, Y) -> r(X, Y). e(X, Y), n(Y) -> r(X, Y)."
        ).rules()
        findings = [d for d in lint_rules(rules) if d.code == "W203"]
        assert len(findings) == 1
        assert findings[0].rule_index == 1

    def test_unsatisfiable_body_is_flagged(self):
        rules = parse_normal_program("p(X), not p(X) -> q(X).").rules()
        findings = [d for d in lint_rules(rules) if d.code == "W204"]
        assert len(findings) == 1

    def test_case_collision_is_flagged(self):
        rules = parse_normal_program("edge(X, Y) -> r(X, Y). Edge(X, Y) -> r(X, Y).").rules()
        codes = {d.code for d in lint_rules(rules)}
        assert "W205" in codes

    def test_reachability_lints_need_a_database(self):
        rules = parse_normal_program("ghost(X) -> out(X).").rules()
        assert not any(d.code.startswith("I3") for d in lint_rules(rules))
        with_db = lint_rules(rules, database_atoms=[parse_atom("seen(a)")])
        codes = {d.code for d in with_db}
        assert "I301" in codes  # ghost has no source
        assert "I302" in codes  # out is never consumed

    def test_queries_mark_predicates_consumed(self):
        rules = parse_normal_program("seen(X) -> out(X).").rules()
        query = parse_query("? out(X)")
        findings = lint_rules(
            rules, database_atoms=[parse_atom("seen(a)")], queries=[query]
        )
        assert not any(d.code == "I302" for d in findings)


class TestDependencyGraph:
    def test_stratified_program_gets_strata(self):
        analysis = analyze_dependencies(
            parse_normal_program("e(X, Y) -> r(X, Y). r(X, Y), not b(X) -> g(X).")
        )
        assert analysis.stratified
        assert analysis.negative_cycle is None
        assert analysis.strata["g"] > analysis.strata["b"]

    def test_win_move_self_loop_witness(self):
        analysis = analyze_dependencies(
            parse_normal_program("move(X, Y), not win(Y) -> win(X).")
        )
        assert not analysis.stratified
        assert analysis.negative_cycle == ("win", "win")
        assert analysis.recursive

    def test_mutual_negation_witness(self):
        analysis = analyze_dependencies(
            parse_normal_program("s(X), not q(X) -> p(X). s(X), not p(X) -> q(X).")
        )
        assert analysis.negative_cycle in {("p", "q", "p"), ("q", "p", "q")}
        # deterministic: the lexicographically first head wins the tie-break
        assert analysis.negative_cycle == ("p", "q", "p")

    def test_witness_is_minimal(self):
        # p -> not q -> r -> p (length 3) and win -> not win (length 1):
        # the short loop must be the witness
        analysis = analyze_dependencies(
            parse_normal_program(
                "s(X), not q(X) -> p(X). r(X) -> q(X). p(X) -> r(X)."
                " move(X, Y), not win(Y) -> win(X)."
            )
        )
        assert analysis.negative_cycle == ("win", "win")
        assert negative_cycle_witness(
            analysis.positive_edges, analysis.negative_edges
        ) == ("win", "win")

    def test_guardedness_profile(self):
        ntgds, _ = parse_program(
            "p(X) -> exists Y q(X, Y)."          # linear (hence guarded)
            " e(X, Y), p(X), p(Y) -> r(X, Y)."   # guarded by e(X, Y)
            " p(X), p(Y) -> r(X, Y)."            # unguarded
        )
        profile = guardedness_profile(ntgds)
        assert (profile.guarded, profile.linear, profile.unguarded) == (2, 1, 1)
        assert profile.unguarded_rule_indices == (2,)
        assert not profile.all_guarded


class TestTerminationHierarchy:
    @pytest.mark.parametrize("expected", list(HIERARCHY_PINS))
    def test_pinned_verdicts(self, expected):
        verdict = termination_verdict(skolemized(HIERARCHY_PINS[expected]))
        assert verdict.criterion == expected

    def test_each_level_strictly_widens(self):
        weak = skolemized(HIERARCHY_PINS["weak"])
        joint = skolemized(HIERARCHY_PINS["joint"])
        super_weak = skolemized(HIERARCHY_PINS["super-weak"])
        cyclic = skolemized(HIERARCHY_PINS[None])
        assert is_weakly_acyclic(weak)
        assert not is_weakly_acyclic(joint)
        assert is_jointly_acyclic(joint)
        assert not is_jointly_acyclic(super_weak)
        assert is_super_weakly_acyclic(super_weak)
        assert not is_super_weakly_acyclic(cyclic)

    def test_repeated_head_skolem_is_rejected_by_every_criterion(self):
        rules = skolemized(REPEATED_SKOLEM)
        assert not is_weakly_acyclic(rules)
        assert not is_jointly_acyclic(rules)
        assert not is_super_weakly_acyclic(rules)
        verdict = termination_verdict(rules)
        assert verdict.criterion is None
        assert "not super-weakly acyclic" in verdict.reason

    def test_shared_function_symbol_is_rejected_by_the_widening_criteria(self):
        rules = parse_normal_program(SHARED_SYMBOL)
        assert not is_weakly_acyclic(rules)
        assert not is_jointly_acyclic(rules)
        assert not is_super_weakly_acyclic(rules)
        verdict = termination_verdict(rules)
        assert verdict.criterion is None
        assert "function symbol f labels more than one generator site" in verdict.reason
        assert analyze(rules).verdicts["plan"]["materializable"] is False

    def test_unshared_symbols_keep_the_joint_verdict(self):
        # the same shape with one symbol per site: the p-term's null never
        # reaches both q positions, so the feeds graph stays acyclic
        rules = parse_normal_program(
            "p(Y, Y), q(Y, Y) -> q(f(Y), f(Y)). q(X, X) -> p(g(X), g(X))."
        )
        assert termination_verdict(rules).criterion == "joint"

    def test_benign_repeated_head_skolem_is_still_accepted(self):
        # same repeated-existential head, but nothing feeds the null back
        verdict = termination_verdict(skolemized("s(X) -> exists Z p(Z, Z)."))
        assert verdict.criterion == "weak"

    def test_acceptance_implies_wider_acceptance(self):
        for text in HIERARCHY_PINS.values():
            rules = skolemized(text)
            if is_weakly_acyclic(rules):
                assert is_jointly_acyclic(rules)
            if is_jointly_acyclic(rules):
                assert is_super_weakly_acyclic(rules)

    def test_verdict_names_the_next_narrower_failure(self):
        joint = termination_verdict(skolemized(HIERARCHY_PINS["joint"]))
        assert joint.criterion == "joint"
        assert "not weakly acyclic" in joint.reason
        super_weak = termination_verdict(skolemized(HIERARCHY_PINS["super-weak"]))
        assert "not jointly acyclic" in super_weak.reason
        rejected = termination_verdict(skolemized(HIERARCHY_PINS[None]))
        assert not rejected.terminating
        assert "not super-weakly acyclic" in rejected.reason

    def test_accepts_at_least(self):
        verdict = TerminationVerdict("joint")
        assert verdict.accepts_at_least("joint")
        assert verdict.accepts_at_least("super-weak")
        assert not verdict.accepts_at_least("weak")
        assert not TerminationVerdict(None).accepts_at_least("super-weak")
        with pytest.raises(ValueError):
            verdict.accepts_at_least("no-such-criterion")

    def test_paper_example_is_rejected_by_every_criterion(self):
        from repro.bench.generators import paper_example_program

        program, _ = paper_example_program()
        verdict = termination_verdict(skolemize_program(program).rules())
        assert verdict.criterion is None


class TestPlanner:
    def test_parse_errors_become_e102(self):
        report = analyze("p(X :- broken")
        assert report.codes() == {"E102"}
        assert report.exit_code() == 2

    def test_unguarded_rules_get_w206(self):
        report = analyze("p(X), p(Y) -> r(X, Y).")
        assert "W206" in report.codes()

    def test_non_terminating_program_gets_w207_and_run_and_check(self):
        report = analyze(HIERARCHY_PINS[None])
        assert "W207" in report.codes()
        plan = plan_engine(report)
        assert plan["run_and_check"]
        assert not plan["magic_eligible"]
        assert not plan["materializable"]

    def test_verdict_keys_are_stable(self):
        report = analyze("move(a, b). move(X, Y), not win(Y) -> win(X).")
        expected = {
            "termination_criterion",
            "termination_reason",
            "chase_terminates",
            "stratified",
            "negative_cycle",
            "strata_count",
            "recursive",
            "guarded",
            "guardedness",
            "existential",
            "plan",
        }
        assert expected <= set(report.verdicts)
        assert report.verdicts["termination_criterion"] == "function-free"
        assert report.verdicts["stratified"] is False
        assert report.verdicts["negative_cycle"] == ["win", "win"]
        assert "I303" in report.codes()

    def test_accepts_every_program_representation(self):
        text = "e(a, b). e(X, Y) -> t(X, Y)."
        ntgds, database = parse_program(text)
        normal = parse_normal_program("e(X, Y) -> t(X, Y).")
        for program in (text, ntgds, normal, list(normal.rules()), list(ntgds)):
            report = analyze(program, database)
            assert report.verdicts["termination_criterion"] == "function-free"

    def test_plan_engine_defaults_on_empty_report(self):
        plan = plan_engine(make_report([]))
        assert plan == {
            "magic_eligible": False,
            "materializable": False,
            "run_and_check": True,
            "stratified_fastpath": False,
        }


class TestEngineIntegration:
    def test_classic_query_stats_carry_the_analysis(self):
        engine = WellFoundedEngine(
            "move(a, b). move(X, Y), not win(Y) -> win(X).", rewrite=False
        )
        assert engine.holds(parse_atom("win(a)"))
        summary = engine.last_query_stats["analysis"]
        assert summary["termination"] == "function-free"
        assert summary["chase_terminates"] is True
        assert summary["stratified"] is False
        assert summary["errors"] == 0

    def test_engine_analysis_report_is_cached(self):
        engine = WellFoundedEngine("e(a, b). e(X, Y) -> t(X, Y).")
        report = engine.analysis()
        assert isinstance(report, AnalysisReport)
        assert engine.analysis() is report


class TestMagicWidening:
    #: jointly-acyclic but weakly-cyclic: the Skolem position a[1] sits on a
    #: position-graph cycle, but its nulls can never satisfy b(Y)
    JA_NOT_WA = """
    s(X) -> a(X, X).
    a(X, Y), b(Y) -> exists Z a(Y, Z).
    s(c). b(c). s(d).
    """

    def test_pinned_program_is_ja_not_wa(self):
        rules = skolemized(self.JA_NOT_WA)
        assert weak_acyclicity_violation(rules) is not None
        assert _weak_acyclicity_violation(rules) is not None  # the magic shim
        assert is_jointly_acyclic(rules)

    def test_magic_accepts_the_ja_program(self):
        rules = skolemized(self.JA_NOT_WA)
        plan = rewrite_for_query(rules, [pos(Atom("a", (Constant("c"), Constant("c"))))])
        assert plan.supported
        assert plan.termination_criterion == "joint"

    def test_magic_answers_are_bit_identical_to_classic(self):
        queries = [
            "? a(c, c)",
            "? a(d, d)",
            "? a(e, e)",
            "? b(c)",
            "? a(c, c), not b(d)",
        ]
        engine = WellFoundedEngine(self.JA_NOT_WA)
        for text in queries:
            query = parse_query(text)
            magic = engine.holds(query, rewrite=True)
            classic = engine.holds(query, rewrite=False)
            assert magic == classic, text
        # the widened path really is the magic fast path, not a fallback
        engine.holds(parse_query("? a(d, d)"), rewrite=True)
        stats = engine.last_query_stats
        assert stats["mode"] == "magic"
        assert stats["termination_criterion"] == "joint"

    def test_magic_still_rejects_fully_cyclic_programs(self):
        rules = skolemized(HIERARCHY_PINS[None])
        plan = rewrite_for_query(rules, [pos(Atom("p", (Constant("a"),)))])
        assert not plan.supported
        assert plan.termination_criterion is None
        assert "no static termination criterion" in plan.reason

    def test_magic_rejects_the_repeated_skolem_program(self):
        rules = skolemized(REPEATED_SKOLEM)
        plan = rewrite_for_query(rules, [pos(Atom("b", (Constant("c"),)))])
        assert not plan.supported
        assert plan.termination_criterion is None


class TestMaterializedTermination:
    CYCLIC = "grow(X) -> grow(f(X))."

    def test_cyclic_program_is_rejected_with_a_diagnostic(self):
        rules = parse_normal_program(self.CYCLIC)
        with pytest.raises(AnalysisError) as excinfo:
            MaterializedEngine(rules, ())
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].code == "E103"
        assert "check_termination=False" in str(excinfo.value)

    def test_opt_out_restores_budgeted_maintenance(self):
        rules = parse_normal_program(self.CYCLIC)
        engine = MaterializedEngine(rules, (), max_atoms=50, check_termination=False)
        assert engine.termination_criterion is None

    def test_repeated_skolem_program_is_rejected(self):
        with pytest.raises(AnalysisError) as excinfo:
            MaterializedEngine(skolemized(REPEATED_SKOLEM), ())
        assert excinfo.value.diagnostics[0].code == "E103"

    def test_shared_symbol_program_is_rejected(self):
        with pytest.raises(AnalysisError) as excinfo:
            MaterializedEngine(parse_normal_program(SHARED_SYMBOL))
        assert excinfo.value.diagnostics[0].code == "E103"
        assert "function symbol f" in str(excinfo.value)

    def test_terminating_program_records_its_criterion(self):
        engine = MaterializedEngine(
            parse_normal_program("e(X, Y) -> r(X, Y)."), [parse_atom("e(a, b)")]
        )
        assert engine.termination_criterion == "function-free"
        assert engine.holds(parse_atom("r(a, b)"))


class TestScenarioCorpus:
    """Every registered scenario must analyze cleanly — a regression corpus."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_analyzes_without_findings(self, name):
        bundle = build_scenario(name)
        queries = [parse_query(text) for text in bundle.queries]
        report = analyze(bundle.program, bundle.database, queries=queries)
        assert report.exit_code(strict=True) == 0, report.render()
        assert report.verdicts["chase_terminates"] is True
        assert plan_engine(report)["materializable"]


class TestAnalyzeCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.dlv"
        target.write_text("e(a, b). e(X, Y) -> t(X, Y).")
        assert analyze_main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "termination_criterion = function-free" in out

    def test_strict_exit_on_warnings(self, tmp_path):
        target = tmp_path / "cyclic.dlv"
        target.write_text("p(a). p(X) -> exists Y p(Y).")
        assert analyze_main([str(target)]) == 0
        assert analyze_main([str(target), "--strict"]) == 1

    def test_ill_formed_file_exits_two(self, tmp_path):
        target = tmp_path / "broken.dlv"
        target.write_text("p(X :- broken")
        assert analyze_main([str(target)]) == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "missing.dlv")]) == 2
        assert "missing.dlv" in capsys.readouterr().err

    def test_json_document_shape(self, tmp_path, capsys):
        target = tmp_path / "clean.dlv"
        target.write_text("e(a, b). e(X, Y) -> t(X, Y).")
        assert analyze_main([str(target), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"targets", "failures", "strict", "exit_code"}
        (report,) = document["targets"].values()
        assert report["exit_code"] == 0
        assert report["verdicts"]["termination_criterion"] == "function-free"

    def test_all_scenarios_are_strict_clean(self, capsys):
        assert analyze_main(["--all-scenarios", "--strict", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["targets"]) == len(scenario_names())

    def test_python_example_with_program_constant(self, tmp_path):
        target = tmp_path / "example.py"
        target.write_text('PROGRAM = "e(a, b). e(X, Y) -> t(X, Y)."\n')
        assert analyze_main([str(target)]) == 0

    def test_python_example_with_analyze_target_hook(self, tmp_path):
        target = tmp_path / "hooked.py"
        target.write_text(
            "def analyze_target():\n"
            '    return ("e(X, Y) -> t(X, Y).", [])\n'
        )
        assert analyze_main([str(target)]) == 0
