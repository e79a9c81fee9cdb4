"""Unit tests for the functional transformation (:mod:`repro.lang.skolem`)."""

from __future__ import annotations

from repro.lang.atoms import Atom
from repro.lang.parser import parse_ntgd, parse_program
from repro.lang.rules import NTGD
from repro.lang.skolem import skolem_function_name, skolemize_ntgd, skolemize_program
from repro.lang.terms import FunctionTerm, Variable

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


class TestSkolemizeNTGD:
    def test_rule_without_existentials_is_unchanged_up_to_class(self):
        ntgd = parse_ntgd("conferencePaper(X) -> article(X).")
        rule = skolemize_ntgd(ntgd, "r0")
        assert rule.head == ntgd.head
        assert rule.body_pos == ntgd.body_pos

    def test_existential_becomes_skolem_term_over_universal_variables(self):
        ntgd = parse_ntgd("r(X,Y,Z) -> exists W r(X,Z,W).")
        rule = skolemize_ntgd(ntgd, "growth")
        expected_function = skolem_function_name("growth", W)
        assert rule.head == Atom(
            "r", (X, Z, FunctionTerm(expected_function, (X, Y, Z)))
        )

    def test_skolem_arguments_follow_body_order(self):
        # The paper's Example 4 uses f(X, Y, Z): all universally quantified
        # variables in their body order, even if some do not occur in the head.
        ntgd = parse_ntgd("r(X,Y,Z) -> exists W s(Z,W).")
        rule = skolemize_ntgd(ntgd, "r")
        skolem = rule.head.args[1]
        assert isinstance(skolem, FunctionTerm)
        assert skolem.args == (X, Y, Z)

    def test_negative_body_is_preserved(self):
        ntgd = parse_ntgd("r(X,Y), not q(X) -> exists Z s(X,Z).")
        rule = skolemize_ntgd(ntgd, "r")
        assert rule.body_neg == (Atom("q", (X,)),)

    def test_multiple_existentials_get_distinct_functions(self):
        ntgd = parse_ntgd("p(X) -> exists Y, Z r(X, Y, Z).")
        rule = skolemize_ntgd(ntgd, "multi")
        first, second = rule.head.args[1], rule.head.args[2]
        assert isinstance(first, FunctionTerm) and isinstance(second, FunctionTerm)
        assert first.function != second.function

    def test_deterministic_naming(self):
        ntgd = parse_ntgd("p(X) -> exists Y r(X, Y).")
        assert skolemize_ntgd(ntgd, "k") == skolemize_ntgd(ntgd, "k")


class TestSkolemizeProgram:
    def test_positions_are_used_as_rule_identifiers(self):
        program, _ = parse_program(
            """
            p(X) -> exists Y r(X, Y).
            q(X) -> exists Y r(X, Y).
            """
        )
        skolemized = skolemize_program(program)
        functions = {
            arg.function
            for rule in skolemized
            for arg in rule.head.args
            if isinstance(arg, FunctionTerm)
        }
        assert len(functions) == 2  # the two rules get distinct Skolem functions

    def test_labels_override_positions(self):
        ntgd = NTGD((Atom("p", (X,)),), Atom("r", (X, Y)), label="named")
        skolemized = skolemize_program([ntgd])
        function = list(skolemized)[0].head.args[1].function
        assert "named" in function

    def test_functional_transformation_of_positive_program_is_positive(self):
        program, _ = parse_program(
            """
            p(X) -> exists Y r(X, Y).
            r(X, Y) -> s(X).
            """
        )
        assert skolemize_program(program).is_positive()

    def test_skolemized_program_keeps_negation(self):
        program, _ = parse_program("p(X), not q(X) -> exists Y r(X, Y).")
        assert not skolemize_program(program).is_positive()
