"""Unit tests for the textual syntax (:mod:`repro.lang.parser`)."""

from __future__ import annotations

import pytest

from repro.exceptions import ParseError
from repro.lang.atoms import Atom
from repro.lang.parser import (
    parse_atom,
    parse_database,
    parse_literal,
    parse_normal_program,
    parse_normal_rule,
    parse_ntgd,
    parse_program,
    parse_query,
    parse_term,
)
from repro.lang.terms import Constant, FunctionTerm, Variable
from repro.scenarios import build_scenario, scenario_names


class TestTermsAndAtoms:
    def test_lowercase_identifier_is_a_constant(self):
        assert parse_term("john") == Constant("john")

    def test_uppercase_identifier_is_a_variable(self):
        assert parse_term("X1") == Variable("X1")
        assert parse_term("_anon") == Variable("_anon")

    def test_numbers_and_quoted_strings_are_constants(self):
        assert parse_term("42") == Constant("42")
        assert parse_term("'Hello World'") == Constant("Hello World")

    def test_function_terms(self):
        assert parse_term("f(a, X)") == FunctionTerm("f", (Constant("a"), Variable("X")))
        nested = parse_term("f(g(a), b)")
        assert nested == FunctionTerm("f", (FunctionTerm("g", (Constant("a"),)), Constant("b")))

    def test_atoms(self):
        assert parse_atom("p(a, X)") == Atom("p", (Constant("a"), Variable("X")))
        assert parse_atom("flag") == Atom("flag", ())

    def test_literals(self):
        assert parse_literal("p(a)").positive
        negative = parse_literal("not p(a)")
        assert not negative.positive and negative.atom == Atom("p", (Constant("a"),))

    def test_trailing_garbage_is_an_error(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q(b)")
        with pytest.raises(ParseError):
            parse_term("f(a))")

    def test_unknown_character_is_an_error(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) & q(b)")


class TestRules:
    def test_plain_tgd(self):
        ntgd = parse_ntgd("conferencePaper(X) -> article(X).")
        assert ntgd.body_pos == (Atom("conferencePaper", (Variable("X"),)),)
        assert ntgd.head == Atom("article", (Variable("X"),))
        assert not ntgd.existential_variables()

    def test_existential_tgd(self):
        ntgd = parse_ntgd("scientist(X) -> exists Y isAuthorOf(X, Y).")
        assert ntgd.existential_variables() == {Variable("Y")}

    def test_multiple_existential_variables(self):
        ntgd = parse_ntgd("p(X) -> exists Y, Z r(X, Y, Z).")
        assert ntgd.existential_variables() == {Variable("Y"), Variable("Z")}

    def test_normal_tgd_with_negation(self):
        ntgd = parse_ntgd("r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).")
        assert len(ntgd.body_pos) == 2 and len(ntgd.body_neg) == 1
        assert ntgd.guard() == Atom("r", (Variable("X"), Variable("Y"), Variable("Z")))

    def test_fact_is_not_an_ntgd(self):
        with pytest.raises(ParseError):
            parse_ntgd("p(a).")

    def test_normal_rule_with_function_terms(self):
        rule = parse_normal_rule("q(X) -> p(f(X)).")
        assert rule.head == Atom("p", (FunctionTerm("f", (Variable("X"),)),))

    def test_normal_rule_rejects_existentials(self):
        with pytest.raises(ParseError):
            parse_normal_rule("p(X) -> exists Y r(X, Y).")

    def test_normal_rule_fact(self):
        rule = parse_normal_rule("p(a).")
        assert rule.is_fact() and rule.head == Atom("p", (Constant("a"),))


class TestProgramsAndQueries:
    def test_parse_program_splits_rules_and_facts(self):
        program, database = parse_program(
            """
            % the literature example
            conferencePaper(X) -> article(X).
            scientist(X) -> exists Y isAuthorOf(X, Y).
            scientist(john).
            conferencePaper(pods13).
            """
        )
        assert len(program) == 2
        assert len(database) == 2
        assert Atom("scientist", (Constant("john"),)) in database

    def test_comments_are_ignored(self):
        program, database = parse_program("# comment only\n% another\np(a).")
        assert len(program) == 0 and len(database) == 1

    def test_parse_normal_program(self):
        program = parse_normal_program(
            """
            move(a, b). move(b, c).
            move(X, Y), not win(Y) -> win(X).
            """
        )
        assert len(program) == 3
        assert len(program.facts()) == 2

    def test_parse_database_rejects_rules(self):
        with pytest.raises(ParseError):
            parse_database("p(a). q(X) -> r(X).")

    @pytest.mark.parametrize("parse", [parse_program, parse_database, parse_normal_program])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("not p(a).", "expected DOT but found 'p' at offset 4"),
            ("p(a), q(b).", "expected DOT but found ',' at offset 4"),
            ("p(a)", "expected DOT but found 'end of input' at offset 4"),
            ("p(a) q(b).", "expected DOT but found 'q' at offset 5"),
            ("p(X), not q(X).", "expected DOT but found ',' at offset 4"),
        ],
    )
    def test_statements_that_are_neither_rule_nor_fact(self, parse, text, message):
        with pytest.raises(ParseError) as raised:
            parse(text)
        assert str(raised.value) == message
        assert raised.value.position == int(message.rsplit(" ", 1)[1])

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_texts_parse_back_to_their_bundles(self, name):
        bundle = build_scenario(name, seed=3)
        text = str(bundle.program) + "\n" + "".join(f"{atom}." for atom in bundle.database)
        program, database = parse_program(text)

        def shapes(rules):  # a rule's text carries no label
            return [(rule.body_pos, rule.body_neg, rule.head) for rule in rules]

        assert shapes(program) == shapes(bundle.program)
        assert database == bundle.database

    def test_parse_query_positive_and_negative(self):
        query = parse_query("? isAuthorOf(john, Y), not retracted(Y)")
        assert len(query.positive) == 1 and len(query.negative) == 1
        assert query.size() == 2

    def test_parse_query_with_trailing_dot(self):
        query = parse_query("? p(X).")
        assert len(query.positive) == 1

    def test_round_trip_through_str(self):
        ntgd = parse_ntgd("r(X,Y,Z), not q(Z) -> exists W p(X,W).")
        reparsed = parse_ntgd(str(ntgd))
        assert reparsed == ntgd
