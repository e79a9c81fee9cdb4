"""Tests for the stratified Datalog± baseline (:mod:`repro.core.stratified`)."""

from __future__ import annotations

import pytest

from repro.exceptions import NotStratifiedError
from repro.lang.parser import parse_atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Variable
from repro.core.engine import WellFoundedEngine
from repro.core.stratified import StratifiedDatalogPM

LITERATURE = """
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
isAuthorOf(X, Y), not retracted(Y) -> hasValidPublication(X).
scientist(john).
conferencePaper(pods13).
"""


class TestStratifiedSemantics:
    def test_positive_program_chase(self):
        baseline = StratifiedDatalogPM(LITERATURE)
        assert baseline.holds("? article(pods13)")
        assert baseline.holds("? isAuthorOf(john, Y)")
        assert baseline.holds("? hasValidPublication(john)")

    def test_closed_world_reading(self):
        baseline = StratifiedDatalogPM(LITERATURE)
        model = baseline.model()
        assert model.is_false(parse_atom("article(john)"))
        assert not model.is_undefined(parse_atom("article(john)"))

    def test_stratified_negation_is_evaluated_per_stratum(self):
        baseline = StratifiedDatalogPM(
            """
            employee(X), not manager(X) -> exists Y reportsTo(X, Y).
            employee(ann). employee(bob). manager(bob).
            """
        )
        assert baseline.holds("? reportsTo(ann, Y)")
        assert not baseline.holds("? reportsTo(bob, Y)")

    def test_unstratified_program_is_rejected(self):
        with pytest.raises(NotStratifiedError):
            StratifiedDatalogPM(
                """
                person(X), not registered(X) -> exists Y appliesFor(X, Y).
                appliesFor(X, Y) -> registered(X).
                registered(X), not person(X) -> person(X).
                person(a).
                """
            )

    def test_term_depth_bound_limits_the_chase(self):
        shallow = StratifiedDatalogPM(
            "next(X, Y) -> exists Z next(Y, Z).\nnext(a, b).", max_term_depth=2
        )
        deep = StratifiedDatalogPM(
            "next(X, Y) -> exists Z next(Y, Z).\nnext(a, b).", max_term_depth=5
        )
        assert len(deep.model()) > len(shallow.model())

    def test_answer_api(self):
        baseline = StratifiedDatalogPM(LITERATURE)
        query = ConjunctiveQuery(
            (parse_atom("article(X)").__class__("article", (Variable("X"),)),),
            (Variable("X"),),
        )
        assert (Constant("pods13"),) in baseline.answer(query)


class TestCoincidenceWithWfs:
    @pytest.mark.parametrize(
        "text,queries",
        [
            (
                LITERATURE,
                ["? article(pods13)", "? hasValidPublication(john)", "? retracted(X)"],
            ),
            (
                """
                bird(X), not penguin(X) -> exists Y flightOf(X, Y).
                flightOf(X, Y) -> flies(X).
                bird(tweety). bird(sam). penguin(sam).
                """,
                ["? flies(tweety)", "? flies(sam)", "? penguin(sam)"],
            ),
        ],
    )
    def test_wfs_coincides_with_stratified_semantics_on_stratified_programs(
        self, text, queries
    ):
        # The paper's design goal: the WFS generalises stratified Datalog±, so
        # on stratified programs both semantics must give the same answers.
        baseline = StratifiedDatalogPM(text)
        engine = WellFoundedEngine(text)
        for query in queries:
            assert baseline.holds(query) == engine.holds(query), query
