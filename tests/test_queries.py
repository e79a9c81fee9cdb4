"""Unit tests for :mod:`repro.lang.queries` (CQ/BCQ/NBCQ evaluation)."""

from __future__ import annotations

import pytest

from repro.exceptions import IllFormedRuleError
from repro.lang.atoms import Atom, neg, pos
from repro.lang.queries import (
    ConjunctiveQuery,
    NormalBCQ,
    ThreeValuedLike,
    _adapt,
    _SetAdapter,
    evaluate_query,
    query_holds,
)
from repro.lang.terms import Constant, Variable
from repro.lp.interpretation import Interpretation

X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")

FACTS = {
    Atom("edge", (a, b)),
    Atom("edge", (b, c)),
    Atom("colour", (a, Constant("red"))),
}


class TestConjunctiveQuery:
    def test_boolean_query_detection(self):
        query = ConjunctiveQuery((Atom("edge", (X, Y)),))
        assert query.is_boolean()
        assert not ConjunctiveQuery((Atom("edge", (X, Y)),), (X,)).is_boolean()

    def test_answer_variables_must_occur_in_body(self):
        with pytest.raises(IllFormedRuleError):
            ConjunctiveQuery((Atom("edge", (X, Y)),), (Variable("Z"),))

    def test_empty_query_is_rejected(self):
        with pytest.raises(IllFormedRuleError):
            ConjunctiveQuery(())

    def test_evaluate_boolean_query(self):
        query = ConjunctiveQuery((Atom("edge", (X, Y)), Atom("edge", (Y, Variable("Z")))))
        assert evaluate_query(query, FACTS) == {()}

    def test_evaluate_with_answer_variables(self):
        query = ConjunctiveQuery((Atom("edge", (X, Y)),), (X, Y))
        assert evaluate_query(query, FACTS) == {(a, b), (b, c)}

    def test_join_queries(self):
        query = ConjunctiveQuery(
            (Atom("edge", (X, Y)), Atom("edge", (Y, Variable("Z")))), (X, Variable("Z"))
        )
        assert evaluate_query(query, FACTS) == {(a, c)}

    def test_constants_in_queries(self):
        query = ConjunctiveQuery((Atom("edge", (a, X)),), (X,))
        assert evaluate_query(query, FACTS) == {(b,)}

    def test_no_match_gives_empty_answer_set(self):
        query = ConjunctiveQuery((Atom("edge", (c, X)),), (X,))
        assert evaluate_query(query, FACTS) == set()


class TestNormalBCQ:
    def test_requires_a_positive_atom(self):
        with pytest.raises(IllFormedRuleError):
            NormalBCQ((), (Atom("p", (a,)),))

    def test_from_literals_and_size(self):
        query = NormalBCQ.from_literals([pos(Atom("p", (X,))), neg(Atom("q", (X,)))])
        assert query.size() == 2
        assert not query.is_positive()
        assert query.predicates() == {"p", "q"}

    def test_satisfaction_against_a_plain_set_is_closed_world(self):
        query = NormalBCQ((Atom("edge", (X, Y)),), (Atom("edge", (Y, X)),))
        # edge(a,b) holds and edge(b,a) is absent => the NBCQ holds.
        assert query_holds(query, FACTS)

    def test_negative_atom_blocking(self):
        query = NormalBCQ((Atom("edge", (a, X)),), (Atom("edge", (X, c)),))
        # the only candidate X=b, but edge(b,c) is present, so the query fails
        assert not query_holds(query, FACTS)

    def test_three_valued_semantics_requires_falsity_not_just_non_truth(self):
        interpretation = Interpretation(
            true_atoms={Atom("p", (a,))},
            false_atoms=set(),
        )
        query = NormalBCQ((Atom("p", (X,)),), (Atom("q", (X,)),))
        # q(a) is *undefined* (not false), so the NBCQ must NOT hold.
        assert not query_holds(query, interpretation)

        decided = Interpretation(
            true_atoms={Atom("p", (a,))},
            false_atoms={Atom("q", (a,))},
        )
        assert query_holds(query, decided)

    def test_negative_variable_must_be_bound_by_positive_part(self):
        query = NormalBCQ((Atom("p", (X,)),), (Atom("q", (Y,)),))
        with pytest.raises(IllFormedRuleError):
            query_holds(query, {Atom("p", (a,))})

    def test_query_holds_accepts_plain_cq(self):
        query = ConjunctiveQuery((Atom("edge", (X, Y)),))
        assert query_holds(query, FACTS)

    def test_str_forms(self):
        query = NormalBCQ((Atom("p", (X,)),), (Atom("q", (X,)),))
        assert str(query) == "? p(X), not q(X)"


class TestAdapt:
    """Plain atom collections are wrapped; three-valued objects pass through."""

    @pytest.mark.parametrize(
        "make", [set, frozenset, list, tuple, lambda atoms: (atom for atom in atoms)]
    )
    def test_plain_collections_are_wrapped(self, make):
        adapted = _adapt(make(sorted(FACTS, key=Atom.sort_key)))
        assert isinstance(adapted, _SetAdapter)
        assert set(adapted.true_atoms()) == FACTS
        assert adapted.is_false(Atom("edge", (c, a)))
        assert query_holds(NormalBCQ((Atom("edge", (X, Y)),)), make(FACTS))

    def test_three_valued_objects_pass_through(self):
        interpretation = Interpretation(true_atoms=FACTS, false_atoms=set())
        assert isinstance(interpretation, ThreeValuedLike)
        assert _adapt(interpretation) is interpretation

        class Structural:
            """Any object with the three protocol methods, by duck typing."""

            def is_true(self, atom):
                return atom in FACTS

            def is_false(self, atom):
                return atom not in FACTS

            def true_atoms(self):
                return FACTS

        structural = Structural()
        assert _adapt(structural) is structural
        assert query_holds(NormalBCQ((Atom("edge", (X, Y)),)), structural)
