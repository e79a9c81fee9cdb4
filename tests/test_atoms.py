"""Unit tests for :mod:`repro.lang.atoms`."""

from __future__ import annotations

from repro.lang.atoms import Atom, domain_of_atoms, neg, pos, variables_of_atoms
from repro.lang.terms import Constant, FunctionTerm, Variable


def atom(pred, *args):
    return Atom(pred, tuple(args))


class TestAtom:
    def test_equality_and_hashing(self):
        assert atom("p", Constant("a")) == atom("p", Constant("a"))
        assert atom("p", Constant("a")) != atom("p", Constant("b"))
        assert atom("p", Constant("a")) != atom("q", Constant("a"))
        assert len({atom("p", Constant("a")), atom("p", Constant("a"))}) == 1

    def test_arity_and_propositional_atoms(self):
        assert atom("p", Constant("a"), Constant("b")).arity == 2
        assert atom("flag").arity == 0
        assert str(atom("flag")) == "flag"

    def test_is_ground(self):
        assert atom("p", Constant("a")).is_ground()
        assert not atom("p", Variable("X")).is_ground()
        assert atom("p", FunctionTerm("f", (Constant("a"),))).is_ground()

    def test_domain_is_the_set_of_arguments(self):
        a = atom("p", Constant("a"), Constant("b"), Constant("a"))
        assert a.domain() == {Constant("a"), Constant("b")}

    def test_variables_recurse_into_function_terms(self):
        a = atom("p", FunctionTerm("f", (Variable("X"),)), Variable("Y"))
        assert a.variables() == {Variable("X"), Variable("Y")}

    def test_constants_only_at_top_level(self):
        a = atom("p", Constant("a"), FunctionTerm("f", (Constant("b"),)))
        assert a.constants() == {Constant("a")}

    def test_str_form(self):
        assert str(atom("p", Constant("a"), Variable("X"))) == "p(a, X)"

    def test_sort_key_orders_by_predicate_then_args(self):
        assert atom("p", Constant("a")).sort_key() < atom("q", Constant("a")).sort_key()
        assert atom("p", Constant("a")).sort_key() < atom("p", Constant("b")).sort_key()


class TestLiteral:
    def test_polarity_and_negation(self):
        a = atom("p", Constant("a"))
        positive = pos(a)
        negative = neg(a)
        assert positive.positive and not negative.positive
        assert positive.negate() == negative
        assert negative.negate() == positive

    def test_literal_exposes_atom_structure(self):
        literal = neg(atom("p", Constant("a"), Variable("X")))
        assert literal.predicate == "p"
        assert literal.args == (Constant("a"), Variable("X"))
        assert not literal.is_ground()
        assert literal.variables() == {Variable("X")}

    def test_str_forms(self):
        a = atom("p", Constant("a"))
        assert str(pos(a)) == "p(a)"
        assert str(neg(a)) == "not p(a)"

    def test_sort_key_puts_positive_before_negative(self):
        a = atom("p", Constant("a"))
        assert pos(a).sort_key() < neg(a).sort_key()

    def test_literals_are_hashable(self):
        a = atom("p", Constant("a"))
        assert len({pos(a), pos(a), neg(a)}) == 2


class TestAtomSetHelpers:
    def test_domain_of_atoms(self):
        atoms = [atom("p", Constant("a")), atom("q", Constant("b"), Constant("a"))]
        assert domain_of_atoms(atoms) == {Constant("a"), Constant("b")}

    def test_variables_of_atoms(self):
        atoms = [atom("p", Variable("X")), atom("q", Variable("Y"), Constant("a"))]
        assert variables_of_atoms(atoms) == {Variable("X"), Variable("Y")}
