"""Tests for atom types and X-isomorphisms (:mod:`repro.chase.types`)."""

from __future__ import annotations

import pytest

from repro.lang.atoms import Atom, neg, pos
from repro.lang.terms import Constant, FunctionTerm
from repro.chase.types import (
    AtomType,
    are_x_isomorphic,
    canonical_type_key,
    max_type_count,
    x_isomorphism,
)

a, b = Constant("a"), Constant("b")
n1, n2, n3 = (FunctionTerm(f"null{i}", ()) for i in (1, 2, 3))


def shape(atom: Atom) -> tuple:
    """The type key of *atom* with no literals: its shape up to null renaming."""
    return canonical_type_key(atom, ())


class TestShapeKeys:
    def test_same_shape_up_to_null_renaming(self):
        assert shape(Atom("p", (a, n1))) == shape(Atom("p", (a, n2)))

    def test_constants_are_not_renamed(self):
        assert shape(Atom("p", (a,))) != shape(Atom("p", (b,)))

    def test_repeated_nulls_are_distinguished_from_distinct_ones(self):
        assert shape(Atom("p", (n1, n1))) != shape(Atom("p", (n1, n2)))

    def test_predicate_matters(self):
        assert shape(Atom("p", (n1,))) != shape(Atom("q", (n1,)))


class TestAtomTypes:
    def test_type_selects_literals_over_the_atom_domain(self):
        literals = [
            pos(Atom("p", (a, n1))),
            neg(Atom("q", (n1,))),
            pos(Atom("r", (n2,))),  # outside dom(p(a, n1))
        ]
        atom_type = AtomType.of(Atom("p", (a, n1)), literals)
        assert pos(Atom("p", (a, n1))) in atom_type.literals
        assert neg(Atom("q", (n1,))) in atom_type.literals
        assert pos(Atom("r", (n2,))) not in atom_type.literals

    def test_isomorphic_types_have_equal_keys(self):
        left = AtomType.of(Atom("p", (a, n1)), [pos(Atom("p", (a, n1))), neg(Atom("q", (n1,)))])
        right = AtomType.of(Atom("p", (a, n2)), [pos(Atom("p", (a, n2))), neg(Atom("q", (n2,)))])
        assert left.key() == right.key()
        assert left.is_isomorphic_to(right)

    def test_non_isomorphic_types_differ(self):
        left = AtomType.of(Atom("p", (a, n1)), [pos(Atom("p", (a, n1)))])
        right = AtomType.of(Atom("p", (a, n2)), [pos(Atom("p", (a, n2))), neg(Atom("q", (n2,)))])
        assert left.key() != right.key()

    def test_canonical_type_key_is_order_insensitive(self):
        literals = [pos(Atom("p", (n1,))), neg(Atom("q", (n1,)))]
        assert canonical_type_key(Atom("p", (n1,)), literals) == canonical_type_key(
            Atom("p", (n1,)), list(reversed(literals))
        )


class TestXIsomorphism:
    def test_isomorphism_renames_nulls(self):
        left = {pos(Atom("p", (a, n1))), pos(Atom("q", (n1,)))}
        right = {pos(Atom("p", (a, n2))), pos(Atom("q", (n2,)))}
        mapping = x_isomorphism(left, right)
        assert mapping is not None
        assert mapping[n1] == n2
        assert mapping[a] == a
        assert are_x_isomorphic(left, right)

    def test_fixed_terms_must_be_preserved(self):
        left = {pos(Atom("p", (n1,)))}
        right = {pos(Atom("p", (n2,)))}
        assert are_x_isomorphic(left, right)
        assert not are_x_isomorphic(left, right, fixed=[n1])

    def test_mismatched_structures_are_not_isomorphic(self):
        left = {pos(Atom("p", (n1, n1)))}
        right = {pos(Atom("p", (n1, n2)))}
        assert not are_x_isomorphic(left, right)

    def test_different_domain_sizes_are_not_isomorphic(self):
        left = {pos(Atom("p", (n1,)))}
        right = {pos(Atom("p", (n1,))), pos(Atom("p", (n2,)))}
        assert not are_x_isomorphic(left, right)

    def test_search_domain_guard(self):
        left = {pos(Atom("p", tuple(FunctionTerm(f"x{i}", ()) for i in range(15))))}
        right = {pos(Atom("p", tuple(FunctionTerm(f"y{i}", ()) for i in range(15))))}
        with pytest.raises(ValueError):
            x_isomorphism(left, right)


class TestTypeCounting:
    def test_bound_grows_with_schema(self):
        assert max_type_count(1, 1) < max_type_count(2, 1) < max_type_count(2, 2)

    def test_propositional_corner_case(self):
        assert max_type_count(3, 0) == 3 * 2**3

    def test_bound_is_positive(self):
        assert max_type_count(1, 1) > 0
