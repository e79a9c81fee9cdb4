"""Tests for the WCHECK-style path membership checks (:mod:`repro.core.wcheck`)."""

from __future__ import annotations

from repro.lang.atoms import Literal
from repro.lang.parser import parse_atom
from repro.core.wcheck import path_witness, wcheck_atom, wcheck_literal


class TestPositiveMembership:
    def test_true_atoms_have_witnessing_paths(self, paper_example_engine):
        model = paper_example_engine.model()
        for atom_text in ("p(0,0)", "p(0,1)", "t(0)"):
            assert wcheck_atom(model, parse_atom(atom_text)), atom_text

    def test_false_atoms_have_no_witnessing_path(self, paper_example_engine):
        model = paper_example_engine.model()
        for atom_text in ("q(1)", "s(0)"):
            assert not wcheck_atom(model, parse_atom(atom_text)), atom_text

    def test_atom_absent_from_the_forest_is_not_derivable(self, paper_example_engine):
        assert not wcheck_atom(paper_example_engine.model(), parse_atom("q(0)"))

    def test_accepts_engine_or_model(self, paper_example_engine):
        atom = parse_atom("t(0)")
        assert wcheck_atom(paper_example_engine, atom) == wcheck_atom(
            paper_example_engine.model(), atom
        )


class TestNegativeMembership:
    def test_false_atoms_are_confirmed_negative(self, paper_example_engine):
        model = paper_example_engine.model()
        assert wcheck_literal(model, Literal(parse_atom("s(0)"), False))
        assert wcheck_literal(model, Literal(parse_atom("q(1)"), False))

    def test_true_atoms_are_not_confirmed_negative(self, paper_example_engine):
        model = paper_example_engine.model()
        assert not wcheck_literal(model, Literal(parse_atom("t(0)"), False))

    def test_atoms_without_nodes_are_vacuously_false(self, paper_example_engine):
        model = paper_example_engine.model()
        assert wcheck_literal(model, Literal(parse_atom("q(0)"), False))

    def test_positive_literals_delegate_to_wcheck_atom(self, paper_example_engine):
        model = paper_example_engine.model()
        assert wcheck_literal(model, Literal(parse_atom("t(0)"), True))


class TestAgreementWithTheFixpoint:
    def test_wcheck_agrees_with_the_model_on_every_segment_atom(self, paper_example_engine):
        # The path criterion of Sec. 4 is sufficient and necessary; on the
        # materialised segment it must therefore agree with the engine's
        # fixpoint on every atom.
        model = paper_example_engine.model()
        for atom in model.segment_atoms():
            assert wcheck_atom(model, atom) == model.is_true(atom), atom

    def test_recursive_mode_agrees_on_the_papers_key_literals(self, paper_example_engine):
        model = paper_example_engine.model()
        for atom_text, expected in [
            ("p(0,0)", True),
            ("p(0,1)", True),
            ("t(0)", True),
            ("q(1)", False),
        ]:
            assert wcheck_atom(model, parse_atom(atom_text), recursive=True) == expected


class TestWitnesses:
    def test_witness_path_starts_at_a_database_fact(self, paper_example_engine):
        model = paper_example_engine.model()
        path = path_witness(model, parse_atom("t(0)"))
        assert path is not None
        assert path[0] in (parse_atom("r(0,0,1)"), parse_atom("p(0,0)"))
        assert path[-1] == parse_atom("t(0)")

    def test_no_witness_for_false_atoms(self, paper_example_engine):
        assert path_witness(paper_example_engine.model(), parse_atom("s(0)")) is None
