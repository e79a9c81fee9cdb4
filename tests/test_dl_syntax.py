"""Tests for the DL-Lite_{R,⊓,not} abstract syntax (:mod:`repro.dl.syntax`)."""

from __future__ import annotations

import pytest

from repro.exceptions import TranslationError
from repro.dl.syntax import (
    ABox,
    AtomicConcept,
    ConceptInclusion,
    ConceptLiteral,
    ExistentialConcept,
    Ontology,
    Role,
    RoleInclusion,
    TBox,
)


class TestRolesAndConcepts:
    def test_role_inversion(self):
        role = Role("advises")
        assert role.inverted() == Role("advises", True)
        assert role.inverted().inverted() == role
        assert str(role.inverted()) == "advises-"

    def test_basic_concept_strings(self):
        assert str(AtomicConcept("Person")) == "Person"
        assert str(ExistentialConcept(Role("worksFor"))) == "exists worksFor"
        assert str(ConceptLiteral(AtomicConcept("A"), False)) == "not A"


class TestConceptInclusions:
    def test_lhs_must_be_non_empty(self):
        with pytest.raises(TranslationError):
            ConceptInclusion((), AtomicConcept("A"))

    def test_lhs_needs_a_positive_conjunct(self):
        with pytest.raises(TranslationError):
            ConceptInclusion(
                (ConceptLiteral(AtomicConcept("A"), False),), AtomicConcept("B")
            )

    def test_positive_and_negative_lhs_views(self):
        axiom = ConceptInclusion(
            (
                ConceptLiteral(AtomicConcept("Person")),
                ConceptLiteral(ExistentialConcept(Role("employeeID")), False),
            ),
            AtomicConcept("JobSeeker"),
        )
        assert len(axiom.positive_lhs()) == 1
        assert len(axiom.negative_lhs()) == 1


class TestBoxes:
    def test_tbox_partitions_axioms(self):
        tbox = TBox(
            [
                ConceptInclusion((ConceptLiteral(AtomicConcept("A")),), AtomicConcept("B")),
                RoleInclusion(Role("r"), Role("s")),
            ]
        )
        assert len(tbox.concept_inclusions()) == 1
        assert len(tbox.role_inclusions()) == 1
        assert len(tbox) == 2

    def test_abox_individuals(self):
        abox = ABox()
        abox.assert_concept("Person", "alice")
        abox.assert_role("knows", "alice", "bob")
        assert abox.individuals() == {"alice", "bob"}
        assert len(abox) == 2


class TestOntologyBuilder:
    def test_string_shorthands(self):
        ontology = Ontology()
        axiom = ontology.subclass(["Person", "not Employed", ("not", "exists EmployeeID")],
                                  "exists JobSeekerID")
        assert len(axiom.positive_lhs()) == 1
        assert len(axiom.negative_lhs()) == 2
        rhs = axiom.rhs
        assert isinstance(rhs, ExistentialConcept) and rhs.role == Role("JobSeekerID")

    def test_single_concept_lhs(self):
        ontology = Ontology()
        axiom = ontology.subclass("ConferencePaper", "Article")
        assert axiom.lhs == (ConceptLiteral(AtomicConcept("ConferencePaper")),)

    def test_inverse_roles_in_strings(self):
        ontology = Ontology()
        axiom = ontology.subclass("exists EmployeeID-", "ValidID")
        concept = axiom.lhs[0].concept
        assert isinstance(concept, ExistentialConcept) and concept.role.inverse

    def test_subrole_parsing(self):
        ontology = Ontology()
        axiom = ontology.subrole("Advises", "Mentors-")
        assert axiom.lhs == Role("Advises") and axiom.rhs == Role("Mentors", True)

    def test_name_collections(self):
        ontology = Ontology()
        ontology.subclass("Scientist", "exists IsAuthorOf")
        ontology.subrole("IsAuthorOf", "Contributes")
        ontology.abox.assert_concept("Scientist", "john")
        assert "Scientist" in ontology.concept_names()
        assert {"IsAuthorOf", "Contributes"} <= ontology.role_names()

    def test_malformed_literal_tuple_is_rejected(self):
        with pytest.raises(TranslationError):
            Ontology().subclass([("nope", "A")], "B")
