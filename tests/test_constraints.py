"""Tests for negative constraints and EGDs (:mod:`repro.core.constraints`),
the extension the paper's conclusion lists as future work."""

from __future__ import annotations

import pytest

from repro.exceptions import IllFormedRuleError
from repro.lang.atoms import Atom
from repro.lang.terms import Constant, Variable
from repro.core.constraints import (
    EGD,
    NegativeConstraint,
    check_constraints,
    is_consistent,
)
from repro.core.engine import WellFoundedEngine

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

EMPLOYMENT = """
person(X), employed(X), not hasJobSeekerId(X) -> exists Y employeeId(X, Y).
jobSeekerId(X, Y) -> hasJobSeekerId(X).
person(a). person(b). employed(a). employed(b).
jobSeekerId(b, id7).
"""


def employment_engine() -> WellFoundedEngine:
    return WellFoundedEngine(EMPLOYMENT)


class TestNegativeConstraints:
    def test_satisfied_constraint_reports_no_violation(self):
        engine = employment_engine()
        # nobody both holds a job-seeker ID and an employee ID
        constraint = NegativeConstraint(
            (Atom("employeeId", (X, Y)), Atom("jobSeekerId", (X, Z))), ()
        )
        assert check_constraints(engine, [constraint]) == []
        assert is_consistent(engine, [constraint])

    def test_violated_constraint_reports_a_witness(self):
        engine = employment_engine()
        # "no employed person may have a job-seeker ID" is violated by b
        constraint = NegativeConstraint(
            (Atom("employed", (X,)), Atom("jobSeekerId", (X, Y))), ()
        )
        violations = check_constraints(engine, [constraint])
        assert len(violations) == 1
        violation = violations[0]
        assert violation.hard
        assert violation.witness[X] == Constant("b")
        assert not is_consistent(engine, [constraint])

    def test_negated_body_atoms_use_well_founded_falsity(self):
        engine = employment_engine()
        # "every person must be employed" phrased as a constraint with negation:
        # person(X), not employed(X) -> false.  All persons are employed here.
        fine = NegativeConstraint((Atom("person", (X,)),), (Atom("employed", (X,)),))
        assert check_constraints(engine, [fine]) == []

        # but "no person may be employed" is clearly violated
        broken = NegativeConstraint((Atom("person", (X,)),), (Atom("unemployed", (X,)),))
        assert len(check_constraints(engine, [broken])) == 1

    def test_empty_positive_body_is_rejected(self):
        with pytest.raises(IllFormedRuleError):
            NegativeConstraint((), (Atom("p", (X,)),))

    def test_string_rendering(self):
        constraint = NegativeConstraint((Atom("p", (X,)),), (Atom("q", (X,)),))
        assert str(constraint) == "p(X), not q(X) -> false."


class TestEGDs:
    def test_functional_role_without_violation(self):
        engine = WellFoundedEngine(
            """
            worksFor(X, Y) -> employedBy(X, Y).
            worksFor(ann, acme). worksFor(bob, globex).
            """
        )
        egd = EGD((Atom("employedBy", (X, Y)), Atom("employedBy", (X, Z))), Y, Z)
        assert check_constraints(engine, [egd]) == []

    def test_hard_violation_on_distinct_constants(self):
        engine = WellFoundedEngine(
            """
            worksFor(X, Y) -> employedBy(X, Y).
            worksFor(ann, acme). worksFor(ann, globex).
            """
        )
        egd = EGD((Atom("employedBy", (X, Y)), Atom("employedBy", (X, Z))), Y, Z)
        violations = check_constraints(engine, [egd])
        assert violations and all(v.hard for v in violations)
        assert not is_consistent(engine, [egd])

    def test_soft_violation_when_a_null_is_involved(self):
        engine = WellFoundedEngine(
            """
            person(X) -> exists Y employeeId(X, Y).
            employeeId(ann, id1).
            person(ann).
            """
        )
        # ann has the asserted id1 and a Skolem null id: the EGD would have to
        # equate a null with a constant — a *soft* violation (separability issue),
        # not an outright inconsistency under the UNA.
        egd = EGD((Atom("employeeId", (X, Y)), Atom("employeeId", (X, Z))), Y, Z)
        violations = check_constraints(engine, [egd])
        assert violations
        assert all(not v.hard for v in violations)
        assert is_consistent(engine, [egd])
        assert not is_consistent(engine, [egd], treat_soft_as_violation=True)

    def test_equality_variable_must_occur_in_the_body(self):
        with pytest.raises(IllFormedRuleError):
            EGD((Atom("p", (X,)),), X, Y)

    def test_empty_body_is_rejected(self):
        with pytest.raises(IllFormedRuleError):
            EGD((), X, X)

    def test_string_rendering(self):
        egd = EGD((Atom("p", (X, Y)),), X, Y)
        assert str(egd) == "p(X, Y) -> X = Y."


class TestMixedChecks:
    def test_check_constraints_handles_both_kinds_together(self):
        engine = employment_engine()
        constraints = [
            NegativeConstraint((Atom("employed", (X,)), Atom("jobSeekerId", (X, Y))), ()),
            EGD((Atom("jobSeekerId", (X, Y)), Atom("jobSeekerId", (X, Z))), Y, Z),
        ]
        violations = check_constraints(engine, constraints)
        assert len(violations) == 1  # only the negative constraint fires
        assert isinstance(violations[0].constraint, NegativeConstraint)

    def test_violation_string_mentions_the_witness(self):
        engine = employment_engine()
        constraint = NegativeConstraint(
            (Atom("employed", (X,)), Atom("jobSeekerId", (X, Y))), ()
        )
        violation = check_constraints(engine, [constraint])[0]
        assert "b" in str(violation)
        assert "violation" in str(violation)
