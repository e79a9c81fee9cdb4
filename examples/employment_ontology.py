"""Ontological reasoning with default negation under the UNA (paper Example 2).

The DL-Lite_{R,⊓,not} ontology:

    Person ⊓ Employed ⊓ not ∃JobSeekerID  ⊑  ∃EmployeeID
    Person ⊓ not Employed ⊓ not ∃EmployeeID  ⊑  ∃JobSeekerID
    ∃EmployeeID⁻ ⊓ not ∃JobSeekerID⁻  ⊑  ValidID

with the ABox {Person(a), Person(b), Employed(a)}.  The paper argues that the
*standard* WFS under the unique name assumption is the right semantics here:
the employee ID created for `a` and the job-seeker ID created for `b` are
distinct nulls, so `a`'s ID is derived to be valid — something the
equality-friendly WFS (without UNA) cannot conclude.  The script also shows
why the stratified Datalog± semantics of [1] cannot handle this ontology at
all (its negation is not stratified).

Run with::

    python examples/employment_ontology.py
"""

from __future__ import annotations

from repro.dl import Ontology, OntologyReasoner
from repro.exceptions import NotStratifiedError


def build_ontology() -> Ontology:
    ontology = Ontology()
    ontology.subclass(
        ["Person", "Employed", ("not", "exists JobSeekerID")], "exists EmployeeID"
    )
    ontology.subclass(
        ["Person", ("not", "Employed"), ("not", "exists EmployeeID")], "exists JobSeekerID"
    )
    ontology.subclass(
        ["exists EmployeeID-", ("not", "exists JobSeekerID-")], "ValidID"
    )
    ontology.abox.assert_concept("Person", "a")
    ontology.abox.assert_concept("Person", "b")
    ontology.abox.assert_concept("Employed", "a")
    return ontology


def analyze_target():
    """The translated (program, database) pair for ``repro analyze`` smoke runs."""
    from repro.dl import translate_ontology

    return translate_ontology(build_ontology())


def main() -> None:
    ontology = build_ontology()
    print("TBox:")
    for axiom in ontology.tbox:
        print("  ", axiom)
    print("ABox:")
    for assertion in ontology.abox:
        print("  ", assertion)

    reasoner = OntologyReasoner(ontology)
    print("\nTranslated guarded normal Datalog± program:")
    for ntgd in reasoner.program:
        print("  ", ntgd)

    print("\nReasoning under the standard WFS with the UNA:")
    print("  a has an EmployeeID     :", reasoner.has_role_successor("EmployeeID", "a"))
    print("  b has a JobSeekerID     :", reasoner.has_role_successor("JobSeekerID", "b"))
    print("  b has an EmployeeID     :", reasoner.has_role_successor("EmployeeID", "b"))
    print("  a's ID is a ValidID     :", reasoner.holds("? employeeID(a, V), validID(V)"))
    print("    (this last derivation needs f(a) != g(b), i.e. the UNA — cf. Example 2)")

    print("\nWhy stratified Datalog± (the baseline of [1]) is not enough here:")
    try:
        reasoner.stratified_baseline()
    except NotStratifiedError as error:
        print("  stratified semantics rejected the ontology:", error)

    print("\nValidation with negative constraints and EGDs (future work of the paper,")
    print("implemented in repro.core.constraints):")
    from repro.core import EGD, NegativeConstraint, check_constraints
    from repro.lang import Variable
    from repro.lang.atoms import Atom

    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    constraints = [
        # nobody may hold both kinds of ID
        NegativeConstraint((Atom("employeeID", (x, y)), Atom("jobSeekerID", (x, z))), ()),
        # employee IDs are functional
        EGD((Atom("employeeID", (x, y)), Atom("employeeID", (x, z))), y, z),
    ]
    violations = check_constraints(reasoner.engine, constraints)
    if violations:
        for violation in violations:
            print("  ", violation)
    else:
        print("  no violations: the derived IDs are consistent")

    print("\nScaling the same ontology to more individuals:")
    from repro.bench.generators import employment_ontology

    for persons in (10, 50, 100):
        big = OntologyReasoner(employment_ontology(persons, seed=1))
        model = big.model()
        valid_ids = sum(1 for atom in model.true_atoms() if atom.predicate == "validID")
        plan = "finite plan" if model.depth is None else f"chase depth {model.depth}"
        print(f"  {persons:4d} persons -> {valid_ids:3d} valid IDs derived "
              f"({plan}, chase forest of {len(model.forest())} nodes)")


if __name__ == "__main__":
    main()
