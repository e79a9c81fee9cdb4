"""A larger ontology-based data access scenario: the university ontology.

This example exercises the DL front-end on a LUBM-flavoured ontology with
existential axioms, an inverse role, a role inclusion and default negation
("students not known to be advised need an advisor"), and shows the three
query modalities the library offers: instance checks, concept retrieval and
NBCQs with negation.

Run with::

    python examples/university_ontology.py
"""

from __future__ import annotations

from repro.dl import OntologyReasoner
from repro.bench.generators import university_ontology


def analyze_target():
    """The translated (program, database) pair for ``repro analyze`` smoke runs."""
    from repro.dl import translate_ontology

    ontology = university_ontology(num_departments=3, students_per_department=6,
                                   advised_fraction=0.5, seed=2026)
    return translate_ontology(ontology)


def main() -> None:
    ontology = university_ontology(num_departments=3, students_per_department=6,
                                   advised_fraction=0.5, seed=2026)
    print("TBox:")
    for axiom in ontology.tbox:
        print("  ", axiom)
    print(f"ABox: {len(ontology.abox)} assertions over "
          f"{len(ontology.abox.individuals())} individuals")

    reasoner = OntologyReasoner(ontology)
    model = reasoner.model()
    plan = "finite plan" if model.depth is None else f"chase depth {model.depth}"
    print(f"\nWell-founded model: {len(model.true_atoms())} true atoms, "
          f"{plan}, converged={model.converged}")

    print("\nInstance checks:")
    print("  Employee(prof0)      :", reasoner.instance_of("Employee", "prof0"))
    print("  Advised(student0_0)  :", reasoner.instance_of("Advised", "student0_0"))

    print("\nConcept retrieval:")
    advised = reasoner.concept_members("Advised")
    print(f"  advised students     : {len(advised)}")
    unadvised = [
        person
        for person in sorted(reasoner.concept_members("Student"))
        if person not in advised
    ]
    print(f"  students needing an advisor ({len(unadvised)}):", ", ".join(unadvised[:6]),
          "..." if len(unadvised) > 6 else "")

    print("\nNBCQs:")
    for query in (
        "? student(X), needsAdvisor(X, V)",
        "? professor(X), mentors(X, Y)",
        "? student(X), not advised(X), enrolledIn(X, dept0)",
    ):
        print(f"  {query:52s} -> {reasoner.holds(query)}")

    print("\nComparison with the stratified Datalog± baseline of [1]:")
    baseline = reasoner.stratified_baseline()
    for query in ("? employee(prof0)", "? needsAdvisor(student0_0, V)"):
        print(f"  {query:36s} WFS={reasoner.holds(query)}  stratified={baseline.holds(query)}")


if __name__ == "__main__":
    main()
