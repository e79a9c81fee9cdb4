"""E5 — ontological reasoning under the WFS with the UNA (Example 2 at scale).

Two ontology workloads:

* the employment ontology of Example 2, scaled in the number of persons; the
  experiment checks the paper's qualitative claim (every employed person's
  employee ID is derived to be a *valid* ID, which needs the UNA) and
  measures reasoning time;
* a LUBM-flavoured university ontology with existential axioms, an inverse
  role and default negation, where the stratified baseline is applicable:
  the well-founded model must be total and its true atoms must equal the
  stratified model's, and the default-negation rule must derive
  ``needsAdvisor`` for the expected number of students.  Both are timed.

Section ``E5`` of ``BENCH_paper.json``.
"""

from __future__ import annotations

from repro.bench.generators import employment_ontology, university_ontology
from repro.bench.harness import time_call
from repro.core.stratified import StratifiedDatalogPM
from repro.dl.reasoner import OntologyReasoner

PERSON_COUNTS = [20, 60, 120]
#: (departments, students per department) -> students needing an advisor
UNIVERSITY_SIZES = {(2, 10): 7, (4, 20): 44, (8, 30): 126}


def count_valid_ids(num_persons: int) -> int:
    model = OntologyReasoner(employment_ontology(num_persons, seed=43)).model()
    return sum(1 for atom in model.true_atoms() if atom.predicate == "validID")


def measure() -> dict:
    rows = [
        {
            "persons": persons,
            "valid_ids": count_valid_ids(persons),
            "seconds": time_call(lambda: count_valid_ids(persons), repeats=2),
        }
        for persons in PERSON_COUNTS
    ]
    university = []
    for (departments, students), needing_advisor in UNIVERSITY_SIZES.items():
        ontology = university_ontology(departments, students, seed=47)
        reasoner = OntologyReasoner(ontology)
        model = reasoner.model()
        stratified = StratifiedDatalogPM(reasoner.program, reasoner.database).model()
        needs_advisor = sum(1 for atom in model.true_atoms() if atom.predicate == "needsAdvisor")
        university.append(
            {
                "departments": departments,
                "students": students,
                "true_atoms": len(model.true_atoms()),
                "undefined_atoms": len(model.undefined_atoms()),
                "needs_advisor": needs_advisor,
                "wfs_seconds": time_call(lambda: OntologyReasoner(ontology).model(), repeats=2),
                "stratified_seconds": time_call(
                    lambda: StratifiedDatalogPM(reasoner.program, reasoner.database).model(),
                    repeats=2,
                ),
                "equals_stratified": model.true_atoms() == stratified.true_atoms(),
                "needs_advisor_as_expected": needs_advisor == needing_advisor,
            }
        )
    return {
        "results": rows,
        "university": university,
        "all_valid_ids_derived": all(row["valid_ids"] > 0 for row in rows),
        "university_wfs_total": all(row["undefined_atoms"] == 0 for row in university),
        "university_wfs_equals_stratified": all(row["equals_stratified"] for row in university),
        "university_needs_advisor_as_expected": all(
            row["needs_advisor_as_expected"] for row in university
        ),
    }
