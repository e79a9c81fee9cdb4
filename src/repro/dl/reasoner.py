"""Ontology reasoning under the standard WFS (the paper's Example 2 workflow).

:class:`OntologyReasoner` glues the pieces together: a DL-Lite_{R,⊓,not}
ontology is translated into a guarded normal Datalog± program plus a database
(:mod:`repro.dl.translate`), and queries are answered over ``WFS(D, Σ)`` by a
:class:`~repro.core.engine.WellFoundedEngine`.  Because the engine works
under the unique name assumption, the reasoner exhibits exactly the behaviour
the paper argues for in Example 2: distinct Skolem nulls produced for the
employee ID of ``a`` and the job-seeker ID of ``b`` are *different* values,
so the ID of ``a`` is derived to be valid.
"""

from __future__ import annotations

from typing import Union

from ..lang.atoms import Atom
from ..lang.queries import NormalBCQ
from ..lang.terms import Constant
from ..core.engine import DatalogWellFoundedModel, WellFoundedEngine
from ..core.stratified import StratifiedDatalogPM
from .syntax import AtomicConcept, Ontology, Role
from .translate import concept_predicate, role_predicate, translate_ontology

__all__ = ["OntologyReasoner"]


class OntologyReasoner:
    """Query answering over a DL-Lite_{R,⊓,not} ontology under WFS + UNA.

    Parameters
    ----------
    ontology:
        The ontology (TBox + ABox) to reason over.
    engine_options:
        Forwarded to :class:`~repro.core.engine.WellFoundedEngine` (depth
        schedule, strictness, ...).
    """

    def __init__(self, ontology: Ontology, **engine_options):
        self.ontology = ontology
        self.program, self.database = translate_ontology(ontology)
        self._engine = WellFoundedEngine(self.program, self.database, **engine_options)

    # -- low-level access ------------------------------------------------------------

    @property
    def engine(self) -> WellFoundedEngine:
        """The underlying well-founded engine (for advanced inspection)."""
        return self._engine

    def model(self) -> DatalogWellFoundedModel:
        """The well-founded model of the translated ontology."""
        return self._engine.model()

    # -- entailment API ----------------------------------------------------------------

    def holds(self, query: Union[NormalBCQ, str, Atom]) -> bool:
        """Does the NBCQ (in Datalog± predicate syntax) hold under the WFS?"""
        return self._engine.holds(query)

    def instance_of(self, concept: Union[AtomicConcept, str], individual: str) -> bool:
        """Is *individual* an instance of the atomic concept (true in the WFS)?"""
        atom = Atom(concept_predicate(concept), (Constant(individual),))
        return self.model().is_true(atom)

    def concept_members(self, concept: Union[AtomicConcept, str]) -> set[str]:
        """The ABox individuals that are (well-founded) members of the concept."""
        predicate = concept_predicate(concept)
        model = self.model()
        members: set[str] = set()
        for individual in self.ontology.abox.individuals():
            if model.is_true(Atom(predicate, (Constant(individual),))):
                members.add(individual)
        return members

    def related(
        self, role: Union[Role, str], subject: str, object: str
    ) -> bool:
        """Is ``R(subject, object)`` true in the well-founded model?"""
        atom = Atom(role_predicate(role), (Constant(subject), Constant(object)))
        return self.model().is_true(atom)

    def has_role_successor(self, role: Union[Role, str], subject: str) -> bool:
        """Does *subject* have some R-successor (possibly an anonymous null)?"""
        predicate = role_predicate(role)
        return self._engine.holds(f"? {predicate}({subject}, V_succ)")

    # -- baseline comparison --------------------------------------------------------------

    def stratified_baseline(self, **options) -> StratifiedDatalogPM:
        """The same ontology under the stratified Datalog± semantics of [1].

        Raises :class:`~repro.exceptions.NotStratifiedError` if the ontology's
        use of ``not`` is not stratified — which is exactly the situation the
        paper's WFS is designed to handle.
        """
        return StratifiedDatalogPM(self.program, self.database, **options)

    def __repr__(self) -> str:
        return (
            f"OntologyReasoner({len(self.ontology.tbox)} TBox axioms, "
            f"{len(self.ontology.abox)} ABox assertions)"
        )
