"""Translation of DL-Lite_{R,⊓,not} ontologies into guarded normal Datalog±.

The paper (Sec. 1, Example 2) points out that DL-Lite_{R,⊓,not} ontologies
"can be translated into corresponding guarded normal Datalog± programs"; this
module carries out the translation.  Concepts become unary predicates, roles
become binary predicates, and each axiom becomes one guarded NTGD (plus small
auxiliary rules when a *negated* existential appears on a left-hand side,
because NTGD bodies are conjunctions of atoms, not of existential formulas).

Translation table (X, Y fresh variables; ``r``/``a`` the role/concept predicates):

=============================  =====================================================
Axiom                          NTGD(s)
=============================  =====================================================
A ⊑ B                          a(X) → b(X)
A ⊑ ∃R                         a(X) → ∃Y r(X, Y)
A ⊑ ∃R⁻                        a(X) → ∃Y r(Y, X)
∃R ⊑ B                         r(X, Y) → b(X)
∃R⁻ ⊑ B                        r(X, Y) → b(Y)
L₁ ⊓ … ⊓ Lₙ ⊑ C                body literals as below, head as above
  positive Lᵢ = A              a(X)
  positive Lᵢ = ∃R             r(X, Yᵢ)           (fresh Yᵢ per conjunct)
  positive Lᵢ = ∃R⁻            r(Yᵢ, X)
  negated  Lᵢ = not A          not a(X)
  negated  Lᵢ = not ∃R         not ex_r(X)        + auxiliary rule r(X, Y) → ex_r(X)
  negated  Lᵢ = not ∃R⁻        not exinv_r(X)     + auxiliary rule r(X, Y) → exinv_r(Y)
R ⊑ S                          r(X, Y) → s(X, Y)
R ⊑ S⁻  (or R⁻ ⊑ S)            r(X, Y) → s(Y, X)
R⁻ ⊑ S⁻                        r(X, Y) → s(X, Y)
=============================  =====================================================

Guardedness: when the left-hand side has a single positive conjunct its atom
is the guard (it contains X, and — for existentials — its own fresh variable).
With *several* positive conjuncts the rule would not be guarded if any of
them were an existential (each introduces its own fresh variable that no
single atom covers); in that case existential positive conjuncts are replaced
by their auxiliary ``ex_r`` / ``exinv_r`` atoms as well, so that all body
atoms share the single variable X and the first positive atom is a guard.

The ABox becomes the database: ``A(a)`` ↦ ``a(a)``, ``R(a, b)`` ↦ ``r(a, b)``.
"""

from __future__ import annotations

from typing import Union

from ..exceptions import TranslationError
from ..lang.atoms import Atom
from ..lang.program import Database, DatalogPMProgram
from ..lang.rules import NTGD
from ..lang.terms import Constant, Variable
from .syntax import (
    ABox,
    AtomicConcept,
    BasicConcept,
    ConceptAssertion,
    ConceptInclusion,
    Ontology,
    Role,
    RoleInclusion,
    TBox,
)

__all__ = [
    "concept_predicate",
    "role_predicate",
    "exists_predicate",
    "translate_ontology",
    "translate_tbox",
    "translate_abox",
]

_X = Variable("X")
_Y = Variable("Y")


def concept_predicate(concept: Union[AtomicConcept, str]) -> str:
    """The unary predicate name used for an atomic concept."""
    name = concept.name if isinstance(concept, AtomicConcept) else concept
    return _normalise(name)


def role_predicate(role: Union[Role, str]) -> str:
    """The binary predicate name used for a role."""
    name = role.name if isinstance(role, Role) else role
    return _normalise(name)


def exists_predicate(role: Role) -> str:
    """The auxiliary unary predicate standing for ``∃R`` (or ``∃R⁻``)."""
    suffix = "_inv" if role.inverse else ""
    return f"ex_{_normalise(role.name)}{suffix}"


def _normalise(name: str) -> str:
    """Predicate names are kept as-is apart from lower-casing the first letter.

    The textual program syntax treats identifiers starting with an upper-case
    letter as variables, so ``Person`` becomes ``person``; everything else
    (camel case, underscores) is preserved.
    """
    if not name:
        raise TranslationError("empty concept/role name")
    return name[0].lower() + name[1:]


def _role_atom(role: Role, subject, object_) -> Atom:
    """The binary atom for a role, honouring inversion."""
    if role.inverse:
        return Atom(role_predicate(role), (object_, subject))
    return Atom(role_predicate(role), (subject, object_))


def _head_atom(rhs: BasicConcept) -> tuple[Atom, bool]:
    """Head atom for a right-hand-side basic concept.

    Returns ``(atom, has_existential)``: for ``∃R`` the atom is
    ``r(X, Y)`` (or ``r(Y, X)`` for the inverse) and ``Y`` is existentially
    quantified because it does not occur in the body.
    """
    if isinstance(rhs, AtomicConcept):
        return Atom(concept_predicate(rhs), (_X,)), False
    return _role_atom(rhs.role, _X, _Y), True


def translate_concept_inclusion(
    axiom: ConceptInclusion,
    *,
    fresh_counter: list[int],
) -> list[NTGD]:
    """Translate one extended concept inclusion into NTGDs (plus auxiliaries)."""
    ntgds: list[NTGD] = []
    positives = axiom.positive_lhs()
    negatives = axiom.negative_lhs()

    body_pos: list[Atom] = []
    body_neg: list[Atom] = []

    # If there is more than one positive conjunct, positive existentials are
    # routed through their auxiliary predicate so the first atom guards the rule.
    use_aux_for_positive_existentials = len(positives) > 1

    for literal in positives:
        concept = literal.concept
        if isinstance(concept, AtomicConcept):
            body_pos.append(Atom(concept_predicate(concept), (_X,)))
        else:
            if use_aux_for_positive_existentials:
                body_pos.append(Atom(exists_predicate(concept.role), (_X,)))
                ntgds.extend(_auxiliary_rules(concept.role))
            else:
                fresh_counter[0] += 1
                fresh = Variable(f"Y{fresh_counter[0]}")
                body_pos.append(_role_atom(concept.role, _X, fresh))

    for literal in negatives:
        concept = literal.concept
        if isinstance(concept, AtomicConcept):
            body_neg.append(Atom(concept_predicate(concept), (_X,)))
        else:
            body_neg.append(Atom(exists_predicate(concept.role), (_X,)))
            ntgds.extend(_auxiliary_rules(concept.role))

    head, _ = _head_atom(axiom.rhs)
    ntgds.append(NTGD(tuple(body_pos), head, tuple(body_neg)))
    return ntgds


def _auxiliary_rules(role: Role) -> list[NTGD]:
    """The auxiliary rule defining ``ex_r`` / ``exinv_r`` for a role."""
    predicate = exists_predicate(role)
    if role.inverse:
        body = Atom(role_predicate(role), (_Y, _X))
    else:
        body = Atom(role_predicate(role), (_X, _Y))
    return [NTGD((body,), Atom(predicate, (_X,)))]


def translate_role_inclusion(axiom: RoleInclusion) -> NTGD:
    """Translate a role inclusion ``R ⊑ S`` into a single TGD."""
    body = _role_atom(axiom.lhs, _X, _Y)
    head = _role_atom(axiom.rhs, _X, _Y)
    return NTGD((body,), head)


def translate_tbox(tbox: TBox) -> DatalogPMProgram:
    """Translate every axiom of a TBox; duplicate auxiliary rules are merged."""
    program = DatalogPMProgram()
    fresh_counter = [0]
    for axiom in tbox:
        if isinstance(axiom, ConceptInclusion):
            for ntgd in translate_concept_inclusion(axiom, fresh_counter=fresh_counter):
                program.add(ntgd)
        else:
            program.add(translate_role_inclusion(axiom))
    return program


def translate_abox(abox: ABox) -> Database:
    """Translate ABox assertions into database facts."""
    database = Database()
    for assertion in abox:
        if isinstance(assertion, ConceptAssertion):
            database.add(
                Atom(concept_predicate(assertion.concept), (Constant(assertion.individual),))
            )
        else:
            database.add(
                Atom(
                    role_predicate(assertion.role),
                    (Constant(assertion.subject), Constant(assertion.object)),
                )
            )
    return database


def translate_ontology(ontology: Ontology) -> tuple[DatalogPMProgram, Database]:
    """Translate an ontology into ``(guarded normal Datalog± program, database)``.

    The resulting program is guarded by construction; this is re-checked and a
    :class:`~repro.exceptions.TranslationError` is raised if an axiom slipped
    through unguarded (which would indicate a bug or an unsupported axiom).
    """
    program = translate_tbox(ontology.tbox)
    for ntgd in program:
        if not ntgd.is_guarded():
            raise TranslationError(f"translated rule is not guarded: {ntgd}")
    return program, translate_abox(ontology.abox)
