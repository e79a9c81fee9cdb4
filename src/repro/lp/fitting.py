"""Fitting's operator and the Kripke–Kleene semantics of normal programs.

The Kripke–Kleene (Fitting) semantics is the third classical three-valued
semantics next to the WFS and the stable-model semantics, and the standard
point of comparison in the literature the paper builds on (it is the least
fixpoint of Fitting's operator Φ_P, which derives an atom true when *some*
rule body is true and false when *every* rule body is false).  It is weaker
than the WFS: every Kripke–Kleene consequence is a well-founded consequence,
but the WFS additionally falsifies atoms whose support is circular (e.g.
``p ← p`` is false under the WFS and undefined under Kripke–Kleene).

The module exists for exactly that comparison (the test-suite asserts the
containment on random programs), and because Fitting's operator is a useful
building block when explaining why unfounded sets — and not just "all bodies
false" — are needed to capture the paper's Example 4.

:func:`fitting_operator` is the single-step reference transcription of Φ_P.
:func:`kripke_kleene_model` computes ``lfp(Φ_P)`` directly with a two-sided
worklist over the program's :class:`~repro.lp.fixpoint.RuleIndex`: per rule a
counter of body literals not yet satisfied (fires the head *true* at zero)
and per head a counter of not-yet-blocked rules (fires the head *false* at
zero).  Each rule–atom incidence is processed at most twice, so the least
fixpoint costs time linear in the program instead of ``rules × iterations``.
Both are equivalent; the tests check the closure against iterating the
operator.
"""

from __future__ import annotations

from ..lang.atoms import Atom
from .grounding import GroundProgram
from .interpretation import Interpretation
from .wfs import WellFoundedModel

__all__ = ["fitting_operator", "kripke_kleene_model"]


def fitting_operator(program: GroundProgram, interpretation: Interpretation) -> Interpretation:
    """One application of Fitting's operator Φ_P to a three-valued interpretation.

    * an atom becomes **true** if some rule with that head has every positive
      body atom true and every negative body atom false in *interpretation*;
    * an atom becomes **false** if every rule with that head (possibly none)
      has a positive body atom false or a negative body atom true.
    """
    true_atoms: set[Atom] = set()
    false_atoms: set[Atom] = set()
    universe = program.atoms()
    for atom in universe:
        rules = program.rules_with_head(atom)
        some_body_true = any(
            all(interpretation.is_true(b) for b in rule.body_pos)
            and all(interpretation.is_false(b) for b in rule.body_neg)
            for rule in rules
        )
        every_body_false = all(
            any(interpretation.is_false(b) for b in rule.body_pos)
            or any(interpretation.is_true(b) for b in rule.body_neg)
            for rule in rules
        )
        if some_body_true:
            true_atoms.add(atom)
        elif every_body_false:
            false_atoms.add(atom)
    return Interpretation(true_atoms, false_atoms - true_atoms)


def kripke_kleene_model(program: GroundProgram, *, max_iterations: int = 100_000) -> WellFoundedModel:
    """The Kripke–Kleene model: the least fixpoint of Fitting's operator.

    Computed as a worklist closure over the rule index (see the module
    docstring); monotonicity of Φ_P makes the closure order-independent and
    equal to the iterated least fixpoint.  Returned as a
    :class:`~repro.lp.wfs.WellFoundedModel` wrapper (the class is just
    "three-valued model over a relevant universe"), so it supports the same
    query API and can be compared literal-by-literal with the WFS.

    ``max_iterations`` is kept for API compatibility; the worklist always
    terminates after at most one event per atom.
    """
    index = program.index()
    universe = program.atoms()
    num_atoms = index.atom_count()
    true_ids: set[int] = set()
    false_ids: set[int] = set()
    # Per rule: body literals not yet satisfied (pos must become true, neg false).
    unsatisfied: list[int] = [0] * len(index)
    rule_blocked: list[bool] = [False] * len(index)
    # Per head atom id: rules that could still fire it true.
    unblocked_rules: list[int] = [0] * num_atoms
    events: list[tuple[int, bool]] = []  # (atom id, value) still to propagate

    def assign(atom_id: int, value: bool) -> None:
        if atom_id in true_ids or atom_id in false_ids:
            return  # already decided; Φ_P never revises a value
        (true_ids if value else false_ids).add(atom_id)
        events.append((atom_id, value))

    def block(rule_id: int) -> None:
        if rule_blocked[rule_id]:
            return
        rule_blocked[rule_id] = True
        head_id = index.head_id(rule_id)
        unblocked_rules[head_id] -= 1
        if unblocked_rules[head_id] == 0:
            assign(head_id, False)

    for rule_id in range(len(index)):
        unblocked_rules[index.head_id(rule_id)] += 1
        unsatisfied[rule_id] = len(index.pos_ids(rule_id)) + len(index.neg_ids(rule_id))
    for atom_id in range(num_atoms):
        if not index.rule_ids_for_head_id(atom_id):
            assign(atom_id, False)  # no rule at all: every (zero) bodies are false
    for rule_id in range(len(index)):
        if unsatisfied[rule_id] == 0:
            assign(index.head_id(rule_id), True)  # a fact

    while events:
        atom_id, value = events.pop()
        if value:
            for rule_id in index.watchers_pos_id(atom_id):  # pos atom true: one literal down
                unsatisfied[rule_id] -= 1
                if unsatisfied[rule_id] == 0 and not rule_blocked[rule_id]:
                    assign(index.head_id(rule_id), True)
            for rule_id in index.watchers_neg_id(atom_id):  # neg atom true: rule blocked
                block(rule_id)
        else:
            for rule_id in index.watchers_neg_id(atom_id):  # neg atom false: one literal down
                unsatisfied[rule_id] -= 1
                if unsatisfied[rule_id] == 0 and not rule_blocked[rule_id]:
                    assign(index.head_id(rule_id), True)
            for rule_id in index.watchers_pos_id(atom_id):  # pos atom false: rule blocked
                block(rule_id)

    interpretation = Interpretation(index.atoms_of(true_ids), index.atoms_of(false_ids))
    return WellFoundedModel(interpretation, universe)
