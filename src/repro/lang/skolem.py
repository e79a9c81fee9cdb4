"""The functional (Skolem) transformation Σ ↦ Σ^f (Sec. 2.4 of the paper).

Given an NTGD ``σ = Φ(X, Y) → ∃Z Ψ(X, Z)``, its functional transformation
``σ^f`` is the normal rule ``Φ(X, Y) → Ψ(X, f_σ(X, Y))`` where ``f_σ`` is a
vector of fresh function symbols ``f_{σ,Z}``, one per existential variable
``Z``.  The functional transformation of a program Σ replaces every NTGD by
its functional transformation; the well-founded semantics of a database ``D``
under Σ is then defined as ``WFS(D ∪ Σ^f)`` (Definition 3).

Two details matter for reproducibility:

* **Skolem argument order** — the paper writes ``f_σ(X, Y)``; we use the
  universally quantified variables of σ in order of first occurrence in the
  positive body.  Example 4 of the paper uses ``f(X, Y, Z)`` for the rule
  ``R(X, Y, Z) → ∃W R(X, Z, W)``, i.e. all three body variables, which this
  convention reproduces.
* **Skolem naming** — function symbols are named deterministically from the
  rule's label (if any) or its position in the program, plus the existential
  variable's name, so re-running the transformation yields identical terms.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .atoms import Atom
from .program import DatalogPMProgram, NormalProgram
from .rules import NTGD, NormalRule
from .substitution import Substitution
from .terms import FunctionTerm, Variable

__all__ = ["skolemize_ntgd", "skolemize_program", "skolem_function_name"]


def skolem_function_name(rule_id: str, variable: Variable) -> str:
    """Deterministic name of the Skolem function ``f_{σ,Z}``.

    ``rule_id`` identifies the NTGD σ (its label or its index in the program)
    and *variable* is the existential variable ``Z``.
    """
    return f"sk_{rule_id}_{variable.name}"


def _universal_variable_order(ntgd: NTGD) -> list[Variable]:
    """Universally quantified variables in order of first occurrence in the body."""
    seen: list[Variable] = []
    seen_set: set[Variable] = set()
    for atom in ntgd.body_pos:
        for variable in _variables_in_order(atom):
            if variable not in seen_set:
                seen_set.add(variable)
                seen.append(variable)
    return seen


def _variables_in_order(atom: Atom) -> list[Variable]:
    """Variables of *atom* in argument order (recursing into function terms)."""
    result: list[Variable] = []

    def visit(term) -> None:
        if isinstance(term, Variable):
            result.append(term)
        elif isinstance(term, FunctionTerm):
            for arg in term.args:
                visit(arg)

    for arg in atom.args:
        visit(arg)
    return result


def skolemize_ntgd(ntgd: NTGD, rule_id: Optional[str] = None) -> NormalRule:
    """Return the functional transformation ``σ^f`` of a single NTGD.

    Every Skolem term takes all universally quantified variables of σ as
    arguments, in body order (the paper's convention).

    Parameters
    ----------
    ntgd:
        The NTGD σ to transform.
    rule_id:
        Identifier used in the Skolem function names.  Defaults to the NTGD's
        ``label`` or ``"r"``.
    """
    if rule_id is None:
        rule_id = ntgd.label or "r"
    existentials = sorted(ntgd.existential_variables(), key=lambda v: v.name)
    if not existentials:
        return NormalRule(ntgd.head, ntgd.body_pos, ntgd.body_neg)

    argument_vars = tuple(_universal_variable_order(ntgd))
    mapping = {
        z: FunctionTerm(skolem_function_name(rule_id, z), argument_vars)
        for z in existentials
    }
    substitution = Substitution(mapping)
    new_head = substitution.apply_atom(ntgd.head)
    return NormalRule(new_head, ntgd.body_pos, ntgd.body_neg)


def skolemize_program(program: DatalogPMProgram | Iterable[NTGD]) -> NormalProgram:
    """Return the functional transformation ``Σ^f`` of a Datalog± program.

    Every NTGD is replaced by its functional transformation; rule identifiers
    are the NTGD labels when present, otherwise the rule's position in the
    program (``"r0"``, ``"r1"``, ...), which makes Skolem terms deterministic
    across runs.
    """
    rules: list[NormalRule] = []
    for index, ntgd in enumerate(program):
        rule_id = ntgd.label or f"r{index}"
        rules.append(skolemize_ntgd(ntgd, rule_id))
    return NormalProgram(rules)
