"""Negative constraints and equality-generating dependencies (EGDs).

The paper's conclusion lists "how to add negative constraints and
equality-generating dependencies (EGDs), similarly to [1]" as future work.
This module implements the straightforward part of that programme, following
the treatment of [1] (Calì, Gottlob & Lukasiewicz 2012) adapted to the
three-valued well-founded model and the UNA:

* a **negative constraint** ``∀X Φ(X) → ⊥`` is *violated* when its body — a
  conjunction of atoms and negated atoms, evaluated exactly like an NBCQ — is
  satisfied in the well-founded model;
* an **EGD** ``∀X Φ(X) → Xᵢ = Xⱼ`` is checked in the *separability* style of
  [1]: every homomorphism from Φ into the (true atoms of the) well-founded
  model must equate the two terms.  Under the UNA two distinct constants can
  never be equated, so such a match is a hard violation; a match that equates
  a labelled null with a constant or with another null is reported as a
  *soft* violation (the chase here never repairs by unification — exactly the
  situation where [1] requires separability for the semantics to be
  well-behaved).

The checker does not alter the semantics of the program: it is a validation
layer on top of a computed :class:`~repro.core.engine.DatalogWellFoundedModel`
(or an engine), mirroring how [1] first checks constraints against the chase
and then answers queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..exceptions import IllFormedRuleError
from ..lang.atoms import Atom, variables_of_atoms
from ..lang.substitution import Substitution, match
from ..lang.terms import Constant, Term, Variable
from .engine import DatalogWellFoundedModel, WellFoundedEngine

__all__ = [
    "NegativeConstraint",
    "EGD",
    "ConstraintViolation",
    "check_constraints",
    "is_consistent",
]


@dataclass(frozen=True)
class NegativeConstraint:
    """A negative constraint ``Φ(X) → ⊥`` with an NBCQ-style body.

    ``body_pos`` / ``body_neg`` are the positive and negated body atoms; the
    constraint is violated iff the body is satisfied in the well-founded
    model (positive atoms true, negated atoms false, as for NBCQs).
    """

    body_pos: tuple[Atom, ...]
    body_neg: tuple[Atom, ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body_pos", tuple(self.body_pos))
        object.__setattr__(self, "body_neg", tuple(self.body_neg))
        if not self.body_pos:
            raise IllFormedRuleError("a negative constraint needs at least one positive body atom")

    def __str__(self) -> str:
        parts = [str(a) for a in self.body_pos] + [f"not {a}" for a in self.body_neg]
        return f"{', '.join(parts)} -> false."


@dataclass(frozen=True)
class EGD:
    """An equality-generating dependency ``Φ(X) → Xᵢ = Xⱼ``.

    ``left`` and ``right`` are the two terms (usually variables of the body)
    that every homomorphism from the body into the model must equate.
    """

    body: tuple[Atom, ...]
    left: Term
    right: Term
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise IllFormedRuleError("an EGD needs a non-empty body")
        body_vars = variables_of_atoms(self.body)
        for term in (self.left, self.right):
            if isinstance(term, Variable) and term not in body_vars:
                raise IllFormedRuleError(
                    f"EGD equality variable {term} does not occur in the body"
                )

    def __str__(self) -> str:
        return f"{', '.join(str(a) for a in self.body)} -> {self.left} = {self.right}."


@dataclass(frozen=True)
class ConstraintViolation:
    """One violation found by :func:`check_constraints`.

    ``hard`` is ``True`` for negative-constraint violations and for EGD
    matches that would equate two distinct constants (impossible under the
    UNA); it is ``False`` for EGD matches that only involve labelled nulls
    (a separability warning rather than an outright inconsistency).
    """

    constraint: Union[NegativeConstraint, EGD]
    witness: dict[Variable, Term]
    hard: bool

    def __str__(self) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items(), key=lambda kv: str(kv[0])))
        kind = "violation" if self.hard else "soft violation"
        return f"{kind} of [{self.constraint}] with {{{binding}}}"


def _resolve(model_or_engine) -> DatalogWellFoundedModel:
    """Accept an engine or an already-computed model."""
    if isinstance(model_or_engine, WellFoundedEngine):
        return model_or_engine.model()
    return model_or_engine


def _matches(body: Sequence[Atom], model: DatalogWellFoundedModel):
    """Enumerate homomorphisms from *body* into the true atoms of the model."""
    index: dict[str, list[Atom]] = {}
    for atom in model.true_atoms():
        index.setdefault(atom.predicate, []).append(atom)

    def extend(patterns, subst):
        if not patterns:
            yield subst
            return
        first, rest = patterns[0], patterns[1:]
        for candidate in index.get(first.predicate, ()):
            bound = match(first, candidate, subst)
            if bound is not None:
                yield from extend(rest, bound)

    yield from extend(list(body), Substitution.empty())


def check_constraints(
    model_or_engine: Union[DatalogWellFoundedModel, WellFoundedEngine],
    constraints: Iterable[Union[NegativeConstraint, EGD]],
) -> list[ConstraintViolation]:
    """Check every constraint against the well-founded model; return violations.

    Negative constraints use full NBCQ semantics (negated body atoms must be
    *false*); EGDs are checked over the true atoms only, following [1].
    """
    model = _resolve(model_or_engine)
    violations: list[ConstraintViolation] = []
    for constraint in constraints:
        if isinstance(constraint, NegativeConstraint):
            violations.extend(_check_negative_constraint(model, constraint))
        else:
            violations.extend(_check_egd(model, constraint))
    return violations


def _check_negative_constraint(
    model: DatalogWellFoundedModel, constraint: NegativeConstraint
) -> list[ConstraintViolation]:
    """Violations of one negative constraint (at most one witness is reported)."""
    for subst in _matches(constraint.body_pos, model):
        negatives_false = all(
            model.is_false(subst.apply_atom(atom)) for atom in constraint.body_neg
        )
        if negatives_false:
            witness = {
                var: subst[var]
                for var in variables_of_atoms(constraint.body_pos)
                if var in subst
            }
            return [ConstraintViolation(constraint, witness, hard=True)]
    return []


def _check_egd(model: DatalogWellFoundedModel, egd: EGD) -> list[ConstraintViolation]:
    """Violations of one EGD over the true atoms of the model."""
    violations: list[ConstraintViolation] = []
    for subst in _matches(egd.body, model):
        left = subst.apply_term(egd.left)
        right = subst.apply_term(egd.right)
        if left == right:
            continue
        witness = {
            var: subst[var] for var in variables_of_atoms(egd.body) if var in subst
        }
        hard = isinstance(left, Constant) and isinstance(right, Constant)
        violations.append(ConstraintViolation(egd, witness, hard=hard))
    return violations


def is_consistent(
    model_or_engine: Union[DatalogWellFoundedModel, WellFoundedEngine],
    constraints: Iterable[Union[NegativeConstraint, EGD]],
    *,
    treat_soft_as_violation: bool = False,
) -> bool:
    """``True`` iff no (hard) constraint violation exists.

    With ``treat_soft_as_violation=True`` soft EGD violations (those only
    involving labelled nulls) also count, i.e. the check requires full
    separability in the sense of [1].
    """
    for violation in check_constraints(model_or_engine, constraints):
        if violation.hard or treat_soft_as_violation:
            return False
    return True
