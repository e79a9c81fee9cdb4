"""Rules: normal (logic-programming) rules and (normal) TGDs (Sec. 2.2, 2.4).

Two rule classes live here:

* :class:`NormalRule` — a normal logic-programming rule
  ``β₁, …, βₙ, not βₙ₊₁, …, not βₙ₊ₘ → α`` whose atoms may contain function
  symbols (this is what the functional transformation of an NTGD produces);
* :class:`NTGD` — a normal tuple-generating dependency
  ``Φ(X, Y) → ∃Z Ψ(X, Z)`` with positive and negated atoms in the body and,
  w.l.o.g., a single head atom.  A plain TGD is an NTGD with an empty negative
  body.

Guardedness (Sec. 2.4): an NTGD is *guarded* iff some positive body atom
contains every universally quantified variable of the rule; that atom is the
rule's *guard*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..exceptions import IllFormedRuleError, NotGuardedError
from .atoms import Atom, Literal, variables_of_atoms
from .terms import FunctionTerm, Variable

__all__ = ["NormalRule", "NTGD", "TGD"]


@dataclass(frozen=True, slots=True)
class NormalRule:
    """A normal logic-programming rule (Sec. 2.2, rule shape (1) of the paper).

    ``head ← body_pos, not body_neg``.  A *fact* is a rule with an empty body.
    Atoms may contain function terms (the functional transformation produces
    such rules); plain Datalog rules simply do not use them.

    Safety: every variable of the head and of the negative body must occur in
    the positive body, unless the rule is a ground fact.  Unsafe rules are
    rejected at construction time because none of the downstream semantics
    (grounding, WFS) is well defined for them.
    """

    head: Atom
    body_pos: tuple[Atom, ...] = ()
    body_neg: tuple[Atom, ...] = ()
    #: hash cached at construction (see Atom._hash): ground rules are interned
    #: by every index and the generated hash would re-walk the whole rule.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body_pos", tuple(self.body_pos))
        object.__setattr__(self, "body_neg", tuple(self.body_neg))
        object.__setattr__(
            self, "_hash", hash((self.head, self.body_pos, self.body_neg))
        )
        self._check_safety()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NormalRule):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.head == other.head
            and self.body_pos == other.body_pos
            and self.body_neg == other.body_neg
        )

    def _check_safety(self) -> None:
        """Reject rules whose head/negative-body variables are not covered."""
        positive_vars = variables_of_atoms(self.body_pos)
        head_vars = self.head.variables()
        neg_vars = variables_of_atoms(self.body_neg)
        uncovered = (head_vars | neg_vars) - positive_vars
        if uncovered:
            names = ", ".join(sorted(str(v) for v in uncovered))
            raise IllFormedRuleError(
                f"unsafe rule {self}: variables {{{names}}} do not occur in the positive body"
            )

    # -- structure ----------------------------------------------------------

    @property
    def body(self) -> tuple[Literal, ...]:
        """The body as a tuple of literals (positives first)."""
        return tuple(Literal(a, True) for a in self.body_pos) + tuple(
            Literal(a, False) for a in self.body_neg
        )

    def is_fact(self) -> bool:
        """Return ``True`` iff the rule has an empty body."""
        return not self.body_pos and not self.body_neg

    def is_positive(self) -> bool:
        """Return ``True`` iff the rule has no negative body atoms."""
        return not self.body_neg

    def is_ground(self) -> bool:
        """Return ``True`` iff no variable occurs anywhere in the rule."""
        return (
            self.head.is_ground()
            and all(a.is_ground() for a in self.body_pos)
            and all(a.is_ground() for a in self.body_neg)
        )

    def variables(self) -> set[Variable]:
        """All variables occurring in the rule."""
        result = self.head.variables()
        result |= variables_of_atoms(self.body_pos)
        result |= variables_of_atoms(self.body_neg)
        return result

    def predicates(self) -> set[str]:
        """All predicate names occurring in the rule."""
        preds = {self.head.predicate}
        preds.update(a.predicate for a in self.body_pos)
        preds.update(a.predicate for a in self.body_neg)
        return preds

    def atoms(self) -> list[Atom]:
        """All atoms of the rule: head first, then positive body, then negative body."""
        return [self.head, *self.body_pos, *self.body_neg]

    def positive_part(self) -> "NormalRule":
        """The rule with its negative body removed (the paper's ``P⁺`` construction)."""
        if not self.body_neg:
            return self
        return NormalRule(self.head, self.body_pos, ())

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_fact():
            return f"{self.head}."
        parts = [str(a) for a in self.body_pos] + [f"not {a}" for a in self.body_neg]
        return f"{', '.join(parts)} -> {self.head}."

    def __repr__(self) -> str:
        return f"NormalRule({self})"

    def sort_key(self) -> tuple[Any, ...]:
        """Deterministic total-order key (used for reproducible output)."""
        return (
            self.head.sort_key(),
            tuple(a.sort_key() for a in self.body_pos),
            tuple(a.sort_key() for a in self.body_neg),
        )


@dataclass(frozen=True, slots=True)
class NTGD:
    """A normal tuple-generating dependency ``Φ(X, Y) → ∃Z Ψ(X, Z)`` (Sec. 2.4).

    ``body_pos`` and ``body_neg`` are the positive and negated body atoms,
    ``head`` is the single head atom (w.l.o.g. — see the paper), and the
    existential variables are exactly the head variables that do not occur in
    the body.  Atoms must not contain nulls or function terms.

    A plain TGD is an NTGD with ``body_neg == ()``; the alias :class:`TGD`
    exists for readability.
    """

    body_pos: tuple[Atom, ...]
    head: Atom
    body_neg: tuple[Atom, ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body_pos", tuple(self.body_pos))
        object.__setattr__(self, "body_neg", tuple(self.body_neg))
        self._check_well_formed()

    def _check_well_formed(self) -> None:
        """Enforce the syntactic conditions of Sec. 2.4."""
        if not self.body_pos:
            raise IllFormedRuleError(
                f"NTGD {self} has an empty positive body; TGDs require at least one "
                "positive body atom (use Database facts for extensional data)"
            )
        for atom in (*self.body_pos, *self.body_neg, self.head):
            for arg in atom.args:
                if isinstance(arg, FunctionTerm):
                    raise IllFormedRuleError(
                        f"NTGD {self} contains the functional term {arg}; TGDs must not "
                        "contain nulls or function symbols (apply skolemize() to *produce* them)"
                    )
        # Negative body variables must be universally quantified (occur positively):
        # otherwise negation would range over existential values, which Sec. 2.4 disallows.
        neg_vars = variables_of_atoms(self.body_neg)
        uncovered = neg_vars - self.frontier_and_body_variables()
        if uncovered:
            names = ", ".join(sorted(str(v) for v in uncovered))
            raise IllFormedRuleError(
                f"NTGD {self}: negated body variables {{{names}}} do not occur in the positive body"
            )

    # -- variable classification ---------------------------------------------

    def frontier_and_body_variables(self) -> set[Variable]:
        """The universally quantified variables: all variables of the positive body."""
        return variables_of_atoms(self.body_pos)

    def universal_variables(self) -> set[Variable]:
        """Alias of :meth:`frontier_and_body_variables` (the paper's X ∪ Y)."""
        return self.frontier_and_body_variables()

    def existential_variables(self) -> set[Variable]:
        """Head variables that are not universally quantified (the paper's Z)."""
        return self.head.variables() - self.universal_variables()

    def frontier_variables(self) -> set[Variable]:
        """Universally quantified variables shared between body and head (the paper's X)."""
        return self.head.variables() & self.universal_variables()

    # -- guardedness -----------------------------------------------------------

    def guard(self) -> Optional[Atom]:
        """Return the guard atom, i.e. a positive body atom containing every
        universally quantified variable, or ``None`` if the NTGD is not guarded.

        If several body atoms qualify, the first one (in body order) is
        returned; this mirrors the convention used by the chase engine.
        """
        universal = self.universal_variables()
        for atom in self.body_pos:
            if universal <= atom.variables():
                return atom
        return None

    def is_guarded(self) -> bool:
        """Return ``True`` iff the NTGD has a guard."""
        return self.guard() is not None

    def require_guard(self) -> Atom:
        """Return the guard or raise :class:`NotGuardedError`."""
        guard = self.guard()
        if guard is None:
            raise NotGuardedError(f"NTGD {self} is not guarded")
        return guard

    def is_positive(self) -> bool:
        """Return ``True`` iff the NTGD has no negated body atoms."""
        return not self.body_neg

    def is_linear(self) -> bool:
        """Return ``True`` iff the NTGD has exactly one positive body atom.

        Linear TGDs are the fragment underlying DL-Lite translations; exposed
        because the DL front-end produces only linear or guarded rules.
        """
        return len(self.body_pos) == 1

    # -- misc -------------------------------------------------------------------

    def predicates(self) -> set[str]:
        """All predicate names occurring in the NTGD."""
        preds = {self.head.predicate}
        preds.update(a.predicate for a in self.body_pos)
        preds.update(a.predicate for a in self.body_neg)
        return preds

    def positive_part(self) -> "NTGD":
        """The NTGD with its negated body atoms removed (the paper's Σ⁺)."""
        if not self.body_neg:
            return self
        return NTGD(self.body_pos, self.head, (), self.label)

    def max_arity(self) -> int:
        """Maximum arity of any predicate occurring in the NTGD."""
        return max(a.arity for a in (self.head, *self.body_pos, *self.body_neg))

    # -- display -------------------------------------------------------------------

    def __str__(self) -> str:
        body_parts = [str(a) for a in self.body_pos] + [f"not {a}" for a in self.body_neg]
        existentials = sorted(str(v) for v in self.existential_variables())
        if existentials:
            head_str = f"exists {', '.join(existentials)} {self.head}"
        else:
            head_str = str(self.head)
        return f"{', '.join(body_parts)} -> {head_str}."

    def __repr__(self) -> str:
        return f"NTGD({self})"

    def sort_key(self) -> tuple[Any, ...]:
        """Deterministic total-order key."""
        return (
            self.head.sort_key(),
            tuple(a.sort_key() for a in self.body_pos),
            tuple(a.sort_key() for a in self.body_neg),
        )


#: Readability alias: a TGD is an NTGD without negated body atoms.
TGD = NTGD
