"""Bound/free adornments for query-driven rewriting (the ``p^a`` of magic sets).

Given a program and a query, this module computes the set of *adorned
predicates* ``p^a`` reachable from the query: an adornment ``a ∈ {b, f}^arity``
records which argument positions carry a binding when the predicate is called
top-down.  Bindings are propagated sideways through rule bodies by the
left-to-right SIPS (sideways information passing strategy) of
:func:`sips_schedule`.

The pass produces an :class:`AdornedProgram` holding

* the reachable ``(predicate, adornment)`` pairs,
* per ``(rule, adornment)`` the SIPS schedule used to visit the body (the raw
  material for the magic transformation in :mod:`repro.rewrite.magic`),
* the *relevant predicate set* — every predicate reachable from the query in
  the rule dependency graph.  The magic layer checks its supported fragment
  on this set and grounds only the facts of its predicates.

Predicates are **not renamed**: the engine evaluates the original program
restricted by magic guards (see :mod:`repro.rewrite.magic`), so adornments
exist only to name magic predicates and to drive binding propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..exceptions import IllFormedRuleError
from ..lang.atoms import Atom, Literal
from ..lang.rules import NormalRule
from ..lang.terms import Variable, is_ground_term, variables_of

__all__ = [
    "SIPSStep",
    "sips_schedule",
    "Adornment",
    "AdornedCall",
    "AdornedRule",
    "AdornedProgram",
    "adornment_of",
    "adorn",
]


@dataclass(frozen=True)
class Adornment:
    """A bound/free pattern over the argument positions of a predicate."""

    bound: tuple[bool, ...]

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.bound)

    def bound_positions(self) -> tuple[int, ...]:
        """Indices of the bound positions, in order."""
        return tuple(i for i, b in enumerate(self.bound) if b)

    def project(self, args: Sequence) -> tuple:
        """The sub-tuple of *args* at the bound positions (the magic arguments)."""
        return tuple(args[i] for i in self.bound_positions())

    def __str__(self) -> str:
        return "".join("b" if b else "f" for b in self.bound)

    def __repr__(self) -> str:
        return f"Adornment({self})"


@dataclass(frozen=True)
class SIPSStep:
    """One visited body literal together with the variables bound on entry.

    ``bound_before`` is the set of variables already bound when the literal is
    reached (head-bound variables plus the variables of all previously visited
    positive literals); ``prefix`` is the tuple of previously visited
    *positive* atoms, which becomes the body of the literal's magic rule.
    """

    literal: Literal
    bound_before: frozenset[Variable]
    prefix: tuple[Atom, ...]


def sips_schedule(
    body: Sequence[Literal], bound: frozenset[Variable]
) -> list[SIPSStep]:
    """The left-to-right SIPS: the order in which a rule body (or query) is visited.

    Positive literals are visited in body order, each seeing the variables
    bound on entry (*bound*) plus those of the positive literals before it.
    This is the classical presentation (Beeri–Ramakrishnan) and the
    left-to-right evaluation order the soundness results for well-founded
    magic sets assume (Kemp–Srivastava–Stuckey's left-to-right weakly
    stratified programs).  Negated literals come **last**, after every
    positive literal: rule safety guarantees that all their variables are
    then bound, so each negated literal receives a fully-bound adornment —
    the invariant the WFS-preserving treatment of negation in
    :mod:`repro.rewrite.magic` relies on.
    """
    steps: list[SIPSStep] = []
    prefix: list[Atom] = []
    for literal in body:
        if literal.positive:
            steps.append(SIPSStep(literal, bound, tuple(prefix)))
            bound = bound | literal.atom.variables()
            prefix.append(literal.atom)
    for literal in body:
        if not literal.positive:
            steps.append(SIPSStep(literal, bound, tuple(prefix)))
    return steps


def _is_bound_arg(arg, bound: frozenset[Variable]) -> bool:
    """An argument position is bound iff the term carries no unbound variable."""
    if is_ground_term(arg):
        return True
    return all(variable in bound for variable in variables_of(arg))


def adornment_of(atom: Atom, bound: frozenset[Variable]) -> Adornment:
    """The adornment of *atom* when called with *bound* variables bound.

    An argument position is bound iff its term is ground or all its variables
    (including those nested inside function terms) are bound.
    """
    return Adornment(tuple(_is_bound_arg(arg, bound) for arg in atom.args))


@dataclass(frozen=True)
class AdornedCall:
    """A body literal visited under an adornment, with its SIPS context.

    ``step.prefix`` holds the positive atoms visited before this literal — the
    body of the magic rule that passes bindings into the call.
    """

    predicate: str
    adornment: Adornment
    step: SIPSStep

    @property
    def atom(self) -> Atom:
        """The called atom itself."""
        return self.step.literal.atom

    @property
    def positive(self) -> bool:
        """Polarity of the call (``False`` for calls through a negated literal)."""
        return self.step.literal.positive


@dataclass(frozen=True)
class AdornedRule:
    """A program rule processed under one head adornment."""

    rule: NormalRule
    adornment: Adornment
    #: variables bound on entry: the head variables at bound positions
    entry_bound: frozenset[Variable]
    #: one call per body literal, in SIPS order (negatives last)
    calls: tuple[AdornedCall, ...]


def _head_bound_variables(head: Atom, adornment: Adornment) -> frozenset[Variable]:
    """Variables occurring in the head's bound argument positions."""
    result: set[Variable] = set()
    for position in adornment.bound_positions():
        result.update(variables_of(head.args[position]))
    return frozenset(result)


@dataclass
class AdornedProgram:
    """The result of the adornment pass for one program/query pair."""

    #: the query as literals (positives first); see :func:`adorn`
    query: tuple[Literal, ...]
    #: reachable adorned predicates, in discovery order
    reachable: list[tuple[str, Adornment]] = field(default_factory=list)
    #: adorned versions of program rules, one per reachable head adornment
    adorned_rules: list[AdornedRule] = field(default_factory=list)
    #: SIPS calls made directly by the query body
    query_calls: list[AdornedCall] = field(default_factory=list)

    def adornments_of(self, predicate: str) -> list[Adornment]:
        """All reachable adornments of *predicate*."""
        return [a for p, a in self.reachable if p == predicate]

    def relevant_predicates(self) -> frozenset[str]:
        """Every predicate reachable from the query (any adornment)."""
        return frozenset(p for p, _ in self.reachable)

    def __repr__(self) -> str:
        return (
            f"AdornedProgram({len(self.reachable)} adorned predicates, "
            f"{len(self.adorned_rules)} adorned rules)"
        )


def adorn(rules: Iterable[NormalRule], query: Sequence[Literal]) -> AdornedProgram:
    """Compute the adorned program for *query* over *rules*.

    ``query`` is a sequence of literals; every variable of a negated literal
    must occur in some positive literal (the NBCQ safety condition), except
    that a fully ground negated literal may stand alone.  Constants appearing
    in the query provide the initial bindings.
    """
    query = tuple(query)
    _check_query(query)

    rules_by_head: dict[str, list[NormalRule]] = {}
    for rule in rules:
        rules_by_head.setdefault(rule.head.predicate, []).append(rule)

    program = AdornedProgram(query=query)
    seen: set[tuple[str, Adornment]] = set()
    worklist: list[tuple[str, Adornment]] = []

    def visit(predicate: str, adornment: Adornment) -> None:
        key = (predicate, adornment)
        if key not in seen:
            seen.add(key)
            program.reachable.append(key)
            worklist.append(key)

    # -- the query body is scheduled like a rule body with nothing bound ------
    for step in sips_schedule(query, frozenset()):
        adornment = adornment_of(step.literal.atom, step.bound_before)
        call = AdornedCall(step.literal.predicate, adornment, step)
        program.query_calls.append(call)
        visit(call.predicate, adornment)

    # -- propagate through the program rules ----------------------------------
    while worklist:
        predicate, adornment = worklist.pop()
        for rule in rules_by_head.get(predicate, ()):
            entry_bound = _head_bound_variables(rule.head, adornment)
            calls: list[AdornedCall] = []
            for step in sips_schedule(rule.body, entry_bound):
                call_adornment = adornment_of(step.literal.atom, step.bound_before)
                call = AdornedCall(step.literal.predicate, call_adornment, step)
                calls.append(call)
                visit(call.predicate, call_adornment)
            program.adorned_rules.append(
                AdornedRule(rule, adornment, entry_bound, tuple(calls))
            )
    return program


def _check_query(query: tuple[Literal, ...]) -> None:
    """Enforce the safety condition the rewriting (and NBCQ evaluation) needs."""
    if not query:
        raise IllFormedRuleError("cannot adorn an empty query")
    positive_vars: set[Variable] = set()
    for literal in query:
        if literal.positive:
            positive_vars |= literal.atom.variables()
    for literal in query:
        if literal.positive:
            continue
        uncovered = literal.atom.variables() - positive_vars
        if uncovered:
            names = ", ".join(sorted(str(v) for v in uncovered))
            raise IllFormedRuleError(
                f"negated query literal {literal} has variables {{{names}}} that occur "
                "in no positive query literal"
            )
