"""The chase-termination (acyclicity) hierarchy: weak ⊂ joint ⊂ super-weak.

The engines evaluate skolemized programs: every existential variable of an
NTGD has become a function (Skolem) term in the head of a normal rule, so
"the chase creates a fresh null" reads, syntactically, "a head argument is a
function term over body variables".  All three criteria below are therefore
defined directly on :class:`~repro.lang.rules.NormalRule` sets, with each
head position holding a variable-carrying non-variable term acting as a
*generator* (the skolemized image of an existential variable):

* **Weak acyclicity** (Fagin–Kolaitis–Miller–Popa): the classical position
  graph — a variable flowing from a body position into a head position adds
  a regular edge, into a generator a *special* edge; the program is weakly
  acyclic iff no cycle passes through a special edge.  This is the single
  source of truth the magic rewriting used to carry privately
  (``rewrite/magic.py`` now delegates here).
* **Joint acyclicity** (Krötzsch–Rudolph): per generator ``g``, compute the
  set ``Move(g)`` of positions its nulls can travel to — a variable whose
  positive-body occurrences all lie inside ``Move(g)`` can be bound to a
  ``g``-null and carries it to its direct head positions.  Generator ``g₁``
  feeds ``g₂`` when some feed variable of ``g₂`` (a variable under ``g₂``'s
  function term) has all its body occurrences inside ``Move(g₁)``; the
  program is jointly acyclic iff the feeds graph is acyclic.  Tracking
  *where nulls can actually go* instead of single-edge adjacency strictly
  widens the fragment: ``a(X,Y), b(Y) → ∃Z a(Y,Z)`` is weakly cyclic but
  jointly acyclic (the null lands in ``a``'s second position only, and the
  rule also requires ``b(Y)``, which nulls never reach).
* **Super-weak acyclicity** (Marnette): the same propagation computed over
  *places* — concrete ``(head atom, position)`` pairs — where a body
  occurrence counts as covered only when some creation place of the same
  predicate/position **unifies** with the body atom.  Unification sees the
  constants and function structure position-level flow ignores, widening the
  fragment again: ``p(X, a) → ∃Z p(Z, b)`` is jointly cyclic (position
  ``p[0]`` feeds itself) but super-weakly acyclic (``p(·, b)`` never
  unifies with the body pattern ``p(·, a)``).

Joint and super-weak acyclicity follow each generator's nulls separately,
which is sound only while every site creates its own terms.  Two sites under
one function symbol can build the same term — ``q(f(Y), f(Y))`` and
``p(f(X), f(X))`` both create ``f(a)`` — so a variable can be bound through
both sites' positions at once, and their Move sets miss the feeds cycle.
Both criteria therefore require every function symbol to label one
generator site, and otherwise fail with a reason naming the shared symbol.
Skolemization never shares a symbol between sites, so the restriction only
bites on hand-written normal rules.

Each criterion provably subsumes the previous one (a joint-feeds cycle maps
to a position-graph cycle through a special edge; a place is covered only if
its bare position is), and :func:`is_jointly_acyclic` /
:func:`is_super_weakly_acyclic` additionally *enforce* the containment by
disjunction, so the hierarchy property the test-suite pins — accepted by a
criterion ⇒ accepted by every wider one — holds by construction as well as
by theorem.  :func:`termination_verdict` names the strongest criterion that
passed; "strongest" means the narrowest fragment, because a stronger
criterion certifies more (weak acyclicity bounds term depth outright, the
wider criteria only bound the skolem-chase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence, TypeVar, cast

from ..lang.atoms import Atom
from ..lang.rules import NormalRule
from ..lang.terms import FunctionTerm, Term, Variable, variables_of
from ..lp.fixpoint import strongly_connected_components

__all__ = [
    "TerminationVerdict",
    "CRITERIA",
    "weak_acyclicity_violation",
    "joint_acyclicity_violation",
    "super_weak_acyclicity_violation",
    "is_weakly_acyclic",
    "is_jointly_acyclic",
    "is_super_weakly_acyclic",
    "termination_verdict",
]

Position = tuple[str, int]

_Node = TypeVar("_Node", bound=Hashable)


def _sccs(graph: Mapping[_Node, set[_Node]]) -> list[list[_Node]]:
    """Typed front for :func:`strongly_connected_components` (``Hashable`` keys)."""
    generic = cast("Mapping[Hashable, Iterable[Hashable]]", graph)
    return cast("list[list[_Node]]", strongly_connected_components(generic))

#: The hierarchy, narrowest criterion first.  ``function-free`` is the
#: degenerate bottom: a program without function symbols grounds finitely no
#: matter what, so no acyclicity reasoning is needed at all.
CRITERIA: tuple[str, ...] = ("function-free", "weak", "joint", "super-weak")


@dataclass(frozen=True)
class TerminationVerdict:
    """The outcome of running a rule set through the acyclicity hierarchy.

    ``criterion`` is the strongest (narrowest) member of :data:`CRITERIA`
    that accepted the program, or ``None`` when every static test failed;
    ``reason`` explains the first failure past the accepted criterion (for an
    accepted program: why the *next narrower* criterion rejected it, which is
    ``None`` for ``function-free``/``weak``), and for a fully rejected
    program: why even super-weak acyclicity fails.
    """

    criterion: Optional[str]
    reason: Optional[str] = None

    @property
    def terminating(self) -> bool:
        """``True`` iff some static criterion certified chase termination."""
        return self.criterion is not None

    def accepts_at_least(self, criterion: str) -> bool:
        """Was the program accepted by *criterion* (or something stronger)?"""
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
        if self.criterion is None:
            return False
        return CRITERIA.index(self.criterion) <= CRITERIA.index(criterion)


# -- shared structure ---------------------------------------------------------


def _body_positions(rule: NormalRule) -> dict[Variable, set[Position]]:
    """Positive-body occurrence positions per variable (nested included).

    A variable sitting under a function term in a body pattern still receives
    (sub)terms of whatever instance matches the position, so nested
    occurrences count as occurrences — the over-approximation every criterion
    here needs for soundness.
    """
    positions: dict[Variable, set[Position]] = {}
    for atom in rule.body_pos:
        for index, arg in enumerate(atom.args):
            for variable in set(variables_of(arg)):
                positions.setdefault(variable, set()).add((atom.predicate, index))
    return positions


def _direct_head_positions(rule: NormalRule) -> dict[Variable, set[Position]]:
    """Head positions where a variable occurs *directly* (not under a function).

    Only direct occurrences propagate a null unchanged; an occurrence nested
    under a function term creates a new term and is accounted for by the
    generator machinery instead.
    """
    positions: dict[Variable, set[Position]] = {}
    for index, arg in enumerate(rule.head.args):
        if isinstance(arg, Variable):
            positions.setdefault(arg, set()).add((rule.head.predicate, index))
    return positions


@dataclass(frozen=True)
class _Generator:
    """One null-creation site: a variable-carrying function term in a head.

    A Skolem term repeated at several head positions — the skolemization of an
    existential variable occurring more than once in the head, as in
    ``b(X) → p(f(X), f(X))`` — is ONE null occupying all those positions
    simultaneously, so a site is keyed by the creating *term* and records
    every head position holding it.  Seeding the Move sets with only one of
    the positions would miss feeds cycles that need the null at two positions
    at once (e.g. through a body ``p(U, U)``).
    """

    rule_index: int
    rule: NormalRule
    term: Term  # the creating (Skolem) term
    positions: tuple[int, ...]  # every head argument index holding it

    @property
    def targets(self) -> frozenset[Position]:
        return frozenset((self.rule.head.predicate, i) for i in self.positions)

    @property
    def places(self) -> frozenset["Place"]:
        return frozenset((self.rule_index, i) for i in self.positions)

    @property
    def feed_variables(self) -> frozenset[Variable]:
        return frozenset(variables_of(self.term))

    def describe(self) -> str:
        predicate = self.rule.head.predicate
        spots = ", ".join(f"{predicate}[{i}]" for i in self.positions)
        return f"rule {self.rule} creates fresh terms at position(s) {spots}"


def _generators(rules: Sequence[NormalRule]) -> list[_Generator]:
    """All null-creation sites of the rule set, in deterministic order."""
    found: list[_Generator] = []
    for rule_index, rule in enumerate(rules):
        by_term: dict[Term, list[int]] = {}
        for position, arg in enumerate(rule.head.args):
            if not isinstance(arg, Variable) and set(variables_of(arg)):
                by_term.setdefault(arg, []).append(position)
        for term, positions in by_term.items():
            found.append(_Generator(rule_index, rule, term, tuple(positions)))
    return found


def _function_symbols(term: Term) -> set[str]:
    """Every function symbol occurring in *term*."""
    if not isinstance(term, FunctionTerm):
        return set()
    symbols = {term.function}
    for arg in term.args:
        symbols |= _function_symbols(arg)
    return symbols


def _shared_symbol_violation(generators: Sequence[_Generator]) -> Optional[str]:
    """A reason two generator sites share a function symbol, or ``None``.

    The per-site Move sets of joint and super-weak acyclicity assume each
    site creates its own nulls; a shared symbol lets two sites create the
    same term (see the module docstring).
    """
    owners: dict[str, _Generator] = {}
    for generator in generators:
        for symbol in sorted(_function_symbols(generator.term)):
            owner = owners.setdefault(symbol, generator)
            if owner is not generator:
                return (
                    f"function symbol {symbol} labels more than one generator site "
                    f"({owner.describe()}; {generator.describe()}), so the sites can "
                    "create the same term and per-site null tracking is unsound"
                )
    return None


def _cycle_witness(
    edges: Mapping[_Node, set[_Node]],
) -> Optional[list[_Node]]:
    """Some node set forming a cycle (an SCC with an internal edge), or ``None``."""
    for component in _sccs(edges):
        if len(component) > 1:
            return list(component)
        node = component[0]
        if node in edges.get(node, ()):  # self-loop
            return [node]
    return None


# -- weak acyclicity ----------------------------------------------------------


def weak_acyclicity_violation(rules: Iterable[NormalRule]) -> Optional[str]:
    """A reason the rule set is not weakly acyclic, or ``None`` if it is.

    The standard position graph of Fagin et al.: nodes are ``(predicate,
    argument position)``; a variable flowing from a positive body position
    into a head position contributes a *regular* edge when it appears there
    directly, and a *special* edge when it appears nested inside a function
    (Skolem) term — the positions where fresh terms are created.  A cycle
    through a special edge means the chase can build ever-deeper terms; weak
    acyclicity bounds term depth and guarantees saturation.
    """
    edges: dict[Position, set[Position]] = {}
    special: list[tuple[Position, Position, NormalRule]] = []
    for rule in rules:
        var_positions = _body_positions(rule)
        for position, arg in enumerate(rule.head.args):
            target = (rule.head.predicate, position)
            edges.setdefault(target, set())
            nested = not isinstance(arg, Variable)
            for variable in set(variables_of(arg)):
                for source in var_positions.get(variable, ()):
                    edges.setdefault(source, set()).add(target)
                    if nested:
                        special.append((source, target, rule))
    component = {
        node: index
        for index, members in enumerate(_sccs(edges))
        for node in members
    }
    for source, target, rule in special:
        if component.get(source) == component.get(target):
            return (
                f"existential recursion (rule {rule} makes the position graph "
                f"cyclic through a Skolem position {target[0]}[{target[1]}]; "
                "not weakly acyclic)"
            )
    return None


def is_weakly_acyclic(rules: Iterable[NormalRule]) -> bool:
    """``True`` iff the position graph has no cycle through a special edge."""
    return weak_acyclicity_violation(rules) is None


# -- joint acyclicity ---------------------------------------------------------


def _joint_move(generator: _Generator, rules: Sequence[NormalRule]) -> set[Position]:
    """``Move(g)``: the positions a generator's nulls can travel to."""
    move: set[Position] = set(generator.targets)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            body = _body_positions(rule)
            head = _direct_head_positions(rule)
            for variable, occurrences in body.items():
                if occurrences <= move:
                    targets = head.get(variable, set())
                    if not targets <= move:
                        move |= targets
                        changed = True
    return move


def joint_acyclicity_violation(rules: Iterable[NormalRule]) -> Optional[str]:
    """A reason the rule set is not jointly acyclic, or ``None`` if it is.

    Builds the generator feeds graph — ``g₁ → g₂`` iff some feed variable of
    ``g₂`` has every positive-body occurrence inside ``Move(g₁)`` — and
    reports a cycle witness if one exists.
    """
    rules = list(rules)
    generators = _generators(rules)
    if not generators:
        return None
    shared = _shared_symbol_violation(generators)
    if shared is not None:
        return f"{shared}; not jointly acyclic"
    moves = {g: _joint_move(g, rules) for g in generators}
    edges: dict[_Generator, set[_Generator]] = {g: set() for g in generators}
    for source in generators:
        move = moves[source]
        for target in generators:
            body = _body_positions(target.rule)
            if any(
                variable in body and body[variable] <= move
                for variable in target.feed_variables
            ):
                edges[source].add(target)
    cycle = _cycle_witness(edges)
    if cycle is None:
        return None
    witness = cycle[0]
    return (
        "existential feeds cycle: nulls created by one rule can reach every "
        f"body occurrence of a feed variable of another ({witness.describe()}; "
        "not jointly acyclic)"
    )


def is_jointly_acyclic(rules: Iterable[NormalRule]) -> bool:
    """``True`` iff weakly acyclic or the generator feeds graph is acyclic.

    Joint acyclicity subsumes weak acyclicity (Krötzsch–Rudolph); the
    disjunction makes the containment structural, so the hierarchy property
    can never regress silently.
    """
    rules = list(rules)
    return is_weakly_acyclic(rules) or joint_acyclicity_violation(rules) is None


# -- super-weak acyclicity ----------------------------------------------------

Place = tuple[int, int]  # (rule index — identifying its head atom, position)


def _rename_apart(atom: Atom, suffix: str) -> Atom:
    """The atom with every variable renamed by *suffix* (for unification)."""

    def rename(term: Term) -> Term:
        if isinstance(term, Variable):
            return Variable(f"{term.name}{suffix}")
        if isinstance(term, FunctionTerm):
            return FunctionTerm(term.function, tuple(rename(a) for a in term.args))
        return term

    return Atom(atom.predicate, tuple(rename(a) for a in atom.args))


def _unify_terms(left: Term, right: Term, bindings: dict[Variable, Term]) -> bool:
    """Destructive syntactic unification with occurs check (small patterns)."""

    def resolve(term: Term) -> Term:
        while isinstance(term, Variable) and term in bindings:
            term = bindings[term]
        return term

    def occurs(variable: Variable, term: Term) -> bool:
        term = resolve(term)
        if term == variable:
            return True
        if isinstance(term, FunctionTerm):
            return any(occurs(variable, a) for a in term.args)
        return False

    left, right = resolve(left), resolve(right)
    if left == right:
        return True
    if isinstance(left, Variable):
        if occurs(left, right):
            return False
        bindings[left] = right
        return True
    if isinstance(right, Variable):
        return _unify_terms(right, left, bindings)
    if isinstance(left, FunctionTerm) and isinstance(right, FunctionTerm):
        if left.function != right.function or len(left.args) != len(right.args):
            return False
        return all(_unify_terms(a, b, bindings) for a, b in zip(left.args, right.args))
    return False


def _atoms_unify(left: Atom, right: Atom) -> bool:
    """Do the two atom patterns unify (variables renamed apart)?"""
    if left.predicate != right.predicate or left.arity != right.arity:
        return False
    left = _rename_apart(left, "'l")
    right = _rename_apart(right, "'r")
    bindings: dict[Variable, Term] = {}
    return all(
        _unify_terms(a, b, bindings) for a, b in zip(left.args, right.args)
    )


def _swa_covered(
    body_atom: Atom, position: int, places: set[Place], rules: Sequence[NormalRule]
) -> bool:
    """Is a body occurrence covered by some unifiable creation place?"""
    for rule_index, place_position in places:
        head = rules[rule_index].head
        if place_position != position:
            continue
        if _atoms_unify(head, body_atom):
            return True
    return False


def _swa_move(generator: _Generator, rules: Sequence[NormalRule]) -> set[Place]:
    """``Move(g)`` over places: where a null can travel, seen through unification."""
    move: set[Place] = set(generator.places)
    changed = True
    while changed:
        changed = False
        for rule_index, rule in enumerate(rules):
            for variable in _direct_head_positions(rule):
                if _swa_all_covered(variable, rule, move, rules):
                    new_places = {
                        (rule_index, index)
                        for index, arg in enumerate(rule.head.args)
                        if arg == variable
                    }
                    if not new_places <= move:
                        move |= new_places
                        changed = True
    return move


def _swa_all_covered(
    variable: Variable,
    rule: NormalRule,
    places: set[Place],
    rules: Sequence[NormalRule],
) -> bool:
    """Are all positive-body occurrences of *variable* in *rule* covered?"""
    found = False
    for atom in rule.body_pos:
        for index, arg in enumerate(atom.args):
            if variable in set(variables_of(arg)):
                found = True
                if not _swa_covered(atom, index, places, rules):
                    return False
    return found


def super_weak_acyclicity_violation(rules: Iterable[NormalRule]) -> Optional[str]:
    """A reason the rule set is not super-weakly acyclic, or ``None`` if it is.

    The joint-acyclicity feeds graph recomputed over unification-filtered
    places: coverage demands an actual unifier between the creating head atom
    and the consuming body atom, so constants and function structure that
    provably block a null's flow break the cycle.
    """
    rules = list(rules)
    generators = _generators(rules)
    if not generators:
        return None
    shared = _shared_symbol_violation(generators)
    if shared is not None:
        return f"{shared}; not super-weakly acyclic"
    moves = {g: _swa_move(g, rules) for g in generators}
    edges: dict[_Generator, set[_Generator]] = {g: set() for g in generators}
    for source in generators:
        move = moves[source]
        for target in generators:
            if any(
                _swa_all_covered(variable, target.rule, move, rules)
                for variable in target.feed_variables
            ):
                edges[source].add(target)
    cycle = _cycle_witness(edges)
    if cycle is None:
        return None
    witness = cycle[0]
    return (
        "existential feeds cycle survives unification filtering "
        f"({witness.describe()}; not super-weakly acyclic)"
    )


def is_super_weakly_acyclic(rules: Iterable[NormalRule]) -> bool:
    """``True`` iff jointly acyclic or the place-level feeds graph is acyclic.

    Super-weak acyclicity subsumes joint acyclicity (Marnette); as with
    :func:`is_jointly_acyclic` the containment is also enforced structurally.
    """
    rules = list(rules)
    return is_jointly_acyclic(rules) or super_weak_acyclicity_violation(rules) is None


# -- the verdict --------------------------------------------------------------


def _is_function_free(rules: Sequence[NormalRule]) -> bool:
    """No function (Skolem) term anywhere: grounding is finite outright."""
    return not any(
        isinstance(arg, FunctionTerm)
        for rule in rules
        for atom in rule.atoms()
        for arg in atom.args
    )


def termination_verdict(rules: Iterable[NormalRule]) -> TerminationVerdict:
    """Run the hierarchy narrowest-first and name the strongest passing criterion.

    ``function-free`` → ``weak`` → ``joint`` → ``super-weak``; a program that
    fails all four gets ``criterion=None`` with the super-weak witness as the
    reason (the widest test's failure is the binding one — everything narrower
    fails a fortiori).
    """
    rules = list(rules)
    if _is_function_free(rules):
        return TerminationVerdict("function-free")
    weak_reason = weak_acyclicity_violation(rules)
    if weak_reason is None:
        return TerminationVerdict("weak")
    joint_reason = joint_acyclicity_violation(rules)
    if joint_reason is None:
        return TerminationVerdict("joint", reason=weak_reason)
    swa_reason = super_weak_acyclicity_violation(rules)
    if swa_reason is None:
        return TerminationVerdict("super-weak", reason=joint_reason)
    return TerminationVerdict(None, reason=swa_reason)
