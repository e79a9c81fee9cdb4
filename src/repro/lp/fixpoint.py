"""Worklist-based fixpoint substrate shared by every LP-layer fixpoint.

All the semantics implemented in :mod:`repro.lp` — the well-founded model,
the alternating fixpoint, unfounded sets, the Kripke–Kleene model, stable
models, perfect models — bottom out in least-fixpoint computations over a
finite ground program.  The seed implementation ran each of those as a naive
whole-program re-scan loop (quadratic in the number of rules per iteration);
this module provides the indexed substrate they all share now:

* :class:`RuleIndex` — ground rules indexed by their positive and negative
  body atoms and by their head, with Dowling–Gallier-style per-rule counters
  of not-yet-satisfied positive body atoms.  Atoms are *interned* to dense
  integer ids on insertion: every propagation, SCC decomposition and
  component closure runs in id space (hashing a small ``int`` instead of a
  structural :class:`~repro.lang.atoms.Atom` tuple), and results are
  translated back to atoms only at the API boundary.  Every propagation
  visits each rule–atom incidence at most once, so a closure costs time
  linear in the size of the ground program instead of
  ``rules × iterations``.
* the propagators every caller needs: :meth:`RuleIndex.least_model`
  (positive least fixpoint), :meth:`RuleIndex.gamma` (least model of the
  Gelfond–Lifschitz reduct, without materialising the reduct),
  :meth:`RuleIndex.possibly_true` (the complement of the greatest unfounded
  set) and the component-restricted closures used by the SCC-modular
  well-founded evaluation.
* :func:`strongly_connected_components` — an iterative Tarjan SCC
  decomposition emitting components dependencies-first, so a component is
  evaluated only after every component it depends on.
* :class:`IncrementalCondensation` — the same condensation maintained
  *incrementally* as the index grows (the Datalog± engine's iterative
  deepening only ever appends ground rules): new atoms join as singleton
  components, order-consistent edge insertions are absorbed in O(1), and only
  edges that violate the maintained topological order trigger a Tarjan rerun,
  confined to the affected suffix of the component order.

The index is deliberately ignorant of three-valued semantics: it stores the
rule structure once and exposes raw propagation; the semantic modules decide
which rules are enabled and what a derived head means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, TYPE_CHECKING

from ..exceptions import GroundingError
from ..lang.atoms import Atom
from ..lang.rules import NormalRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .interpretation import Interpretation

__all__ = [
    "RuleIndex",
    "IncrementalCondensation",
    "CondensationUpdate",
    "strongly_connected_components",
]

#: Shared empty exclusion set for closures that exclude nothing.
_EMPTY_IDS: frozenset[int] = frozenset()
#: A stored rule's key: head id, positive and negative body ids in order.
_RuleKey = tuple[int, tuple[int, ...], tuple[int, ...]]


class RuleIndex:
    """Ground rules indexed for worklist propagation (Dowling–Gallier 1984).

    Every atom occurring anywhere is interned to a dense integer *atom id*,
    and every rule is stored once, in insertion order, under a dense id as
    its *key*: the head id and the positive and negative body ids in their
    original order (a key stored already is not added again).  Propagation
    reads each rule's *deduplicated* body ids and, per atom, the rules
    watching it positively, negatively and as a head.  A
    :class:`~repro.lang.rules.NormalRule` is built only when :meth:`rule`
    asks for one, and is then cached.  The index is append-only;
    :class:`~repro.lp.grounding.GroundProgram` is a view over one.

    The public methods speak :class:`~repro.lang.atoms.Atom`; the ``*_ids``
    methods and :meth:`add_ids` expose the id-space layer for callers that
    run whole fixpoint loops (the WFS and Kripke–Kleene evaluators) or
    ground in id space (the columnar grounder).
    """

    __slots__ = (
        "_rules",
        "_keys",
        "_rule_ids",
        "_atom_ids",
        "_atom_list",
        "_heads",
        "_pos",
        "_neg",
        "_watch_pos",
        "_watch_neg",
        "_rules_by_head",
        "_disabled",
    )

    def __init__(self, rules: Iterable[NormalRule] = ()):
        #: rule id -> the rule object, ``None`` until :meth:`rule` builds it
        self._rules: list[Optional[NormalRule]] = []
        self._keys: list[_RuleKey] = []
        self._rule_ids: dict[_RuleKey, int] = {}
        self._atom_ids: dict[Atom, int] = {}
        self._atom_list: list[Atom] = []
        self._heads: list[int] = []
        self._pos: list[tuple[int, ...]] = []
        self._neg: list[tuple[int, ...]] = []
        self._watch_pos: list[list[int]] = []
        self._watch_neg: list[list[int]] = []
        self._rules_by_head: list[list[int]] = []
        #: rule ids currently switched off (see :meth:`disable_rule`); empty
        #: for every caller except the materialized-view maintenance layer
        self._disabled: set[int] = set()
        for rule in rules:
            self.add_rule(rule)

    # -- construction -----------------------------------------------------------

    def intern(self, atom: Atom) -> int:
        """The dense id of *atom*; a new atom must be ground and gets the next id."""
        atom_id = self._atom_ids.get(atom)
        if atom_id is None:
            if not atom.is_ground():
                raise GroundingError(f"ground programs only hold ground atoms, got {atom}")
            atom_id = self._atom_ids[atom] = len(self._atom_list)
            self._atom_list.append(atom)
            self._watch_pos.append([])
            self._watch_neg.append([])
            self._rules_by_head.append([])
        return atom_id

    def add_rule(self, rule: NormalRule) -> bool:
        """Append a ground rule unless it is stored already; return whether it was new."""
        intern = self.intern
        head_id = intern(rule.head)
        pos, neg = tuple(map(intern, rule.body_pos)), tuple(map(intern, rule.body_neg))
        if not self.add_ids(head_id, pos, neg):
            return False
        self._rules[-1] = rule
        return True

    def add_ids(self, head_id: int, pos: tuple[int, ...], neg: tuple[int, ...]) -> bool:
        """Append the rule ``head_id <- pos, not neg`` unless its key is stored.

        Returns whether the rule was new.  The propagators' per-rule counters
        count *distinct* unsatisfied atoms, so they read deduplicated bodies.
        """
        key = (head_id, pos, neg)
        rule_ids = self._rule_ids
        if key in rule_ids:
            return False
        rule_id = rule_ids[key] = len(self._keys)
        self._keys.append(key)
        self._rules.append(None)
        if len(pos) > 1 and len(set(pos)) < len(pos):
            pos = tuple(dict.fromkeys(pos))
        if len(neg) > 1 and len(set(neg)) < len(neg):
            neg = tuple(dict.fromkeys(neg))
        self._heads.append(head_id)
        self._pos.append(pos)
        self._neg.append(neg)
        for atom_id in pos:
            self._watch_pos[atom_id].append(rule_id)
        for atom_id in neg:
            self._watch_neg[atom_id].append(rule_id)
        self._rules_by_head[head_id].append(rule_id)
        return True

    # -- atom interning ----------------------------------------------------------

    def atom_count(self) -> int:
        """Number of distinct atoms interned (the relevant universe size)."""
        return len(self._atom_list)

    def atom_of(self, atom_id: int) -> Atom:
        """The atom behind a dense atom id."""
        return self._atom_list[atom_id]

    def atom_id(self, atom: Atom) -> Optional[int]:
        """The dense id of *atom*, or ``None`` if it occurs in no rule."""
        return self._atom_ids.get(atom)

    def atoms_of(self, atom_ids: Iterable[int]) -> set[Atom]:
        """Translate a collection of atom ids back to atoms."""
        atom_list = self._atom_list
        return {atom_list[atom_id] for atom_id in atom_ids}

    def atoms(self) -> frozenset[Atom]:
        """Every atom occurring in some indexed rule (the relevant universe)."""
        return frozenset(self._atom_list)

    # -- rule access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def rule(self, rule_id: int) -> NormalRule:
        """The rule stored under *rule_id*, built on first request."""
        rule = self._rules[rule_id]
        if rule is None:
            head_id, pos, neg = self._keys[rule_id]
            atoms = self._atom_list
            pos_atoms, neg_atoms = tuple(atoms[a] for a in pos), tuple(atoms[a] for a in neg)
            rule = self._rules[rule_id] = NormalRule(atoms[head_id], pos_atoms, neg_atoms)
        return rule

    def rule_id(self, rule: NormalRule) -> Optional[int]:
        """The id of the stored rule equal to *rule*, or ``None``."""
        get = self._atom_ids.get
        pos, neg = tuple(map(get, rule.body_pos)), tuple(map(get, rule.body_neg))
        return self._rule_ids.get((get(rule.head), pos, neg))

    def key(self, rule_id: int) -> _RuleKey:
        """The rule's head id and body id tuples, in their original order."""
        return self._keys[rule_id]

    def head(self, rule_id: int) -> Atom:
        """The head atom of the rule."""
        return self._atom_list[self._heads[rule_id]]

    def pos_body(self, rule_id: int) -> tuple[Atom, ...]:
        """The deduplicated positive body atoms of the rule."""
        return tuple(self._atom_list[a] for a in self._pos[rule_id])

    def neg_body(self, rule_id: int) -> tuple[Atom, ...]:
        """The deduplicated negative body atoms of the rule."""
        return tuple(self._atom_list[a] for a in self._neg[rule_id])

    def head_id(self, rule_id: int) -> int:
        """The head atom id of the rule."""
        return self._heads[rule_id]

    def pos_ids(self, rule_id: int) -> tuple[int, ...]:
        """The deduplicated positive body atom ids of the rule."""
        return self._pos[rule_id]

    def neg_ids(self, rule_id: int) -> tuple[int, ...]:
        """The deduplicated negative body atom ids of the rule."""
        return self._neg[rule_id]

    def rule_ids_for_head(self, atom: Atom) -> Sequence[int]:
        """Ids of the rules whose head is *atom*."""
        atom_id = self._atom_ids.get(atom)
        return () if atom_id is None else self._rules_by_head[atom_id]

    def rule_ids_for_head_id(self, atom_id: int) -> Sequence[int]:
        """Ids of the rules whose head has the given atom id."""
        return self._rules_by_head[atom_id]

    def watchers_pos_id(self, atom_id: int) -> Sequence[int]:
        """Ids of the rules with the atom in their positive body."""
        return self._watch_pos[atom_id]

    def watchers_neg_id(self, atom_id: int) -> Sequence[int]:
        """Ids of the rules with the atom in their negative body."""
        return self._watch_neg[atom_id]

    # -- rule activity -----------------------------------------------------------

    def disable_rule(self, rule_id: int) -> None:
        """Switch a rule off: every propagator and closure ignores it.

        The index stays append-only structurally — watcher lists, body tuples
        and the dependency condensation keep the rule — but semantically a
        disabled rule does not exist.  The materialized-view layer uses this
        to retract ground rules (DRed overdeletion, fact removal) without
        rebuilding the index.
        """
        self._disabled.add(rule_id)

    def enable_rule(self, rule_id: int) -> None:
        """Switch a previously disabled rule back on."""
        self._disabled.discard(rule_id)

    def is_enabled(self, rule_id: int) -> bool:
        """``True`` iff the rule currently participates in propagation."""
        return rule_id not in self._disabled

    def disabled_count(self) -> int:
        """Number of currently disabled rules."""
        return len(self._disabled)

    def active_rule_ids_for_head_id(self, atom_id: int) -> Sequence[int]:
        """Ids of the *enabled* rules whose head has the given atom id.

        Returns the shared head list unfiltered when nothing is disabled, so
        callers outside the view-maintenance path pay nothing.
        """
        ids = self._rules_by_head[atom_id]
        if not self._disabled:
            return ids
        disabled = self._disabled
        return [rule_id for rule_id in ids if rule_id not in disabled]

    # -- core propagation ---------------------------------------------------------

    def _propagate_ids(
        self, seed: set[int], blocked: Optional[Callable[[int], bool]]
    ) -> set[int]:
        """Core Dowling–Gallier propagation, in atom-id space.

        Computes the least set ``D ⊇ seed`` closed under firing every
        non-blocked rule whose (distinct) positive body atoms all lie in
        ``D``.  Negative bodies are never consulted — callers encode them in
        *blocked*.  Each rule–atom incidence is touched at most once.
        """
        derived = set(seed)
        counts: list[int] = [0] * len(self._keys)
        heads = self._heads
        watch_pos = self._watch_pos
        disabled = self._disabled
        stack: list[int] = []
        for rule_id, pos in enumerate(self._pos):
            if rule_id in disabled or (blocked is not None and blocked(rule_id)):
                counts[rule_id] = -1
                continue
            # Counters are computed against the seed snapshot only: heads fired
            # during this loop land on the stack and decrement their watchers
            # when popped, so excluding them here would double-count them.
            remaining = sum(1 for atom_id in pos if atom_id not in seed)
            counts[rule_id] = remaining
            if remaining == 0:
                head_id = heads[rule_id]
                if head_id not in derived:
                    derived.add(head_id)
                    stack.append(head_id)
        while stack:
            atom_id = stack.pop()
            for rule_id in watch_pos[atom_id]:
                if counts[rule_id] <= 0:
                    continue  # blocked, or already fired
                counts[rule_id] -= 1
                if counts[rule_id] == 0:
                    head_id = heads[rule_id]
                    if head_id not in derived:
                        derived.add(head_id)
                        stack.append(head_id)
        return derived

    def _seed_ids(self, atoms: Iterable[Atom]) -> set[int]:
        """Intern-free translation of seed atoms; unknown atoms are dropped.

        An atom occurring in no rule cannot unlock any counter, so dropping
        it from the id-space seed is harmless — callers receive it back via
        the union with their original seed where relevant.
        """
        atom_ids = self._atom_ids
        result: set[int] = set()
        for atom in atoms:
            atom_id = atom_ids.get(atom)
            if atom_id is not None:
                result.add(atom_id)
        return result

    # -- propagators -------------------------------------------------------------

    def least_model(self, start: Iterable[Atom] = ()) -> set[Atom]:
        """Least model of the positive parts of the indexed rules.

        Negative bodies are ignored entirely (callers index reducts, which are
        positive by construction, or want exactly the ``P⁺`` closure).
        ``start`` seeds the model with externally-known true atoms (they are
        included in the result even when they occur in no rule).
        """
        start = set(start)
        derived = self.atoms_of(self._propagate_ids(self._seed_ids(start), None))
        return derived | start

    def gamma_ids(self, assumed_true: set[int]) -> set[int]:
        """``Γ(J)`` in id space: least model of the reduct ``P^J``.

        The reduct is never materialised: a rule with a negative body atom in
        *assumed_true* is simply blocked, and the remaining rules propagate
        through their positive bodies only — exactly the least model of the
        reduct.
        """
        negs = self._neg

        def is_blocked(rule_id: int) -> bool:
            for atom_id in negs[rule_id]:
                if atom_id in assumed_true:
                    return True
            return False

        return self._propagate_ids(set(), is_blocked)

    def gamma(self, assumed_true: set[Atom]) -> set[Atom]:
        """``Γ(J)``: the least model of the Gelfond–Lifschitz reduct ``P^J``."""
        return self.atoms_of(self.gamma_ids(self._seed_ids(assumed_true)))

    def possibly_true_ids(self, true_ids: set[int], false_ids: set[int]) -> set[int]:
        """Possibly-true atoms in id space, w.r.t. explicit true/false id sets.

        The least fixpoint of the operator that fires a rule whose positive
        body atoms are all possibly true and not false and whose negative
        body atoms are all not true — the complement (inside the relevant
        universe) of the greatest unfounded set ``U_P(I)``.
        """
        pos, negs = self._pos, self._neg

        def is_blocked(rule_id: int) -> bool:
            for atom_id in pos[rule_id]:
                if atom_id in false_ids:
                    return True
            for atom_id in negs[rule_id]:
                if atom_id in true_ids:
                    return True
            return False

        return self._propagate_ids(set(), is_blocked)

    def possibly_true(self, interpretation: "Interpretation") -> set[Atom]:
        """Atoms with a potentially usable derivation w.r.t. *interpretation*."""
        true_ids = self._seed_ids(interpretation.true_atoms())
        false_ids = self._seed_ids(interpretation.false_atoms())
        return self.atoms_of(self.possibly_true_ids(true_ids, false_ids))

    def tp(self, interpretation: "Interpretation") -> set[Atom]:
        """A single application of the immediate-consequence operator ``T_P(I)``."""
        is_true = interpretation.is_true
        is_false = interpretation.is_false
        atom_list = self._atom_list
        disabled = self._disabled
        derived: set[Atom] = set()
        for rule_id, pos in enumerate(self._pos):
            if rule_id in disabled:
                continue
            if all(is_true(atom_list[a]) for a in pos) and all(
                is_false(atom_list[a]) for a in self._neg[rule_id]
            ):
                derived.add(atom_list[self._heads[rule_id]])
        return derived

    # -- component-restricted closures (SCC-modular WFS) ---------------------------

    def _drain_closure(
        self,
        counts: dict[int, int],
        watchers: dict[int, Sequence[int]],
        stack: list[int],
        derived: set[int],
        exclude: set[int],
    ) -> None:
        """Shared drain loop of the two component closures.

        Pops derived atom ids, decrements the counters of the rules watching
        them, and fires heads whose counters hit zero — unless the head is in
        *exclude* (atoms the caller already accounts for) or already derived.
        Mutates ``derived`` in place.
        """
        heads = self._heads
        while stack:
            atom_id = stack.pop()
            for rule_id in watchers.get(atom_id, ()):
                counts[rule_id] -= 1
                if counts[rule_id] == 0:
                    head_id = heads[rule_id]
                    if head_id not in exclude and head_id not in derived:
                        derived.add(head_id)
                        stack.append(head_id)

    def definite_closure_ids(
        self,
        rule_ids: Sequence[int],
        component: set[int],
        true_ids: set[int],
        false_ids: set[int],
    ) -> set[int]:
        """Closure of the definite consequences of the component's rules.

        A rule fires when every positive body atom is true (globally known, or
        derived during this closure) and every negative body atom is false.
        Atoms outside the component are final, so a rule with a non-true
        external positive atom can never fire here and is dropped up front.
        Returns the *newly* derived head ids (disjoint from ``true_ids``).
        """
        heads, pos_bodies, neg_bodies = self._heads, self._pos, self._neg
        derived: set[int] = set()
        counts: dict[int, int] = {}
        watchers: dict[int, list[int]] = {}
        stack: list[int] = []

        for rule_id in rule_ids:
            if any(a not in false_ids for a in neg_bodies[rule_id]):
                continue
            remaining = 0
            dead = False
            pending: list[int] = []
            for atom_id in pos_bodies[rule_id]:
                if atom_id in true_ids:
                    continue
                if atom_id not in component:
                    dead = True  # external and not true: final, never derivable here
                    break
                remaining += 1
                pending.append(atom_id)
            if dead:
                continue
            if remaining == 0:
                head_id = heads[rule_id]
                if head_id not in true_ids and head_id not in derived:
                    derived.add(head_id)
                    stack.append(head_id)
            else:
                counts[rule_id] = remaining
                for atom_id in pending:
                    watchers.setdefault(atom_id, []).append(rule_id)

        self._drain_closure(counts, watchers, stack, derived, true_ids)
        return derived

    def possible_closure_ids(
        self,
        rule_ids: Sequence[int],
        component: set[int],
        true_ids: set[int],
        false_ids: set[int],
    ) -> set[int]:
        """The possibly-true atoms of the component w.r.t. the global values.

        A rule provides possible support when no body literal is already
        refuted: no positive body atom is false (external atoms are final, so
        "not false" suffices for them; internal ones must additionally be
        derived possibly true) and no negative body atom is true.  The
        component atoms outside the result form the component's share of the
        greatest unfounded set.
        """
        heads, pos_bodies, neg_bodies = self._heads, self._pos, self._neg
        possible: set[int] = set()
        counts: dict[int, int] = {}
        watchers: dict[int, list[int]] = {}
        stack: list[int] = []

        for rule_id in rule_ids:
            if any(a in true_ids for a in neg_bodies[rule_id]):
                continue
            remaining = 0
            dead = False
            pending: list[int] = []
            for atom_id in pos_bodies[rule_id]:
                if atom_id in false_ids:
                    dead = True
                    break
                if atom_id in component:
                    remaining += 1
                    pending.append(atom_id)
            if dead:
                continue
            if remaining == 0:
                head_id = heads[rule_id]
                if head_id not in possible:
                    possible.add(head_id)
                    stack.append(head_id)
            else:
                counts[rule_id] = remaining
                for atom_id in pending:
                    watchers.setdefault(atom_id, []).append(rule_id)

        self._drain_closure(counts, watchers, stack, possible, _EMPTY_IDS)
        return possible

    # -- dependency structure ------------------------------------------------------

    def dependency_components_ids(self) -> list[list[int]]:
        """SCCs of the atom-id dependency graph, dependencies first.

        The graph has an edge from every rule head to every atom of its body,
        positive *and* negative: negative edges must participate in the
        condensation too, otherwise mutually negative atoms (the win/move
        game's positions, say) would land in different components with no
        evaluation order between them.
        """
        graph: dict[int, list[int]] = {atom_id: [] for atom_id in range(len(self._atom_list))}
        for rule_id, head_id in enumerate(self._heads):
            successors = graph[head_id]
            successors.extend(self._pos[rule_id])
            successors.extend(self._neg[rule_id])
        return strongly_connected_components(graph)

    def __repr__(self) -> str:
        return f"RuleIndex({len(self._keys)} rules, {len(self._atom_list)} atoms)"


def strongly_connected_components(
    graph: Mapping[Hashable, Iterable[Hashable]],
) -> list[list[Hashable]]:
    """Tarjan's SCC algorithm, iterative, emitting components dependencies-first.

    *graph* maps each node to its successors (``u → v`` reads "u depends on
    v"); successors absent from the mapping's key set are treated as isolated
    nodes.  The returned components are ordered so that every component
    appears **after** all components it can reach — i.e. in the evaluation
    order a modular fixpoint computation wants (dependencies before
    dependents).
    """
    indices: dict[Hashable, int] = {}
    lowlinks: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[list[Hashable]] = []
    counter = 0

    for root in graph:
        if root in indices:
            continue
        work: list[tuple[Hashable, Iterable]] = [(root, iter(graph.get(root, ())))]
        indices[root] = lowlinks[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            descended = False
            for child in successors:
                if child not in indices:
                    indices[child] = lowlinks[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(graph.get(child, ()))))
                    descended = True
                    break
                if child in on_stack:
                    if indices[child] < lowlinks[node]:
                        lowlinks[node] = indices[child]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlinks[node] < lowlinks[parent]:
                    lowlinks[parent] = lowlinks[node]
            if lowlinks[node] == indices[node]:
                component: list[Hashable] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


# ---------------------------------------------------------------------------
# Incremental condensation maintenance (the deepening loop's SCC substrate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondensationUpdate:
    """What one :meth:`IncrementalCondensation.refresh` changed.

    Attributes
    ----------
    dirty:
        Ids of the components whose well-founded solution can no longer be
        trusted: newly created components (new atoms, or memberships changed
        by a merge) and components that gained a rule (a new rule's head lies
        inside them).  Value-change propagation to *dependents* of these
        components is the caller's job — the condensation only knows
        structure, not truth values.
    removed:
        Ids of components that no longer exist (their members were absorbed
        into a merged component, which appears in *dirty*).
    new_rules:
        The ids of the index rules consumed by this refresh (a contiguous
        range — the index is append-only).
    """

    dirty: frozenset
    removed: frozenset
    new_rules: range


class IncrementalCondensation:
    """The SCC condensation of a growing :class:`RuleIndex`, maintained in place.

    The dependency graph is the one of
    :meth:`RuleIndex.dependency_components_ids` — an edge from every rule head
    to every atom of its body, positive and negative.  The maintained state is
    the partition of the interned atoms into components plus a *topological
    order* of the components (dependencies first: every component appears
    after every component it can reach, the evaluation order of the
    SCC-modular WFS).

    :meth:`refresh` consumes the rules and atoms appended to the index since
    the previous call:

    * new atoms join as singleton components appended at the end of the order;
    * a new dependency edge whose endpoints already respect the maintained
      order (``position(body) < position(head)``) is absorbed without any
      recomputation — it can close no cycle that the order does not already
      rule out;
    * edges that *violate* the order (possible when an existing atom gains a
      rule over later-ordered atoms, e.g. a chase firing that was unlocked
      late) trigger one Tarjan rerun confined to the **affected suffix** of
      the order — the components at positions at or after the earliest
      violating edge's head.  Any new cycle must turn around at an
      order-violating edge, and every violating edge starts inside the
      suffix, so components before it can neither merge nor change their
      relative order; their ids, memberships and positions are untouched.

    Components that survive a suffix rerun with identical membership keep
    their id; merged memberships get fresh ids, higher than every earlier
    one, and are reported dirty.  On the pure iterative-deepening pattern —
    new rules whose heads are new atoms over older bodies — every insertion
    is order-consistent and a refresh costs time proportional to the delta,
    not to the accumulated program.
    """

    __slots__ = (
        "_index",
        "_consumed_rules",
        "_consumed_atoms",
        "_comp_of",
        "_members",
        "_order",
        "_positions",
        "_next_id",
        "tarjan_reruns",
        "rerun_atom_total",
    )

    def __init__(self, index: RuleIndex):
        self._index = index
        self._consumed_rules = 0
        self._consumed_atoms = 0
        #: atom id -> component id
        self._comp_of: list[int] = []
        #: component id -> member atom ids
        self._members: dict[int, tuple[int, ...]] = {}
        #: component ids, dependencies first
        self._order: list[int] = []
        #: component id -> index into :attr:`_order`
        self._positions: dict[int, int] = {}
        self._next_id = 0
        #: instrumentation: suffix Tarjan reruns performed / atoms they visited
        self.tarjan_reruns = 0
        self.rerun_atom_total = 0

    # -- views -------------------------------------------------------------------

    def order(self) -> tuple[int, ...]:
        """The component ids, dependencies first."""
        return tuple(self._order)

    def members(self, component_id: int) -> tuple[int, ...]:
        """The member atom ids of a component."""
        return self._members[component_id]

    def component_of_atom(self, atom_id: int) -> int:
        """The id of the component containing *atom_id*."""
        return self._comp_of[atom_id]

    def position(self, component_id: int) -> int:
        """The component's offset in :meth:`order` (dependencies first)."""
        return self._positions[component_id]

    def next_id(self) -> int:
        """The id the next new component gets; ids only ever increase."""
        return self._next_id

    def components_ids(self) -> list[list[int]]:
        """The condensation as atom-id components, dependencies first.

        The same shape as :meth:`RuleIndex.dependency_components_ids`; the
        partition is identical and the order is a valid dependencies-first
        order (the orders themselves may differ — both are correct).
        """
        return [list(self._members[cid]) for cid in self._order]

    def __len__(self) -> int:
        return len(self._order)

    # -- maintenance --------------------------------------------------------------

    def refresh(self) -> CondensationUpdate:
        """Fold the index's appended rules/atoms in; report what changed."""
        index = self._index
        first_rule = self._consumed_rules
        total_rules = len(index)
        total_atoms = index.atom_count()
        new_rules = range(first_rule, total_rules)
        new_atom_start = self._consumed_atoms
        if first_rule == total_rules and new_atom_start == total_atoms:
            return CondensationUpdate(frozenset(), frozenset(), new_rules)

        comp_of, positions = self._comp_of, self._positions
        known_before = set(self._members)
        for atom_id in range(new_atom_start, total_atoms):
            cid = self._next_id
            self._next_id += 1
            comp_of.append(cid)
            self._members[cid] = (atom_id,)
            positions[cid] = len(self._order)
            self._order.append(cid)
        self._consumed_atoms = total_atoms

        # Find the earliest order violation among the delta edges.  Consistent
        # edges (body strictly before head) need no work at all: the order
        # remains valid and no new cycle can pass through them alone.
        window_start: Optional[int] = None
        for rule_id in new_rules:
            head_comp = comp_of[index.head_id(rule_id)]
            head_pos = positions[head_comp]
            if window_start is not None and head_pos >= window_start:
                continue  # already inside the window; cannot shrink it further
            for atom_id in index.pos_ids(rule_id):
                if positions[comp_of[atom_id]] > head_pos:
                    window_start = head_pos
                    break
            else:
                for atom_id in index.neg_ids(rule_id):
                    if positions[comp_of[atom_id]] > head_pos:
                        window_start = head_pos
                        break
        self._consumed_rules = total_rules

        removed: frozenset = frozenset()
        created: set[int] = set()
        if window_start is not None:
            # only components the caller has seen belong in `removed` — a
            # singleton created and merged away within this same refresh was
            # never observable
            removed = self._recompute_suffix(window_start, created) & known_before

        dirty = set(created)
        for atom_id in range(new_atom_start, total_atoms):
            dirty.add(comp_of[atom_id])
        for rule_id in new_rules:
            dirty.add(comp_of[index.head_id(rule_id)])
        return CondensationUpdate(frozenset(dirty), removed, new_rules)

    def _recompute_suffix(self, window_start: int, created: set[int]) -> frozenset:
        """Tarjan on the components at order positions ``>= window_start``.

        Every order-violating edge starts inside this suffix, and a cycle's
        minimum-position component can only be left upward through a violating
        edge, so every possible merge lies entirely within it; components
        before the window keep ids, memberships and positions.  Edges leaving
        the suffix (into the stable prefix) are dropped from the subgraph —
        the prefix is unreachable-from and cannot participate in a cycle.
        """
        index = self._index
        comp_of = self._comp_of
        suffix_cids = self._order[window_start:]
        region_atoms: set[int] = set()
        for cid in suffix_cids:
            region_atoms.update(self._members[cid])
        self.tarjan_reruns += 1
        self.rerun_atom_total += len(region_atoms)

        graph: dict[int, list[int]] = {}
        for atom_id in region_atoms:
            successors: list[int] = []
            for rule_id in index.rule_ids_for_head_id(atom_id):
                for body_id in index.pos_ids(rule_id):
                    if body_id in region_atoms:
                        successors.append(body_id)
                for body_id in index.neg_ids(rule_id):
                    if body_id in region_atoms:
                        successors.append(body_id)
            graph[atom_id] = successors

        new_tail: list[int] = []
        for members in strongly_connected_components(graph):
            old_cid = comp_of[members[0]]
            existing = self._members.get(old_cid)
            if (
                existing is not None
                and len(existing) == len(members)
                and all(comp_of[atom_id] == old_cid for atom_id in members)
            ):
                new_tail.append(old_cid)
                continue
            cid = self._next_id
            self._next_id += 1
            created.add(cid)
            self._members[cid] = tuple(members)
            for atom_id in members:
                comp_of[atom_id] = cid
            new_tail.append(cid)

        removed = frozenset(suffix_cids) - set(new_tail)
        positions = self._positions
        for cid in removed:
            del self._members[cid]
            del positions[cid]
        del self._order[window_start:]
        self._order.extend(new_tail)
        for offset, cid in enumerate(new_tail, start=window_start):
            positions[cid] = offset
        return removed

    def __repr__(self) -> str:
        return (
            f"IncrementalCondensation({len(self._order)} components, "
            f"{self._consumed_rules} rules consumed)"
        )
