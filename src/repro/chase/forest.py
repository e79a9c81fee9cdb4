"""Guarded chase forests (Sec. 2.5 of the paper).

For ``P := D ∪ Σ^f`` (a database plus the functional transformation of a
guarded program), the guarded chase forest ``F(P)`` is built in levels:

* ``F₀(P)`` has one node per fact of ``P``, no edges;
* ``F_{i+1}(P)`` adds, for every node ``v`` and every rule
  ``r ∈ ground(P)`` whose guard is the label of ``v`` and whose body is
  contained in the labels of ``F_i(P)``, a child of ``v`` labelled ``H(r)``,
  with the edge labelled ``r``.

``F⁺(P)`` is the forest of the positive part ``P⁺`` with each edge relabelled
by the corresponding rule of ``P`` (negative body atoms restored); the set
``N(F)`` collects the negated body atoms of the rules labelling a subforest's
edges — these are the *negative hypotheses* of forward proofs (Def. 5).

This module holds the data structures (:class:`ChaseNode`, :class:`ChaseForest`);
the expansion procedure lives in :mod:`repro.chase.engine`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..lang.atoms import Atom
from ..lang.rules import NormalRule

__all__ = ["ChaseNode", "ChaseForest"]


@dataclass
class ChaseNode:
    """A node of a guarded chase forest.

    Attributes
    ----------
    node_id:
        Dense integer identifier (stable across the life of the forest).
    label:
        The ground atom labelling the node (the paper's ``label(v)``).
    parent:
        The parent node's id, or ``None`` for roots.
    edge_rule:
        The ground rule of ``P`` labelling the edge from the parent (``None``
        for roots).  Following the construction of ``F⁺(P)``, the rule keeps
        its negative body atoms even though only its positive part was used to
        fire it.
    depth:
        Distance from the root of the node's tree (roots have depth 0).
    level:
        The derivation level ``level_P(v)``: the chase round in which the node
        was created (roots have level 0).  In general different from ``depth``.
    children:
        Ids of the node's children.
    """

    node_id: int
    label: Atom
    parent: Optional[int] = None
    edge_rule: Optional[NormalRule] = None
    depth: int = 0
    level: int = 0
    children: list[int] = field(default_factory=list)

    def is_root(self) -> bool:
        """``True`` iff the node has no parent."""
        return self.parent is None

    def __str__(self) -> str:
        return f"[{self.node_id}] {self.label} (depth={self.depth}, level={self.level})"


class ChaseForest:
    """A (finite, materialised segment of a) guarded chase forest.

    The forest is built incrementally by :class:`repro.chase.engine.GuardedChaseEngine`;
    this class only stores nodes and maintains the indexes used everywhere
    else (labels, nodes per label, applied rule instances, negative body
    atoms).  All query methods treat the forest as the paper's ``F⁺(P)``.
    """

    def __init__(self) -> None:
        self._nodes: list[ChaseNode] = []
        self._roots: list[int] = []
        self._by_label: dict[Atom, list[int]] = {}
        self._labels: set[Atom] = set()
        self._applied: set[tuple[int, NormalRule]] = set()
        self._negative_atoms: set[Atom] = set()
        # Change-notification hooks (see add_listener): called after a node is
        # fully indexed, so listeners observe a consistent forest.
        self._listeners: list[Callable[[ChaseNode, bool], None]] = []
        # Number of nodes at the last recompute_levels pass: the forest is
        # append-only, so levels are canonical iff nothing was added since.
        self._canonical_upto = 0

    # -- change notification -----------------------------------------------------

    def add_listener(self, listener: Callable[["ChaseNode", bool], None]) -> None:
        """Register a callback fired on every node insertion.

        The callback receives ``(node, is_new_label)`` where ``is_new_label``
        tells whether the node's label occurs in the forest for the first
        time.  It runs *after* the node is indexed, so the forest is
        consistent when observed from inside the callback.  This is how the
        agenda-based :class:`repro.chase.engine.GuardedChaseEngine` keeps its
        worklist and side-atom waiters in sync with every insertion, facts
        added at construction included, without re-scanning the forest.
        """
        self._listeners.append(listener)

    # -- construction (used by the engine) -------------------------------------

    def add_root(self, label: Atom) -> ChaseNode:
        """Add a root node labelled with a fact (level 0, depth 0)."""
        node = ChaseNode(node_id=len(self._nodes), label=label)
        self._nodes.append(node)
        self._roots.append(node.node_id)
        is_new_label = self._index(node)
        for listener in self._listeners:
            listener(node, is_new_label)
        return node

    def add_child(
        self,
        parent_id: int,
        label: Atom,
        edge_rule: NormalRule,
        level: int,
    ) -> ChaseNode:
        """Add a child of *parent_id* labelled *label* via the ground rule *edge_rule*."""
        parent = self._nodes[parent_id]
        node = ChaseNode(
            node_id=len(self._nodes),
            label=label,
            parent=parent_id,
            edge_rule=edge_rule,
            depth=parent.depth + 1,
            level=level,
        )
        self._nodes.append(node)
        parent.children.append(node.node_id)
        self._applied.add((parent_id, edge_rule))
        self._negative_atoms.update(edge_rule.body_neg)
        is_new_label = self._index(node)
        for listener in self._listeners:
            listener(node, is_new_label)
        return node

    def _index(self, node: ChaseNode) -> bool:
        """Maintain the label indexes; ``True`` iff the label is new to the forest."""
        self._by_label.setdefault(node.label, []).append(node.node_id)
        is_new = node.label not in self._labels
        if is_new:
            self._labels.add(node.label)
        return is_new

    def was_applied(self, parent_id: int, rule: NormalRule) -> bool:
        """Has this exact ground rule already been fired at this node?"""
        return (parent_id, rule) in self._applied

    # -- node access -------------------------------------------------------------

    def node(self, node_id: int) -> ChaseNode:
        """The node with the given id."""
        return self._nodes[node_id]

    def nodes(self) -> Sequence[ChaseNode]:
        """All nodes, in creation order."""
        return tuple(self._nodes)

    def roots(self) -> list[ChaseNode]:
        """The root nodes (database facts)."""
        return [self._nodes[i] for i in self._roots]

    def children(self, node_id: int) -> list[ChaseNode]:
        """The children of a node."""
        return [self._nodes[i] for i in self._nodes[node_id].children]

    def parent(self, node_id: int) -> Optional[ChaseNode]:
        """The parent of a node, or ``None`` for roots."""
        parent_id = self._nodes[node_id].parent
        return None if parent_id is None else self._nodes[parent_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ChaseNode]:
        return iter(self._nodes)

    # -- label access -------------------------------------------------------------

    def labels(self) -> frozenset[Atom]:
        """``label(F)``: the set of atoms labelling some node."""
        return frozenset(self._labels)

    def labels_live(self) -> set[Atom]:
        """The *live* label set (no copy).  Read-only by contract.

        The agenda-based engine tests side-atom membership on every firing;
        copying the set per lookup (as :meth:`labels` does) would turn the
        incremental saturation quadratic again.  Callers must not mutate the
        returned set.
        """
        return self._labels

    def has_label(self, atom: Atom) -> bool:
        """Does some node carry this label?"""
        return atom in self._labels

    def nodes_with_label(self, atom: Atom) -> list[ChaseNode]:
        """All nodes labelled with *atom* (there may be several, cf. Example 6)."""
        return [self._nodes[i] for i in self._by_label.get(atom, ())]

    def negative_atoms(self) -> frozenset[Atom]:
        """``N(F)``: atoms occurring negated in some edge rule of the forest."""
        return frozenset(self._negative_atoms)

    # -- structural queries ----------------------------------------------------------

    def level_of_atom(self, atom: Atom) -> Optional[int]:
        """``level_P(a)``: the minimum level of a node labelled *atom* (``None`` = ∞).

        **Contract:** the result is ``None`` exactly when no node of the forest
        is *labelled* with the atom.  In particular, atoms that occur in the
        forest only inside the negative body of an edge rule — i.e. atoms in
        :meth:`negative_atoms` that were never derived — return ``None``, not
        a level: the paper's ``level_P`` is defined on nodes, and a purely
        negative hypothesis has no node.  Callers distinguishing "absent from
        the forest" from "present only as a negative literal" should consult
        :meth:`negative_atoms` as well.
        """
        node_ids = self._by_label.get(atom)
        if not node_ids:
            return None
        return min(self._nodes[i].level for i in node_ids)

    def depth_of_atom(self, atom: Atom) -> Optional[int]:
        """The minimum tree depth of a node labelled *atom* (``None`` if absent).

        **Contract:** like :meth:`level_of_atom`, this returns ``None`` for
        any atom that labels no node — including atoms that occur *only* as
        negative body literals of edge rules (``N(F)``); such atoms have no
        node and therefore no depth.  Use :meth:`negative_atoms` to detect
        that case explicitly.
        """
        node_ids = self._by_label.get(atom)
        if not node_ids:
            return None
        return min(self._nodes[i].depth for i in node_ids)

    def max_depth(self) -> int:
        """The maximum node depth in the forest (0 for a forest of roots)."""
        return max((n.depth for n in self._nodes), default=0)

    def nodes_at_depth(self, depth: int) -> list[ChaseNode]:
        """All nodes at exactly the given tree depth."""
        return [n for n in self._nodes if n.depth == depth]

    def subtree_nodes(self, node_id: int) -> list[ChaseNode]:
        """The nodes of the subtree rooted at *node_id* (preorder)."""
        result: list[ChaseNode] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            node = self._nodes[current]
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def subtree_labels(self, node_id: int) -> set[Atom]:
        """The labels of the subtree rooted at *node_id*."""
        return {n.label for n in self.subtree_nodes(node_id)}

    def path_to_root(self, node_id: int) -> list[ChaseNode]:
        """The path from *node_id* up to its tree's root (node first, root last)."""
        path = [self._nodes[node_id]]
        while path[-1].parent is not None:
            path.append(self._nodes[path[-1].parent])
        return path

    def edge_rules(self) -> list[NormalRule]:
        """The ground rules labelling the edges of the forest (with duplicates removed)."""
        seen: set[NormalRule] = set()
        result: list[NormalRule] = []
        for node in self._nodes:
            rule = node.edge_rule
            if rule is not None and rule not in seen:
                seen.add(rule)
                result.append(rule)
        return result

    def side_literals_of_path(self, node_id: int) -> tuple[set[Atom], set[Atom]]:
        """Side literals of the root-to-node path (Sec. 4 / WCHECK).

        Returns ``(positive_side_atoms, negative_side_atoms)``: the non-guard
        positive body atoms and the negated body atoms of the rules applied
        along the path from the root down to *node_id*.
        """
        positive: set[Atom] = set()
        negative: set[Atom] = set()
        for node in self.path_to_root(node_id):
            rule = node.edge_rule
            if rule is None:
                continue
            parent = self.parent(node.node_id)
            guard_label = parent.label if parent is not None else None
            for atom in rule.body_pos:
                if atom != guard_label:
                    positive.add(atom)
            negative.update(rule.body_neg)
        return positive, negative

    # -- canonical levels --------------------------------------------------------

    def recompute_levels(self) -> int:
        """Assign every node its canonical derivation level (the paper's stage).

        The construction of ``F(P)`` proceeds in stages: ``F_{i+1}`` fires
        every rule whose guard labels a node of ``F_i`` and whose body lies in
        ``label(F_i)``.  The stage of a node is therefore the least fixpoint of

            ``level(root) = 0``
            ``level(child) = 1 + max(level(parent), level(a) for side atoms a)``

        where the level of an *atom* is the minimum level over nodes labelled
        with it.  A single-shot saturating expansion assigns exactly these
        values round by round, but incremental deepening (and segment
        splicing) create nodes out of stage order; this method restores the
        canonical values, making levels a pure function of the forest's
        structure — independent of the order in which nodes were added.

        Computed with a Dijkstra-style pass (nodes finalised in nondecreasing
        level order), ``O((nodes + body atoms) log nodes)``.  Nodes whose
        derivation cannot be replayed structurally keep their recorded level
        (this can only happen in hand-built forests, never in forests produced
        by :class:`repro.chase.engine.GuardedChaseEngine`).  Returns the
        number of nodes whose level changed.

        The forest is append-only and levels are only mutated here, so when no
        node was inserted since the previous pass the levels are already
        canonical and the call returns immediately — incremental callers (the
        agenda-based engine recomputes after every saturation) pay nothing for
        already-canonical forests.
        """
        count = len(self._nodes)
        if count == self._canonical_upto:
            return 0
        if count == 0:
            return 0
        # The prerequisites of each non-root node: its parent plus the distinct
        # positive body atoms of its edge rule other than the parent's label
        # (the guard instance; its atom-level never exceeds the parent's).
        sides: list[tuple[Atom, ...]] = []
        for node in self._nodes:
            if node.parent is None:
                sides.append(())
                continue
            parent_label = self._nodes[node.parent].label
            distinct: list[Atom] = []
            seen: set[Atom] = set()
            for atom in node.edge_rule.body_pos:
                if atom != parent_label and atom not in seen:
                    seen.add(atom)
                    distinct.append(atom)
            sides.append(tuple(distinct))

        # Fast path: one forward pass in insertion order (parents always
        # precede their children), taking each side atom's smallest level
        # *seen so far*, then one verification pass against the final
        # per-label minima.  If the verification succeeds, the assignment
        # satisfies the defining equations — whose solution is unique — so it
        # is the canonical one without any heap work.  It fails (and the
        # Dijkstra pass below takes over) exactly when some side atom is only
        # derived by a node inserted after its consumer.
        fast: list[int] = [0] * count
        seen_atom: dict[Atom, int] = {}
        consistent = True
        for node in self._nodes:
            node_id = node.node_id
            if node.parent is None:
                level = 0
            else:
                level = fast[node.parent]
                for atom in sides[node_id]:
                    seen = seen_atom.get(atom)
                    if seen is None:
                        consistent = False
                        break
                    if seen > level:
                        level = seen
                if not consistent:
                    break
                level += 1
            fast[node_id] = level
            previous = seen_atom.get(node.label)
            if previous is None or level < previous:
                seen_atom[node.label] = level
        if consistent:
            for node in self._nodes:
                if node.parent is None:
                    continue
                node_id = node.node_id
                level = fast[node.parent]
                for atom in sides[node_id]:
                    seen = seen_atom[atom]
                    if seen > level:
                        level = seen
                if fast[node_id] != level + 1:
                    consistent = False
                    break
            if consistent:
                changed = 0
                for node_id, level in enumerate(fast):
                    if self._nodes[node_id].level != level:
                        self._nodes[node_id].level = level
                        changed += 1
                self._canonical_upto = count
                return changed

        waiting = [0] * count
        waiters_by_atom: dict[Atom, list[int]] = {}
        final: list[Optional[int]] = [None] * count
        atom_final: dict[Atom, int] = {}
        heap: list[tuple[int, int]] = []
        for node in self._nodes:
            if node.parent is None:
                heap.append((0, node.node_id))
            else:
                waiting[node.node_id] = 1 + len(sides[node.node_id])
                for atom in sides[node.node_id]:
                    waiters_by_atom.setdefault(atom, []).append(node.node_id)
        heapq.heapify(heap)

        def ready(node_id: int) -> None:
            node = self._nodes[node_id]
            level = final[node.parent]
            for atom in sides[node_id]:
                level = max(level, atom_final[atom])
            heapq.heappush(heap, (level + 1, node_id))

        while heap:
            level, node_id = heapq.heappop(heap)
            if final[node_id] is not None:
                continue
            final[node_id] = level
            node = self._nodes[node_id]
            for child_id in node.children:
                waiting[child_id] -= 1
                if waiting[child_id] == 0:
                    ready(child_id)
            if node.label not in atom_final:
                atom_final[node.label] = level
                for waiter_id in waiters_by_atom.get(node.label, ()):
                    waiting[waiter_id] -= 1
                    if waiting[waiter_id] == 0:
                        ready(waiter_id)

        changed = 0
        for node_id, level in enumerate(final):
            if level is not None and self._nodes[node_id].level != level:
                self._nodes[node_id].level = level
                changed += 1
        self._canonical_upto = count
        return changed

    def __repr__(self) -> str:
        return (
            f"ChaseForest({len(self._nodes)} nodes, {len(self._labels)} distinct labels, "
            f"max depth {self.max_depth()})"
        )
