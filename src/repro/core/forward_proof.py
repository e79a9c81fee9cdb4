"""Forward proofs and the Ŵ_P operator (Definitions 5 and 7, Theorem 8).

A *forward proof* of an atom ``a`` from ``P`` is a finite subforest π of
``F⁺(P)`` such that

1. some node of π (the *goal node*) is labelled ``a``,
2. π is closed under parents in ``F⁺(P)``,
3. if ``r`` labels the edge into a node ``w`` of π, then every positive body
   atom ``b ∈ B⁺(r)`` labels some node ``u ∈ π`` with
   ``level_P(u) < level_P(w)``.

``N(π)`` collects the atoms occurring negated in the edge rules of π — the
proof's *negative hypotheses*.  The operator Ŵ_P (Def. 7) derives

* ``a``   when some forward proof of ``a`` has all its negative hypotheses
  already false in the current interpretation, and
* ``¬a``  when *every* forward proof of ``a`` is blocked by a negative
  hypothesis that is already true (in particular when ``a`` has no forward
  proof at all),

and by Theorem 8 its least fixpoint is exactly ``WFS(P)``.

On the materialised finite chase segment both conditions reduce to
reachability computations over the forest:

* "∃ proof with ¬.N(π) ⊆ I" — least fixpoint of node provability where an
  edge may be used only if each of its negated atoms is false in ``I``;
* "every proof blocked" — the complement of the same computation with the
  weaker edge condition "each negated atom is *not true* in ``I``".

:func:`what_operator` implements one application of Ŵ_P on the segment and
:func:`what_fixpoint` iterates it; the engine uses the result as an
independent cross-check of the ground-program WFS, and the test-suite
replays Example 6/9 of the paper with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..lang.atoms import Atom
from ..chase.forest import ChaseForest, ChaseNode
from ..lp.interpretation import Interpretation

__all__ = [
    "ForwardProof",
    "find_forward_proof",
    "provable_atoms",
    "what_operator",
    "what_fixpoint",
]


@dataclass(frozen=True)
class ForwardProof:
    """A forward proof: the node ids of the subforest π plus bookkeeping.

    ``goal`` is the goal node id; ``negative_hypotheses`` is ``N(π)``.
    """

    goal: int
    nodes: frozenset[int]
    negative_hypotheses: frozenset[Atom]

    def size(self) -> int:
        """Number of nodes of the proof."""
        return len(self.nodes)


def _provable_nodes(
    forest: ChaseForest,
    negative_ok: Callable[[Atom], bool],
) -> set[int]:
    """Node-level least fixpoint of "has a qualifying forward proof through me".

    A node is provable iff it is a root, or (a) its parent is provable, (b)
    every negated atom of its edge rule satisfies *negative_ok*, and (c) every
    positive body atom of its edge rule labels some provable node of strictly
    smaller derivation level.
    """
    provable: set[int] = set()
    provable_labels_by_level: dict[Atom, int] = {}

    def min_level(atom: Atom) -> Optional[int]:
        return provable_labels_by_level.get(atom)

    changed = True
    while changed:
        changed = False
        for node in forest.nodes():
            if node.node_id in provable:
                continue
            if node.is_root():
                qualifies = True
            else:
                rule = node.edge_rule
                parent_ok = node.parent in provable
                negatives_ok = parent_ok and all(negative_ok(b) for b in rule.body_neg)
                qualifies = negatives_ok
                if qualifies:
                    for body_atom in rule.body_pos:
                        level = min_level(body_atom)
                        if level is None or level >= node.level:
                            qualifies = False
                            break
            if qualifies:
                provable.add(node.node_id)
                label = forest.node(node.node_id).label
                level = forest.node(node.node_id).level
                best = provable_labels_by_level.get(label)
                if best is None or level < best:
                    provable_labels_by_level[label] = level
                changed = True
    return provable


def provable_atoms(
    forest: ChaseForest,
    negative_ok: Callable[[Atom], bool],
) -> set[Atom]:
    """Atoms that have a forward proof whose negated edge atoms all satisfy *negative_ok*."""
    nodes = _provable_nodes(forest, negative_ok)
    return {forest.node(i).label for i in nodes}


def find_forward_proof(
    forest: ChaseForest,
    atom: Atom,
    *,
    allowed_negatives: Optional[Callable[[Atom], bool]] = None,
) -> Optional[ForwardProof]:
    """Construct a forward proof of *atom* from the materialised forest, if any.

    The proof returned is built greedily from the provability fixpoint: for
    each required positive body atom the provable node of smallest derivation
    level is chosen, and ancestors are added as required by closure under
    parents.  ``allowed_negatives`` restricts which negated edge atoms may be
    used (default: all).
    """
    negative_ok = allowed_negatives if allowed_negatives is not None else (lambda _b: True)
    provable = _provable_nodes(forest, negative_ok)

    candidates = [n for n in forest.nodes_with_label(atom) if n.node_id in provable]
    if not candidates:
        return None
    goal = min(candidates, key=lambda n: (n.level, n.depth, n.node_id))

    # Choose, for each label, the provable node of smallest level (used as the
    # witness required by condition 3 of Def. 5).
    best_node_for_label: dict[Atom, ChaseNode] = {}
    for node_id in provable:
        node = forest.node(node_id)
        best = best_node_for_label.get(node.label)
        if best is None or node.level < best.level:
            best_node_for_label[node.label] = node

    included: set[int] = set()
    negatives: set[Atom] = set()
    worklist = [goal.node_id]
    while worklist:
        current_id = worklist.pop()
        if current_id in included:
            continue
        included.add(current_id)
        node = forest.node(current_id)
        if node.parent is not None:
            worklist.append(node.parent)
        rule = node.edge_rule
        if rule is None:
            continue
        negatives.update(rule.body_neg)
        for body_atom in rule.body_pos:
            witness = best_node_for_label.get(body_atom)
            if witness is not None and witness.node_id not in included:
                worklist.append(witness.node_id)
    return ForwardProof(goal.node_id, frozenset(included), frozenset(negatives))


def what_operator(
    forest: ChaseForest,
    interpretation: Interpretation,
    universe: Optional[Iterable[Atom]] = None,
) -> Interpretation:
    """One application of the operator Ŵ_P (Def. 7) over the finite forest segment.

    * ``a`` is derived when *atom* has a forward proof all of whose negative
      hypotheses are false in *interpretation*;
    * ``¬a`` is derived when every forward proof of ``a`` (within the segment)
      is blocked by a hypothesis true in *interpretation* — equivalently, when
      ``a`` is not provable even if every negated atom that is *not true* may
      be assumed false.  Atoms of the universe without any node are unproven
      and hence derived negative.

    The *universe* defaults to the forest's labels plus the negated atoms of
    its edge rules.
    """
    if universe is None:
        universe_set = set(forest.labels()) | set(forest.negative_atoms())
    else:
        universe_set = set(universe)

    strictly_provable = provable_atoms(forest, interpretation.is_false)
    possibly_provable = provable_atoms(
        forest, lambda b: not interpretation.is_true(b)
    )

    true_atoms = set(strictly_provable)
    false_atoms = {a for a in universe_set if a not in possibly_provable}
    return Interpretation(true_atoms, false_atoms - true_atoms)


def what_fixpoint(
    forest: ChaseForest,
    universe: Optional[Iterable[Atom]] = None,
    *,
    max_iterations: int = 10_000,
) -> Interpretation:
    """The least fixpoint of Ŵ_P over the finite forest segment (Theorem 8).

    Iterates :func:`what_operator` from the empty interpretation.  On the
    infinite forest the iteration may be transfinite (Example 9); on the
    finite materialised segment it terminates after at most
    ``|universe|`` many steps.
    """
    current = Interpretation.empty()
    for _ in range(max_iterations):
        nxt = what_operator(forest, current, universe)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("what_fixpoint did not converge within the iteration budget")
