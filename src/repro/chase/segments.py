"""Chase-segment caching by canonical atom type (the memoization of Lemma 11).

Lemma 11 of the paper is the statement that makes the guarded chase
*memoizable*: nodes of the chase forest whose types are X-isomorphic have
X-isomorphic well-founded submodels — the subtree hanging below a node is
determined by the node's type, not by the node's position in the forest.
Production Datalog± engines (e.g. Vadalog) turn exactly this observation into
their termination/reuse machinery.  This module is the corresponding subsystem
for :class:`repro.chase.engine.GuardedChaseEngine`:

* **Canonicalisation** — :func:`repro.chase.types.shape_key` maps a ground
  atom to its *shape*: predicate, constant positions/values and the equality
  pattern among its labelled nulls, modulo a bijective renaming of the nulls.
  This is the ``a`` part of the paper's type ``type_P(a) = (a, S)``.  The
  engine pairs the shape with the chase-relevant fragment of the ``S`` part
  — the side-relevant labels over ``dom(a)``, canonicalised by
  :func:`repro.chase.types.context_part_key` — to form the full *segment
  key*: equal keys mean identical firing environments for every inherited
  term, which is what lets a splice place interior nodes without re-matching
  any rules (*certified splicing*; see :mod:`repro.chase.engine`).
* **Memoisation** — :class:`SegmentStore` maps a segment key to a
  :class:`CachedSegment`: the fully expanded subtree below one node with that
  key, stored as the node's label, the relative depth to which the subtree
  was saturated, and the subtree's ground firings in preorder.  A segment is
  spliced only under a node whose label equals its recorded root label
  (a lookup under any other label is a miss), so placing it takes set
  lookups and node insertions only.  A stored segment is replaced only by a
  deeper one.
* **Sharing** — an engine records into a store only when its caller hands
  it one (``segment_cache``); a default engine has none.  Engines that
  should reuse each other's segments — repeated engines over one rule set,
  or the relevance-pruned sub-engines of the magic-sets fallback path — are
  given the same :class:`SegmentStore`.  Nothing is shared behind the
  caller's back: there is no process-wide store.

Why the splice is exact
-----------------------

A cached firing is *not* trusted blindly.  The replay starts at a node whose
label is the recorded root label, so by induction down the preorder every
recorded ground rule's guard instance is the label of the node it is placed
under.  Each firing names the Skolemised rule it instantiates, which the
engine has (segment keys carry the rule-set fingerprint, see below), and is
placed only if every side atom is already a label of the *current* forest and
the firing has not been applied yet — so every spliced child is a firing the
ordinary expansion would also perform.  The first
failed check stops the replay and voids its certificate: every node placed so
far goes through the engine's agenda.  The engine then runs its normal
saturation, which adds anything the segment missed and certifies quiescence.
The saturated forest within a depth bound is the least fixpoint of the chase
step and hence unique — so the forest built with the cache is **identical**
(same node trees, labels, ground rules, levels) to the forest built without
it, and every query answer is bit-identical.  The cache only changes *how
fast* the fixpoint is reached, never *which* fixpoint.

The certificate that lets a splice skip its interior nodes assumes the
recording engine had the same rules.  The engine heads every segment key with
its rule-set fingerprint (:func:`program_fingerprint`), so a lookup from an
engine over other rules misses, and one store can serve several rule sets.

A store is bounded — at most ``max_segments`` segments of at most
``max_segment_nodes`` derivations, evicted LRU-first — and, like the engines
that use it, not thread-safe: share one between threads only under the
caller's own lock.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..lang.atoms import Atom
from ..lang.rules import NormalRule

__all__ = [
    "CachedSegment",
    "SegmentStore",
    "program_fingerprint",
]


def canonical_rule_order(rules: Iterable[NormalRule]) -> list[NormalRule]:
    """The canonical (sorted, de-duplicated) ordering of a rule set.

    Two rule sets with the same canonical order fingerprint identically
    (:func:`program_fingerprint`).  Fact rules never label chase edges and
    are excluded.
    """
    seen: set[NormalRule] = set()
    unique: list[NormalRule] = []
    for rule in rules:
        if rule.is_fact() or rule in seen:
            continue
        seen.add(rule)
        unique.append(rule)
    unique.sort(key=str)
    return unique


def program_fingerprint(rules: Iterable[NormalRule]) -> str:
    """A stable fingerprint of a (Skolemised) rule set.

    The fingerprint is the SHA-256 of the sorted textual forms of the non-fact
    rules; it identifies the rule set up to rule order and duplicate rules,
    and is independent of the database — engines over different databases
    can share a store because a segment is replayed only under its own root
    label and every replayed firing is re-checked against the target forest
    (see the module docstring).
    """
    digest = hashlib.sha256()
    for rule in canonical_rule_order(rules):
        digest.update(b"\x00")
        digest.update(str(rule).encode("utf-8"))
    return digest.hexdigest()


#: One recorded firing: ``(parent, rule, ground rule, side atoms)``.
Derivation = tuple[int, NormalRule, NormalRule, tuple[Atom, ...]]


@dataclass(frozen=True)
class CachedSegment:
    """A fully expanded chase subtree and the root label it was recorded under.

    Attributes
    ----------
    relative_depth:
        How many levels below the segment root the subtree was saturated when
        recorded (the root's distance to the depth bound at recording time).
        A splice under a node closer to the current bound simply places fewer
        levels; one further away leaves the deeper levels to the ordinary
        saturation.
    root_label:
        The label of the node the subtree was recorded below; the segment is
        replayed only under a node with this label.
    derivations:
        The subtree's nodes in preorder: derivation ``i`` describes local node
        ``i + 1`` (the root is local node ``0``) as the child of the earlier
        local node ``parent``, placed by the Skolemised ``rule`` through its
        ground instance ``ground rule``, whose non-guard positive body atoms
        are ``side atoms``.
    """

    relative_depth: int
    root_label: Atom
    derivations: tuple[Derivation, ...]

    def __len__(self) -> int:
        return len(self.derivations)


class SegmentStore:
    """An LRU store of :class:`CachedSegment` keyed by canonical segment key
    (rule-set fingerprint + atom shape + side-atom context; the store treats
    keys as opaque tuples).

    Engines given the same store splice each other's recorded segments.  A
    key holds one segment, replaced only by a deeper recording.
    """

    def __init__(
        self,
        *,
        max_segments: int = 4096,
        max_segment_nodes: int = 100_000,
        max_total_nodes: int = 1_000_000,
    ):
        self.max_segments = max_segments
        self.max_segment_nodes = max_segment_nodes
        #: budget on the *sum* of derivations across all segments, so a store
        #: full of large segments cannot outgrow memory before hitting
        #: max_segments
        self.max_total_nodes = max_total_nodes
        self._segments: "OrderedDict[tuple, CachedSegment]" = OrderedDict()
        self._total_nodes = 0
        self._hits = 0
        self._misses = 0
        self._recordings = 0
        self._evictions = 0

    # -- lookup / record --------------------------------------------------------

    def lookup(self, key: tuple, root_label: Atom) -> Optional[CachedSegment]:
        """The segment for *key* recorded under *root_label*, or ``None``.

        A segment stored under another root label counts as a miss.
        """
        segment = self._segments.get(key)
        if segment is None or segment.root_label != root_label:
            self._misses += 1
            return None
        self._segments.move_to_end(key)
        self._hits += 1
        return segment

    def peek(self, key: tuple) -> Optional[CachedSegment]:
        """The segment for a key without LRU or counter effects."""
        return self._segments.get(key)

    def record(
        self,
        key: tuple,
        relative_depth: int,
        root_label: Atom,
        derivations: tuple[Derivation, ...],
    ) -> bool:
        """Store a segment unless it is too large or no deeper than the stored one.

        A recorded segment is replaced only by one saturated deeper.  Empty
        segments are never stored: "no children" is a database-dependent
        observation, not a property of the shape.  Returns whether the
        segment was stored.
        """
        if (
            relative_depth <= 0
            or not derivations
            or len(derivations) > self.max_segment_nodes
        ):
            return False
        existing = self._segments.get(key)
        if existing is not None:
            if existing.relative_depth >= relative_depth:
                return False
            self._total_nodes -= len(existing)
        self._segments[key] = CachedSegment(relative_depth, root_label, derivations)
        self._segments.move_to_end(key)
        self._total_nodes += len(derivations)
        self._recordings += 1
        while self._segments and (
            len(self._segments) > self.max_segments
            or self._total_nodes > self.max_total_nodes
        ):
            _, evicted = self._segments.popitem(last=False)
            self._total_nodes -= len(evicted)
            self._evictions += 1
        return key in self._segments

    # -- maintenance / introspection --------------------------------------------

    def clear(self) -> None:
        """Drop every segment and reset the counters."""
        self._segments.clear()
        self._total_nodes = 0
        self._hits = self._misses = self._recordings = self._evictions = 0

    def __len__(self) -> int:
        return len(self._segments)

    def stats(self) -> dict:
        """Counters of the store (summed over every engine that uses it)."""
        return {
            "segments": len(self._segments),
            "cached_nodes": self._total_nodes,
            "hits": self._hits,
            "misses": self._misses,
            "recordings": self._recordings,
            "evictions": self._evictions,
        }

    def __repr__(self) -> str:
        return f"SegmentStore({len(self)} segments)"


def clear_segment_stores() -> None:
    """Do nothing: no store outlives the engines it was handed to.

    Kept only because the end-to-end benchmark's cold-answer workload still
    calls it before every operation; it goes once that call does.  A store
    shared between engines is emptied with :meth:`SegmentStore.clear`.
    """
