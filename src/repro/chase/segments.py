"""Chase-segment caching by canonical atom type (the memoization of Lemma 11).

Lemma 11 of the paper is the statement that makes the guarded chase
*memoizable*: nodes of the chase forest whose types are X-isomorphic have
X-isomorphic well-founded submodels — the subtree hanging below a node is
determined by the node's type, not by the node's position in the forest.
Production Datalog± engines (e.g. Vadalog) turn exactly this observation into
their termination/reuse machinery.  This module is the corresponding subsystem
for :class:`repro.chase.engine.GuardedChaseEngine`:

* **Canonicalisation** — :func:`canonical_atom_shape` maps a ground atom to its
  *shape*: predicate, constant positions/values and the equality pattern among
  its labelled nulls, modulo a bijective renaming of the nulls.  This is the
  ``a`` part of the paper's type ``type_P(a) = (a, S)``.  The engine pairs the
  shape with the chase-relevant fragment of the ``S`` part — the
  side-relevant labels over ``dom(a)``, canonicalised by
  :func:`repro.chase.types.context_part_key` — to form the full *segment
  key*: equal keys mean identical firing environments for every inherited
  term, which is what lets a splice place interior nodes without re-matching
  any rules (*certified splicing*; see :mod:`repro.chase.engine`).  Every
  reuse is additionally re-validated against the target forest (see below),
  so even a key collision can never corrupt answers.
* **Memoisation** — :class:`SegmentStore` maps a segment key to a
  :class:`CachedSegment`: the fully expanded subtree below a node with that
  key, stored position-independently as a topologically ordered list of
  ``(parent index, canonical rule index)`` derivations plus the relative depth
  to which the subtree was saturated.  Alongside, the store memoizes *ground
  replays* per ``(key, root label)`` (:meth:`SegmentStore.replay_lookup`):
  replaying a segment under a fixed root label is deterministic, so repeated
  workloads place whole subtrees through set lookups and insertions only.
* **Persistence** — stores live in a module-level registry keyed by a
  *program fingerprint* (:func:`program_fingerprint`), so segments recorded by
  one engine instance are spliced by every later engine over the same rule set
  — including fresh engines built after an eviction from the
  :mod:`repro.core.answering` engine LRU, and the relevance-pruned sub-engines
  of the magic-sets fallback path (their pruned rule sets fingerprint
  separately, so reuse composes with the PR 2 rewrite machinery).

Why the splice is exact
-----------------------

A cached derivation is *not* trusted blindly.  Splicing replays it under the
new node by re-matching the rule's guard against the new label (the null
renaming of Lemma 11 falls out of the substitution) and re-checking that every
non-guard positive body atom is a label of the *current* forest.  Because
labels only ever grow, every spliced child is a firing the ordinary
breadth-first expansion would also perform; derivations whose side atoms are
absent are simply dropped.  The engine then runs its normal saturation rounds,
which add anything the segment missed and certify quiescence.  The saturated
forest within a depth bound is the least fixpoint of the chase step and hence
unique — so the forest built with the cache is **identical** (same node trees,
labels, ground rules, levels) to the forest built without it, and every query
answer is bit-identical.  The cache only changes *how fast* the fixpoint is
reached, never *which* fixpoint.

The stores are safe to share between threads (all mutating operations take an
internal lock) and bounded: at most :data:`REGISTRY_SIZE` fingerprints are
kept, each store holds at most ``max_segments`` segments of at most
``max_segment_nodes`` derivations, all evicted LRU-first.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..lang.atoms import Atom
from ..lang.rules import NormalRule
from .types import shape_key

__all__ = [
    "CachedSegment",
    "SegmentStore",
    "canonical_atom_shape",
    "program_fingerprint",
    "shared_segment_store",
    "clear_segment_stores",
    "segment_store_info",
    "REGISTRY_SIZE",
]


def canonical_atom_shape(atom: Atom) -> tuple:
    """The canonical type key of a ground atom for segment caching.

    Identical to :func:`repro.chase.types.shape_key`: the predicate, the
    constants (by value and position) and the equality pattern among the
    labelled nulls, with nulls renamed by first occurrence.  Two atoms have
    the same shape iff one is obtained from the other by a bijective renaming
    of nulls fixing all constants — the precondition of Lemma 11 for the label
    part of a type.
    """
    return shape_key(atom)


def canonical_rule_order(rules: Iterable[NormalRule]) -> list[NormalRule]:
    """The canonical (sorted, de-duplicated) ordering of a rule set.

    Cached segments refer to rules by their index in this ordering, so any two
    engines whose rule sets sort identically agree on what every stored
    derivation means.  Fact rules never label chase edges and are excluded.
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
    and is independent of the database — segments are database-independent
    because every splice is re-validated against the target forest (see the
    module docstring).
    """
    digest = hashlib.sha256()
    for rule in canonical_rule_order(rules):
        digest.update(b"\x00")
        digest.update(str(rule).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CachedSegment:
    """A fully expanded chase subtree, stored position-independently.

    Attributes
    ----------
    relative_depth:
        How many levels below the segment root the subtree was saturated when
        recorded (the root's distance to the depth bound at recording time).
        A splice under a node closer to the current bound simply places fewer
        levels; one further away leaves the deeper levels to the ordinary
        rounds (which may re-enter the cache for the spliced frontier).
    entries:
        Topologically ordered derivations ``(parent, rule)``: entry ``i``
        describes local node ``i + 1`` (the root is local node ``0``) as the
        child of local node ``parent`` obtained by firing the canonical rule
        with index ``rule`` — the rule's guard matched against the parent's
        label yields the full ground instance, because guards of guarded rules
        bind every rule variable.
    """

    relative_depth: int
    entries: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


class SegmentStore:
    """An LRU store of :class:`CachedSegment` keyed by canonical segment key
    (atom shape + side-atom context; the store treats keys as opaque tuples).

    One store corresponds to one program fingerprint; engines sharing a
    fingerprint share the store (and hence each other's recorded segments and
    memoized replays).  All operations are thread-safe.
    """

    def __init__(
        self,
        fingerprint: str = "",
        *,
        max_segments: int = 4096,
        max_segment_nodes: int = 100_000,
        max_total_nodes: int = 1_000_000,
        max_replays: int = 4096,
    ):
        self.fingerprint = fingerprint
        self.max_segments = max_segments
        self.max_segment_nodes = max_segment_nodes
        #: budget on the *sum* of entries across all segments, so a store full
        #: of large segments cannot outgrow memory before hitting max_segments
        self.max_total_nodes = max_total_nodes
        #: bound on the number of memoized replays (see :meth:`replay_lookup`)
        self.max_replays = max_replays
        self._segments: "OrderedDict[tuple, CachedSegment]" = OrderedDict()
        self._total_nodes = 0
        # Memoized replays, bucketed per segment key: key -> {root label ->
        # fully ground derivations}, LRU-bounded (by bucket) and invalidated
        # in O(1) whenever the key's segment is re-recorded or evicted.  A
        # replay under a given root label is deterministic (the guard
        # substitutions are fixed by the labels), so engines over the same
        # database can place repeated subtrees without re-running any
        # substitution machinery.
        self._replays: "OrderedDict[tuple, dict]" = OrderedDict()
        self._replay_count = 0
        # Alias keys (see :meth:`record_alias`): a *cold* context-sensitive
        # lookup key served by the segment recorded under a richer
        # post-saturation key.  Resolved transparently by lookup/peek/the
        # replay memos; entries whose target was evicted are dropped lazily.
        self._aliases: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._recordings = 0
        self._evictions = 0
        self._alias_hits = 0

    # -- lookup / record --------------------------------------------------------

    def _resolve_key(self, shape: tuple) -> tuple:
        """The key actually holding a segment for *shape* (follows one alias).

        Caller must hold the lock.  A directly recorded segment always wins
        over an alias; an alias whose target segment was evicted is dropped
        on the way through.
        """
        if shape in self._segments:
            return shape
        target = self._aliases.get(shape)
        if target is not None:
            if target in self._segments:
                return target
            del self._aliases[shape]
        return shape

    def lookup(self, shape: tuple) -> Optional[CachedSegment]:
        """The cached segment for a shape, or ``None`` (counts hit/miss).

        Alias keys (:meth:`record_alias`) resolve to their target's segment
        and count as hits (plus the ``alias_hits`` counter).
        """
        with self._lock:
            resolved = self._resolve_key(shape)
            segment = self._segments.get(resolved)
            if segment is None:
                self._misses += 1
                return None
            self._segments.move_to_end(resolved)
            if resolved is not shape:
                self._aliases.move_to_end(shape)
                self._alias_hits += 1
            self._hits += 1
            return segment

    def contains(self, shape: tuple) -> bool:
        """Is a segment recorded for this shape?  No LRU or counter effects."""
        with self._lock:
            return self._resolve_key(shape) in self._segments

    def peek(self, shape: tuple) -> Optional[CachedSegment]:
        """The segment for a shape without LRU or counter effects."""
        with self._lock:
            return self._segments.get(self._resolve_key(shape))

    def needs(self, shape: tuple, relative_depth: int) -> bool:
        """Would recording a segment saturated to *relative_depth* improve the store?"""
        if relative_depth <= 0:
            return False
        with self._lock:
            existing = self._segments.get(shape)
            return existing is None or existing.relative_depth < relative_depth

    def record(
        self, shape: tuple, relative_depth: int, entries: tuple[tuple[int, int], ...]
    ) -> Optional[CachedSegment]:
        """Store a segment unless it is too large or a better one exists.

        A recorded segment is replaced when the new one is saturated deeper,
        or equally deep but with more derivations — a segment recorded from a
        forest where some side atoms were absent is *stale* (sound but
        incomplete), and a later forest that derived more under the same
        shape supersedes it.  Empty segments are never stored: "no children"
        is a database-dependent observation, not a property of the shape.

        Returns the stored :class:`CachedSegment` (truthy) when recorded and
        ``None`` when rejected — callers that go on to memoize replays pass
        the returned object back to :meth:`replay_record`, which memoizes
        only while that *identical* segment is still the one recorded.
        """
        if relative_depth <= 0 or not entries or len(entries) > self.max_segment_nodes:
            return None
        with self._lock:
            existing = self._segments.get(shape)
            if existing is not None and (
                existing.relative_depth > relative_depth
                or (
                    existing.relative_depth == relative_depth
                    and len(existing) >= len(entries)
                )
            ):
                return None
            if existing is not None:
                self._total_nodes -= len(existing)
                # memoized replays of the superseded segment are stale
                stale = self._replays.pop(shape, None)
                if stale:
                    self._replay_count -= len(stale)
            stored = CachedSegment(relative_depth, entries)
            self._segments[shape] = stored
            self._segments.move_to_end(shape)
            self._aliases.pop(shape, None)  # a direct segment supersedes an alias
            self._total_nodes += len(entries)
            self._recordings += 1
            while self._segments and (
                len(self._segments) > self.max_segments
                or self._total_nodes > self.max_total_nodes
            ):
                evicted_shape, evicted = self._segments.popitem(last=False)
                self._total_nodes -= len(evicted)
                dropped = self._replays.pop(evicted_shape, None)
                if dropped:
                    self._replay_count -= len(dropped)
                self._evictions += 1
            return stored if self._segments.get(shape) is stored else None

    def record_alias(self, alias: tuple, target: tuple) -> None:
        """Serve lookups of *alias* with the segment recorded under *target*.

        Double-keying for *cold context-sensitive keys*: a type whose
        side-atom context only materialises during saturation records under
        the post-saturation key (*target*) while fresh engines look it up
        under the pre-saturation key (*alias*) — without the alias the
        segment would be a guaranteed miss.  The caller
        (:meth:`repro.chase.engine.GuardedChaseEngine._record_segments`)
        registers an alias only when the lookup context is a **subset** of
        the recorded context, which keeps the splice sound: replayed
        derivations can only find side atoms missing (handled by the
        flag/retry machinery and the wake-once watchers), never fire beyond
        what the recording saw.  Aliases are LRU-bounded by ``max_segments``
        and dropped lazily when their target is evicted; a key with a
        directly recorded segment is never aliased away.
        """
        with self._lock:
            if alias == target or alias in self._segments:
                return
            if target not in self._segments:
                return
            self._aliases[alias] = target
            self._aliases.move_to_end(alias)
            while len(self._aliases) > self.max_segments:
                self._aliases.popitem(last=False)

    # -- memoized replays ---------------------------------------------------------

    def replay_lookup(self, key: tuple, root_label) -> Optional[tuple]:
        """The memoized ground replay for (segment key, root label), if any.

        Returns the tuple recorded by :meth:`replay_record` — fully ground
        ``(local index, parent local index, canonical rule index, ground
        rule, side atoms)`` derivations in placement order — or ``None``.
        Exact by construction: replaying a segment under a given root label
        is deterministic, and the whole bucket is dropped whenever the key's
        segment is re-recorded or evicted.
        """
        with self._lock:
            resolved = self._resolve_key(key)
            bucket = self._replays.get(resolved)
            if bucket is None:
                return None
            self._replays.move_to_end(resolved)
            return bucket.get(root_label)

    def replay_record(
        self,
        key: tuple,
        root_label,
        replay: tuple,
        *,
        segment: Optional[CachedSegment] = None,
    ) -> None:
        """Memoize a fully placed ground replay (LRU-bounded per key bucket).

        Alias keys resolve to their target's bucket, so a replay placed
        through an alias lookup is reusable by direct lookups too (and vice
        versa — the replay depends only on the segment and the root label).

        *segment*, when given, is the :class:`CachedSegment` the replay was
        derived from, and the memo is stored only while that **identical**
        object is still the one recorded under *key*.  Without the check, a
        concurrent engine re-recording a deeper or richer segment between
        this caller's lookup and its memoization would attach a memo of the
        *old* (smaller) segment to the new one — replay_lookup then serves
        an incomplete replay as if it were exact.  Checked under the store
        lock, so the compare-and-memoize step is atomic.
        """
        with self._lock:
            key = self._resolve_key(key)
            current = self._segments.get(key)
            if current is None:
                return  # the segment was evicted meanwhile; don't resurrect
            if segment is not None and current is not segment:
                return  # superseded meanwhile; the memo belongs to the old one
            bucket = self._replays.get(key)
            if bucket is None:
                bucket = self._replays[key] = {}
            if root_label not in bucket:
                self._replay_count += 1
            bucket[root_label] = replay
            self._replays.move_to_end(key)
            while self._replay_count > self.max_replays and self._replays:
                _, dropped = self._replays.popitem(last=False)
                self._replay_count -= len(dropped)

    # -- maintenance / introspection --------------------------------------------

    def clear(self) -> None:
        """Drop every segment and reset the counters."""
        with self._lock:
            self._segments.clear()
            self._replays.clear()
            self._aliases.clear()
            self._replay_count = 0
            self._total_nodes = 0
            self._hits = self._misses = self._recordings = self._evictions = 0
            self._alias_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def stats(self) -> dict:
        """Counters of the store (shared by every engine on this fingerprint)."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "cached_nodes": self._total_nodes,
                "hits": self._hits,
                "misses": self._misses,
                "recordings": self._recordings,
                "evictions": self._evictions,
                "aliases": len(self._aliases),
                "alias_hits": self._alias_hits,
            }

    def __repr__(self) -> str:
        return (
            f"SegmentStore({len(self)} segments, fingerprint="
            f"{self.fingerprint[:12] or '-'}...)"
        )


# ---------------------------------------------------------------------------
# The module-level registry: fingerprint → store, persistent across engines
# ---------------------------------------------------------------------------

#: Maximum number of program fingerprints whose stores are kept alive.
REGISTRY_SIZE = 32

_registry_lock = threading.Lock()
_stores: "OrderedDict[str, SegmentStore]" = OrderedDict()


def shared_segment_store(rules: Iterable[NormalRule]) -> SegmentStore:
    """The persistent :class:`SegmentStore` for a rule set (created on miss).

    Keyed by :func:`program_fingerprint`, so every engine over the same
    (Skolemised) rules — across databases, deepening schedules and engine-LRU
    evictions — shares one store.  The registry is LRU-bounded by
    :data:`REGISTRY_SIZE`.
    """
    fingerprint = program_fingerprint(rules)
    with _registry_lock:
        store = _stores.get(fingerprint)
        if store is None:
            store = SegmentStore(fingerprint)
            _stores[fingerprint] = store
        _stores.move_to_end(fingerprint)
        while len(_stores) > REGISTRY_SIZE:
            _stores.popitem(last=False)
        return store


def clear_segment_stores() -> None:
    """Drop every store in the registry (tests, benchmarks, long services)."""
    with _registry_lock:
        _stores.clear()


def segment_store_info() -> dict:
    """Aggregate statistics of the registry, plus per-store counters."""
    with _registry_lock:
        stores = list(_stores.items())
    per_store = {fp[:12]: store.stats() for fp, store in stores}
    return {
        "stores": len(stores),
        "maxsize": REGISTRY_SIZE,
        "segments": sum(s["segments"] for s in per_store.values()),
        "hits": sum(s["hits"] for s in per_store.values()),
        "misses": sum(s["misses"] for s in per_store.values()),
        "per_store": per_store,
    }
