"""The guarded chase engine: agenda-driven expansion of ``F⁺(P)`` (Sec. 2.5, 3).

The engine materialises a finite, depth-bounded segment of the guarded chase
forest of ``P = D ∪ Σ^f``:

* roots are the database facts (plus ground facts of the Skolemised program);
* for each node ``v`` and each ground instance ``r`` of a Skolemised rule
  whose guard instantiates to ``label(v)`` and whose remaining *positive*
  body atoms all occur as labels of the current forest, a child of ``v``
  labelled ``H(r)`` is added (once per ``(v, r)`` pair), with the edge
  carrying the full rule ``r`` — negative body included — exactly as in the
  construction of ``F⁺(P)``;
* nodes at the configured depth bound are not expanded; they form the
  *frontier* that the Datalog± engine inspects for its convergence test.

Saturation is **agenda-driven** (``saturation="agenda"``, the default): a
worklist of newly inserted forest nodes is drained node by node, and each
``(node, rule)`` pair whose side atoms are not yet all present registers a
*watched-atom waiter* on its first missing ground side atom (the
Dowling–Gallier discipline of :mod:`repro.lp.fixpoint`, lifted from ground
rules to chase firings).  A node is therefore matched against the rules when
it appears — and again only when a watched atom arrives or the depth bound
rises — instead of being re-scanned against every rule in every breadth-first
round.  The historical round-based scan is retained as
``saturation="scan"`` (:meth:`GuardedChaseEngine._expand_one_round_scan`); it
reaches the identical least fixpoint and serves as the differential-testing
reference.  The saturated forest within a depth bound is the least fixpoint
of the chase step, so the two modes build bit-identical forests (same node
trees, labels, ground rules, canonical levels) under every agenda ordering.

The expansion is incremental: calling :meth:`GuardedChaseEngine.expand` again
with a larger depth bound continues from the existing forest instead of
rebuilding it (frontier nodes deferred at the old bound are re-enqueued).  A
:class:`~repro.exceptions.GroundingError` from an exhausted node budget is
*resumable*: the agenda retains the unfinished work, and the next
:meth:`expand` call finishes saturation (or re-raises, if the budget is still
too small) before doing anything else.

With a :class:`~repro.chase.segments.SegmentStore` attached (``segment_cache``),
expansion additionally *splices* memoized subtrees under nodes whose canonical
atom shape was expanded before — by this engine, at a smaller depth, or by any
previous engine over the same rule set — instead of re-deriving them through
rule matching, and records newly saturated subtrees back into the store.  The
spliced nodes are fed straight into the agenda through the forest's
change-notification hooks (:meth:`repro.chase.forest.ChaseForest.add_listener`),
so post-splice saturation only inspects the spliced frontier instead of
re-scanning the forest; the resulting forest is bit-identical to the one
built without the cache (see :mod:`repro.chase.segments` for the argument).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ..exceptions import GroundingError, NotGuardedError
from ..lang.atoms import Atom
from ..lang.program import Database, NormalProgram
from ..lang.rules import NormalRule
from ..lang.substitution import Substitution, match
from ..lang.terms import Constant
from .forest import ChaseForest, ChaseNode
from .segments import (
    CachedSegment,
    SegmentStore,
    canonical_rule_order,
    shared_segment_store,
)
from .types import context_part_key, shape_key

__all__ = ["GuardedChaseEngine", "chase_forest"]

#: Outcomes of :meth:`GuardedChaseEngine._place_one_derivation`, the shared
#: placement core of the validated and memoised splice paths.
_PLACE_PLACED = "placed"
_PLACE_DEPTH_CUT = "depth-cut"
_PLACE_SIDE_MISSING = "side-missing"
_PLACE_ALREADY_APPLIED = "already-applied"


class _PreparedRule:
    """A Skolemised rule with its guard singled out for efficient matching.

    The guard binds every rule variable, so a guard match fully determines
    the ground instance: at most one firing per node, and every side atom is
    ground under the match.
    """

    __slots__ = ("rule", "guard", "other_pos", "other_indices", "seq")

    def __init__(self, rule: NormalRule, *, seq: int = 0):
        self.rule = rule
        self.guard = _find_guard(rule)
        self.other_pos = tuple(a for a in rule.body_pos if a is not self.guard)
        #: positions of the non-guard atoms within body_pos: a ground instance's
        #: side atoms can be read off its body without any substitution
        self.other_indices = tuple(
            i for i, a in enumerate(rule.body_pos) if a is not self.guard
        )
        #: position of the rule in the engine's rule list (decided-pair keys
        #: and the edge attribution read back by segment recording)
        self.seq = seq


def check_saturation(saturation: str) -> None:
    """Raise ``ValueError`` unless *saturation* is ``"agenda"`` or ``"scan"``."""
    if saturation not in ("agenda", "scan"):
        raise ValueError(f"saturation must be 'agenda' or 'scan', got {saturation!r}")


def _find_guard(rule: NormalRule) -> Atom:
    """The guard of a Skolemised guarded rule.

    After Skolemisation the universally quantified variables of the original
    NTGD are exactly the variables of the rule, so the guard is a positive
    body atom containing all of them.  The first such atom (in body order) is
    chosen, matching :meth:`repro.lang.rules.NTGD.guard`.  A rule without one
    raises :class:`NotGuardedError`: the forest-locality argument (Lemma 11)
    behind the engine's convergence test and the segment cache needs guards.
    """
    all_variables = rule.variables()
    for atom in rule.body_pos:
        if all_variables <= atom.variables():
            return atom
    raise NotGuardedError(f"rule {rule} has no guard atom")


class GuardedChaseEngine:
    """Incrementally expands the guarded chase forest of ``D ∪ Σ^f``.

    Parameters
    ----------
    skolemized_program:
        The functional transformation ``Σ^f`` as a :class:`NormalProgram` (or
        any iterable of Skolemised :class:`NormalRule`).  Every non-fact rule
        must be guarded (:class:`~repro.exceptions.NotGuardedError`
        otherwise).
    database:
        The database ``D`` (an iterable of ground atoms or a :class:`Database`).
    max_nodes:
        Safety budget: expansion raises :class:`GroundingError` if the forest
        would exceed this many nodes (default one million).
    segment_cache:
        ``True`` to memoize saturated subtrees by canonical atom shape in the
        persistent per-fingerprint store
        (:func:`repro.chase.segments.shared_segment_store`), or an explicit
        :class:`~repro.chase.segments.SegmentStore` to use instead.  The
        store is consulted and fed by :meth:`expand`.
    saturation:
        ``"agenda"`` (default) drains the incremental worklist described in
        the module docstring; ``"scan"`` runs the historical breadth-first
        re-scan rounds.  Both reach the identical least fixpoint — ``"scan"``
        exists as the differential-testing reference and for the benchmark
        baseline.
    agenda_order:
        Optional scheduling hook for the agenda (testing): a callable that,
        given the current agenda length ``n``, returns the index (``0 ≤ i <
        n``) of the entry to process next.  ``None`` (default) pops from the
        end.  The saturated forest is the same under every ordering — the
        property suite exercises random orderings to prove exactly that.
    """

    def __init__(
        self,
        skolemized_program: NormalProgram | Iterable[NormalRule],
        database: Database | Iterable[Atom],
        *,
        max_nodes: int = 1_000_000,
        segment_cache: Union[SegmentStore, bool, None] = None,
        saturation: str = "agenda",
        agenda_order: Optional[Callable[[int], int]] = None,
    ):
        check_saturation(saturation)
        self.forest = ChaseForest()
        self.max_nodes = max_nodes
        self.saturation = saturation
        self.agenda_order = agenda_order
        self._rules: list[_PreparedRule] = []
        self._rules_by_guard_pred: dict[str, list[_PreparedRule]] = {}

        fact_atoms: list[Atom] = []
        for rule in skolemized_program:
            if rule.is_fact():
                if rule.is_ground():
                    fact_atoms.append(rule.head)
                continue
            prepared = _PreparedRule(rule, seq=len(self._rules))
            self._rules.append(prepared)
            self._rules_by_guard_pred.setdefault(prepared.guard.predicate, []).append(prepared)

        # Predicates occurring in non-guard positive body atoms: only labels
        # of these predicates can enable or disable a chase firing, so they
        # are what segment-key contexts and splice watchers track.  (Computed
        # before the forest listener is installed — the listener maintains the
        # side-relevant label index from the first fact on.)
        self._side_predicates: frozenset[str] = frozenset(
            atom.predicate for p in self._rules for atom in p.other_pos
        )
        # Every constant a side atom instance can mention: constants written
        # in the side-atom patterns themselves, plus constants written in rule
        # *heads* — a head constant enters spliced labels without being
        # inherited from the splice root's domain or being a fresh null, so
        # side atoms over it would be invisible to a root-domain-only context.
        # Folding these constants into every context (and into the watcher
        # wake path) closes that hole.
        self._side_constants: frozenset = frozenset(
            arg
            for p in self._rules
            for atom in (p.rule.head, *p.other_pos)
            for arg in atom.args
            if isinstance(arg, Constant)
        )
        # Live index of side-relevant labels by argument term (plus the
        # nullary ones); consulted by the per-node segment-key context.
        self._side_labels_by_term: dict = {}
        self._side_nullary: set[Atom] = set()
        # Splice watchers: wake-once subscriptions that re-enqueue a certified
        # spliced subtree when a new side-relevant label lands on its terms.
        self._watches: dict[int, tuple[frozenset, list[int]]] = {}
        self._watch_by_term: dict = {}
        self._watch_counter = 0
        # Per-label segment-key cache: the context part of a key is stable
        # until a new side-relevant label lands on the label's terms, so
        # recomputing it for every hostable node on every expansion (the
        # `_record_segments` key scan) is pure waste.  Invalidated through
        # the same side-label bookkeeping the splice watchers use
        # (:meth:`_invalidate_key_cache` from :meth:`_on_node_added`), and
        # initialised before the forest listener is installed — the listener
        # consults it from the very first fact.
        self._key_cache: dict[Atom, tuple] = {}
        self._key_cache_by_term: dict = {}
        # While True (inside _instantiate_segment), newly inserted nodes are
        # *not* self-enqueued: the splice decides which placed nodes need
        # processing (frontier, voided certificates) — that is the whole point
        # of certified splicing.  Label indexing and waiter wake-ups still run.
        self._suppress_agenda = False

        # -- agenda state ------------------------------------------------------
        # The worklist of node ids to (re)consider as guard hosts, with a
        # membership set so a node is queued at most once at a time.
        self._agenda: list[int] = []
        self._in_agenda: set[int] = set()
        # Nodes that reached the depth bound before they could host children;
        # re-enqueued when the bound rises (iterative deepening).
        self._deferred: list[int] = []
        self._in_deferred: set[int] = set()
        # Watched-atom waiters: ground side atom -> nodes whose pending rule
        # firings are blocked on it becoming a label.  When the atom arrives,
        # the nodes re-enter the agenda (and re-derive or re-watch).
        self._atom_waiters: dict[Atom, set[int]] = {}
        # False while a saturation pass is incomplete (in progress, or aborted
        # by a GroundingError); expand() resumes an unsaturated pass before
        # honouring new depth requests.
        self._saturated = True
        self.forest.add_listener(self._on_node_added)

        for atom in fact_atoms:
            self._add_fact(atom)

        # Decided (node_id, rule seq) pairs: the pair either fired (its unique
        # ground instance is in the forest) or its guard can never match the
        # node's label.  Agenda re-processing (a node woken by a watched atom,
        # or re-enqueued after a budget failure) and scan rounds both skip
        # decided pairs without re-instantiating the rule, which keeps
        # re-visits near-free.
        self._decided: set[tuple[int, int]] = set()
        # The rule (by seq) that placed each non-root node, written by every
        # placement site and read back by segment recording.
        self._edge_seq: dict[int, int] = {}

        for atom in database:
            self._add_fact(atom)

        #: depth bound in effect after the last call to :meth:`expand`
        self.depth_bound = 0
        #: number of expansion rounds performed so far
        self.rounds = 0

        # -- segment cache wiring ----------------------------------------------
        #: counters of this engine's cache traffic (hits/misses are per lookup,
        #: ``nodes_spliced`` counts children placed without rule matching)
        self.cache_stats = {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "splices": 0,
            "nodes_spliced": 0,
            "segments_recorded": 0,
        }
        self._segment_store: Optional[SegmentStore] = None
        self._canonical_rules: list[_PreparedRule] = []
        #: canonical rule index of each engine rule, by seq
        self._canonical_of_seq: list[int] = []
        # Label shapes recur across nodes.  (Only the context-free *shape*
        # part of a segment key is memoizable: the context part grows with
        # the forest.)
        self._shape_memo: dict[Atom, tuple] = {}
        # Segment keys that were looked up and missed: recording is
        # demand-driven — only keys something actually asked for (plus the
        # current frontier, which the next deepening step will ask for) are
        # worth extracting.
        self._missed_keys: set[tuple] = set()
        # The pre-saturation lookup key of each label that missed: compared
        # against the post-saturation key at recording time to detect *cold
        # context-sensitive keys* (a context that only materialises during
        # saturation) and double-key such segments via a store alias.
        self._miss_key_by_label: dict[Atom, tuple] = {}
        # Segment keys that were looked up and hit: checked after saturation
        # for staleness (saturation may have derived more under the spliced
        # root than the stored segment knows, e.g. when the segment was
        # recorded from a database lacking some side atoms).
        self._hit_keys: set[tuple] = set()
        # Note: an explicit store must not go through truthiness — an empty
        # SegmentStore has len() == 0 and would read as "disabled".
        if segment_cache is not None and segment_cache is not False:
            self._segment_store = (
                segment_cache
                if isinstance(segment_cache, SegmentStore)
                else shared_segment_store(p.rule for p in self._rules)
            )
            self.cache_stats["enabled"] = True
            # Cached segments refer to rules by index in the canonical ordering
            # so that every engine sharing a store agrees on what an index means.
            canonical = canonical_rule_order(p.rule for p in self._rules)
            index_of = {rule: index for index, rule in enumerate(canonical)}
            self._canonical_of_seq = [index_of[p.rule] for p in self._rules]
            by_rule: dict[NormalRule, _PreparedRule] = {}
            for prepared in self._rules:
                by_rule.setdefault(prepared.rule, prepared)
            self._canonical_rules = [by_rule[rule] for rule in canonical]

    @property
    def segment_store(self) -> Optional[SegmentStore]:
        """The attached segment store, or ``None`` when caching is off."""
        return self._segment_store

    def _add_fact(self, atom: Atom) -> None:
        """Add a root node for a fact unless one with that label already exists."""
        if not self.forest.has_label(atom) or not any(
            n.is_root() and n.label == atom for n in self.forest.nodes_with_label(atom)
        ):
            self.forest.add_root(atom)

    # -- expansion ------------------------------------------------------------------

    def expand(self, max_depth: int) -> bool:
        """Expand the forest up to tree depth *max_depth*.

        Nodes at depth ``max_depth`` are not given children.  Returns ``True``
        if at least one node was added.  Expansion always runs to saturation
        within the depth bound.

        With a segment cache attached, memoized subtrees are spliced in first
        (see :meth:`_splice_from_cache`); the agenda (or the scan rounds) then
        adds whatever the cache could not provide and certifies quiescence, so
        the final forest is identical either way.  After saturation, node
        levels are restored to their canonical derivation stages
        (:meth:`ChaseForest.recompute_levels`) and newly saturated subtrees
        are recorded back into the store.

        An unfinished saturation pass — a previous call raised
        :class:`GroundingError` — is resumed first, even when *max_depth* is
        below the committed depth bound: the forest must never be observed
        unsaturated within its bound.  A resumed pass re-raises if the node
        budget is still too small, and completes normally after
        :attr:`max_nodes` is raised.

        Raises
        ------
        GroundingError
            If the node budget is exceeded.  The exception is resumable (see
            above): the agenda keeps the pending work.
        """
        if max_depth < self.depth_bound and self._saturated:
            # the forest is already expanded and saturated beyond this bound
            return False
        if max_depth > self.depth_bound:
            self.depth_bound = max_depth
            self._wake_deferred()
        max_depth = self.depth_bound
        size_before = len(self.forest)
        self._saturated = False
        if self._segment_store is not None:
            self._splice_from_cache(max_depth)
        if self.saturation == "scan":
            changed = True
            while changed:
                changed = self._expand_one_round_scan(max_depth)
                self.rounds += 1
        else:
            self._drain_agenda()
        self._saturated = True
        added_any = len(self.forest) > size_before
        if added_any:
            self.forest.recompute_levels()
        if self._segment_store is not None:
            self._record_segments(max_depth)
        return added_any

    # -- agenda-driven saturation -------------------------------------------------

    def _on_node_added(self, node: ChaseNode, is_new_label: bool) -> None:
        """Forest change hook: feed insertions into the agenda and wake waiters.

        Every new node enters the agenda (it may host firings); a node whose
        label is new to the forest additionally wakes the waiters watching
        that atom.  Splices, facts added at construction and ordinary firings
        all flow through here — the agenda never needs a forest re-scan to
        find new work.  A pure scan-mode engine skips the agenda bookkeeping
        entirely (its rounds re-visit every node anyway, and an agenda nobody
        drains would just leak), so the retained baseline stays the historical
        code path.
        """
        node_id = node.node_id
        if (
            self.saturation == "agenda"
            and not self._suppress_agenda
            and node_id not in self._in_agenda
        ):
            self._in_agenda.add(node_id)
            self._agenda.append(node_id)
        if is_new_label:
            label = node.label
            waiters = self._atom_waiters.pop(label, None)
            if waiters:
                self._enqueue_all(waiters)
            if label.predicate in self._side_predicates:
                if label.args:
                    for term in set(label.args):
                        self._side_labels_by_term.setdefault(term, []).append(label)
                else:
                    self._side_nullary.add(label)
                self._invalidate_key_cache(label)
                if self._watches:
                    self._fire_watches(label)

    def _fire_watches(self, label: Atom) -> None:
        """Wake certified spliced subtrees a new side-relevant label may affect.

        A subtree is woken when the label shares a term with it (or has no
        discriminating terms at all: nullary labels and labels purely over
        rule constants touch every domain).  Waking conservatively re-enqueues
        every node of the subtree — processing is idempotent, and the precise
        per-atom waiters take over from there — and the watch is dropped
        (wake-once).
        """
        if not label.args or all(arg in self._side_constants for arg in label.args):
            woken = list(self._watches.keys())
        else:
            woken_set: set[int] = set()
            for term in set(label.args):
                woken_set.update(self._watch_by_term.get(term, ()))
            woken = list(woken_set)
        for watch_id in woken:
            terms, node_ids = self._watches.pop(watch_id)
            for term in terms:
                ids = self._watch_by_term.get(term)
                if ids is not None:
                    ids.discard(watch_id)
                    if not ids:
                        del self._watch_by_term[term]
            self._enqueue_all(node_ids)

    def _enqueue_all(self, node_ids: Iterable[int]) -> None:
        """Re-enqueue a batch of nodes (deduplicated against the agenda).

        A no-op on pure scan-mode engines: their rounds re-visit every node
        anyway, and an agenda nobody drains would only accumulate.
        """
        if self.saturation == "scan":
            return
        agenda, in_agenda = self._agenda, self._in_agenda
        for node_id in node_ids:
            if node_id not in in_agenda:
                in_agenda.add(node_id)
                agenda.append(node_id)

    def _wake_deferred(self) -> None:
        """Move frontier nodes deferred at the old depth bound back to the agenda."""
        if not self._deferred:
            return
        self._enqueue_all(self._deferred)
        self._deferred.clear()
        self._in_deferred.clear()

    def _drain_agenda(self) -> None:
        """Process agenda entries until quiescence (the least fixpoint).

        The invariant on entry to every iteration: each applicable-but-unfired
        ``(node, rule)`` pair either has its node in the agenda, or is blocked
        on a watched atom (``_atom_waiters``) that is not a label yet, or its
        node sits at the depth bound (``_deferred``).  An empty agenda
        therefore certifies quiescence: the remaining pairs cannot fire until
        a new label arrives (impossible without firings) or the bound rises
        (handled by :meth:`expand`).
        """
        agenda, in_agenda = self._agenda, self._in_agenda
        pick = self.agenda_order
        while agenda:
            if pick is None:
                node_id = agenda.pop()
            else:
                node_id = agenda.pop(pick(len(agenda)) % len(agenda))
            in_agenda.discard(node_id)
            self._process_node(node_id)

    def _process_node(self, node_id: int) -> None:
        """Fire every applicable (node, ground rule) pair at one node.

        Pairs whose side atoms are missing register a waiter on the first
        missing atom and retire until it arrives; decided pairs and already
        applied ground rules are skipped, so re-processing a woken node only
        pays for its genuinely undecided rules.
        """
        forest = self.forest
        node = forest.node(node_id)
        if node.depth >= self.depth_bound:
            if node_id not in self._in_deferred:
                self._in_deferred.add(node_id)
                self._deferred.append(node_id)
            return
        label = node.label
        decided = self._decided
        labels = forest.labels_live()
        for prepared in self._rules_by_guard_pred.get(label.predicate, ()):
            seq = prepared.seq
            if (node_id, seq) in decided:
                continue
            guard_match = match(prepared.guard, label)
            if guard_match is None:
                # labels never change: this pair can never fire
                decided.add((node_id, seq))
                continue
            missing = None
            for atom in prepared.other_pos:
                grounded = guard_match.apply_atom(atom)
                if grounded not in labels:
                    missing = grounded
                    break
            if missing is not None:
                self._atom_waiters.setdefault(missing, set()).add(node_id)
                continue
            ground_rule = _instantiate(prepared.rule, guard_match)
            if forest.was_applied(node_id, ground_rule):
                decided.add((node_id, seq))
                continue
            self._budget_guard((node_id,))
            child = forest.add_child(node_id, ground_rule.head, ground_rule, node.level + 1)
            self._edge_seq[child.node_id] = seq
            decided.add((node_id, seq))

    def _budget_guard(self, requeue: Iterable[int]) -> None:
        """Raise (resumably) if adding one more node would exceed the budget.

        *requeue* — the node being processed, or the nodes a splice has placed
        so far — re-enters the agenda first, so the work that was about to
        happen is retried (not lost) when a later :meth:`expand` call resumes
        with a larger :attr:`max_nodes`.
        """
        if len(self.forest) + 1 > self.max_nodes:
            self._enqueue_all(requeue)
            raise GroundingError(
                f"chase forest would exceed the node budget of {self.max_nodes}; "
                "lower the depth bound or raise max_nodes"
            )

    # -- the retained breadth-first reference ------------------------------------

    def _expand_one_round_scan(self, max_depth: int) -> bool:
        """One breadth-first round: fire every applicable (node, ground rule) pair.

        This is the historical round-based saturation step, retained as the
        ``saturation="scan"`` reference: the differential suites assert that
        agenda-driven saturation reaches the bit-identical least fixpoint.
        Side atoms are tested against the labels as they stood when the round
        began, so a child placed in this round enables firings only in the
        next one.
        """
        labels = self.forest.labels()
        level = self.rounds + 1
        new_children: list[tuple[int, NormalRule, int]] = []

        decided = self._decided
        fired: list[tuple[int, int]] = []
        for node in list(self.forest.nodes()):
            if node.depth >= max_depth:
                continue
            node_id = node.node_id
            for prepared in self._rules_by_guard_pred.get(node.label.predicate, ()):
                seq = prepared.seq
                if (node_id, seq) in decided:
                    continue
                guard_match = match(prepared.guard, node.label)
                if guard_match is None:
                    # labels never change: this pair can never fire
                    decided.add((node_id, seq))
                    continue
                if any(
                    guard_match.apply_atom(atom) not in labels
                    for atom in prepared.other_pos
                ):
                    continue
                ground_rule = _instantiate(prepared.rule, guard_match)
                if self.forest.was_applied(node_id, ground_rule):
                    decided.add((node_id, seq))
                    continue
                new_children.append((node_id, ground_rule, seq))
                fired.append((node_id, seq))

        if not new_children:
            return False
        if len(self.forest) + len(new_children) > self.max_nodes:
            raise GroundingError(
                f"chase forest would exceed the node budget of {self.max_nodes}; "
                "lower the depth bound or raise max_nodes"
            )
        for parent_id, rule, seq in new_children:
            # Re-check: the same (parent, rule) pair may have been queued once only,
            # but defensive duplicate checks keep the forest well-formed.
            if not self.forest.was_applied(parent_id, rule):
                child = self.forest.add_child(parent_id, rule.head, rule, level)
                self._edge_seq[child.node_id] = seq
        decided.update(fired)
        return True

    # -- segment cache: splice-in -----------------------------------------------

    def _shape(self, label: Atom) -> tuple:
        """Memoized canonical shape of a node label (the context-free key part)."""
        shape = self._shape_memo.get(label)
        if shape is None:
            shape = shape_key(label)
            self._shape_memo[label] = shape
        return shape

    def _context_atoms(self, label: Atom) -> list[Atom]:
        """The side-relevant labels over ``dom(label)`` (plus rule constants).

        These are exactly the forest atoms that can serve as a side atom of a
        rule fired at a node with this label or below it (side atoms are
        ground instances over the guard's terms, plus any constants written
        in the rule itself).  They form the
        context part of the segment key: two nodes agreeing on shape *and*
        context have identical firing environments for every inherited term.
        """
        if not self._side_predicates:
            return []
        terms = set(label.args) | self._side_constants
        found = set(self._side_nullary)
        by_term = self._side_labels_by_term
        for term in terms:
            for atom in by_term.get(term, ()):
                if atom not in found and all(arg in terms for arg in atom.args):
                    found.add(atom)
        return list(found)

    def _segment_key_uncached(self, label: Atom) -> tuple:
        """The full segment key of a label: canonical shape plus context part."""
        context = self._context_atoms(label)
        if not context:
            return (self._shape(label), ())
        return (self._shape(label), context_part_key(label, context))

    def _segment_key(self, label: Atom) -> tuple:
        """The segment key of a label, cached until its context can change.

        A label's context part only grows when a new side-relevant label
        lands on its terms (or on the rule constants every context includes)
        — exactly the event :meth:`_on_node_added` already tracks for the
        splice watchers, which is where :meth:`_invalidate_key_cache` drops
        the affected entries.  The hypothesis suite asserts cached keys equal
        the recomputed ones (:meth:`_segment_key_uncached`) after arbitrary
        expansions.
        """
        key = self._key_cache.get(label)
        if key is None:
            key = self._segment_key_uncached(label)
            self._key_cache[label] = key
            by_term = self._key_cache_by_term
            for term in set(label.args):
                by_term.setdefault(term, set()).add(label)
        return key

    def _invalidate_key_cache(self, label: Atom) -> None:
        """Drop cached segment keys the new side-relevant *label* may extend.

        A context over ``dom(a)`` gains the new label only when every one of
        its arguments lies in ``dom(a)`` plus the rule constants, so it
        suffices to drop the labels sharing one of its argument terms — and
        to drop everything when the label has no discriminating terms at all
        (nullary, or arguments purely over rule constants), mirroring the
        conservative wake rule of :meth:`_fire_watches`.
        """
        cache = self._key_cache
        if not cache:
            return
        if not label.args or all(arg in self._side_constants for arg in label.args):
            cache.clear()
            self._key_cache_by_term.clear()
            return
        by_term = self._key_cache_by_term
        for term in set(label.args):
            for cached in by_term.pop(term, ()):
                if cache.pop(cached, None) is None:
                    continue  # already dropped via an earlier term this round
                # unregister the dropped label from its other terms' buckets
                # (mirroring _fire_watches) so dead entries cannot accumulate
                for other in set(cached.args):
                    if other == term:
                        continue
                    bucket = by_term.get(other)
                    if bucket is not None:
                        bucket.discard(cached)
                        if not bucket:
                            del by_term[other]

    def _splice_from_cache(self, max_depth: int) -> bool:
        """Instantiate cached segments under every unexpanded matching node.

        Worklist over childless nodes below the depth bound; nodes spliced in
        are fed back so that a segment's frontier can itself hit the cache
        (this is how iterative deepening descends through repeated types
        without ever re-matching rules).  Returns ``True`` if nodes were added.
        """
        store = self._segment_store
        forest = self.forest
        hostable = self._rules_by_guard_pred
        added = False
        # Nodes whose label predicate guards no rule can never have children,
        # so neither looking them up nor recording them can ever pay off.
        worklist = [
            node.node_id
            for node in forest.nodes()
            if not node.children
            and node.depth < max_depth
            and node.label.predicate in hostable
        ]
        while worklist:
            node_id = worklist.pop()
            node = forest.node(node_id)
            if node.children or node.depth >= max_depth:
                continue
            key = self._segment_key(node.label)
            segment = store.lookup(key)
            if segment is None:
                self.cache_stats["misses"] += 1
                self._missed_keys.add(key)
                self._miss_key_by_label.setdefault(node.label, key)
                continue
            self.cache_stats["hits"] += 1
            self._hit_keys.add(key)
            created = self._instantiate_segment(node_id, key, segment, max_depth)
            if not created:
                continue
            added = True
            self.cache_stats["splices"] += 1
            self.cache_stats["nodes_spliced"] += len(created)
            for child_id in created:
                child = forest.node(child_id)
                if (
                    not child.children
                    and child.depth < max_depth
                    and child.label.predicate in hostable
                ):
                    worklist.append(child_id)
        return added

    def _instantiate_segment(
        self, root_id: int, key: tuple, segment: CachedSegment, max_depth: int
    ) -> list[int]:
        """Replay a cached segment under *root_id*, renaming nulls by substitution.

        Every derivation is re-validated before being placed: the rule's guard
        is re-matched against the (new) parent label, and the transported side
        atoms must already label the forest — so each placed child is a firing
        the ordinary saturation would also perform, only without the rule
        matching.  Derivations whose side atoms are still missing are retried
        (a cousin placed later in the same splice may provide them); those
        whose parents were dropped, whose guard no longer matches (possible
        when a key collision merged nulls), or that would exceed the depth
        bound are dropped — saturation recovers anything genuinely derivable.

        **Certified placement.**  Placed nodes do *not* individually re-enter
        the agenda.  The segment key matched shape *and* side-atom context, so
        the replay is complete for every interior node — except where one of
        the certificate's premises fails, and exactly those nodes are
        enqueued for ordinary processing:

        * nodes at the segment's recorded frontier (``relative depth ==
          segment.relative_depth``) or at the forest's depth bound — nothing
          below them was recorded / may be placed;
        * parents of dropped or still-pending derivations — their replay is
          incomplete;
        * *every* placed node, when some placed label already existed in the
          forest (a twin subtree may have derived atoms over this subtree's
          nulls that the recording never saw), when the segment referenced a
          rule this engine does not know, or when a ``was_applied`` collision
          mapped a local node onto a pre-existing child.

        Late arrivals are covered separately: a wake-once watcher over the
        subtree's terms re-enqueues all placed nodes if a new side-relevant
        label lands on them (see :meth:`_fire_watches`).  Returns the ids of
        the newly created nodes.

        **Memoized replays.**  Replaying a segment under a given root label is
        deterministic (every substitution is fixed by the labels), so a fully
        placed clean replay is recorded back into the store as ground
        derivations keyed by ``(segment key, root label)``; the next engine
        over the same inputs places the subtree through
        :meth:`_replay_memoised` — side-atom set lookups and node insertion
        only, no substitution machinery.
        """
        forest = self.forest
        root_label = forest.node(root_id).label
        memo = self._segment_store.replay_lookup(key, root_label)
        if memo is not None:
            created = self._replay_memoised(root_id, memo, segment, max_depth)
            if created is not None:
                return created
        placed: dict[int, int] = {0: root_id}
        local_depth: dict[int, int] = {0: 0}
        created: list[int] = []
        memo_entries: list[tuple] = []
        rules = self._canonical_rules
        #: local indices whose own children-replay is incomplete
        flagged: set[int] = set()
        #: certificate void: every placed node must be processed normally
        void = any(rule_index >= len(rules) for _, rule_index in segment.entries)
        # The last element is the forest size at the entry's last failed
        # side-atom check: labels only grow, so while the forest has not
        # grown since, re-validating the same ground atoms cannot succeed
        # and the entry is carried over without rework.
        pending: list[tuple[int, int, int, int]] = [
            (index + 1, parent_local, rule_index, -1)
            for index, (parent_local, rule_index) in enumerate(segment.entries)
            if rule_index < len(rules)
        ]
        self._suppress_agenda = True
        try:
            progress = True
            while pending and progress:
                progress = False
                retry: list[tuple[int, int, int, int]] = []
                dropped: set[int] = set()
                for local_index, parent_local, rule_index, checked_at in pending:
                    parent_id = placed.get(parent_local)
                    if parent_id is None:
                        if parent_local in dropped:
                            dropped.add(local_index)
                        else:
                            retry.append(
                                (local_index, parent_local, rule_index, checked_at)
                            )
                        continue
                    if checked_at == len(forest):
                        retry.append((local_index, parent_local, rule_index, checked_at))
                        continue
                    parent = forest.node(parent_id)
                    # cheap short-circuits before the substitution machinery;
                    # _place_one_derivation re-checks both authoritatively
                    if parent.depth >= max_depth:
                        dropped.add(local_index)
                        continue
                    prepared = rules[rule_index]
                    subst = match(prepared.guard, parent.label)
                    if subst is None:
                        dropped.add(local_index)
                        flagged.add(parent_local)
                        continue
                    side_atoms = tuple(
                        subst.apply_atom(atom) for atom in prepared.other_pos
                    )
                    if any(not forest.has_label(atom) for atom in side_atoms):
                        retry.append((local_index, parent_local, rule_index, len(forest)))
                        continue
                    ground_rule = _instantiate(prepared.rule, subst)
                    status, child_id, void = self._place_one_derivation(
                        parent_id,
                        prepared.seq,
                        ground_rule,
                        side_atoms,
                        created,
                        void,
                        max_depth,
                    )
                    if status is _PLACE_DEPTH_CUT:
                        dropped.add(local_index)
                        continue
                    if status is _PLACE_SIDE_MISSING:
                        retry.append((local_index, parent_local, rule_index, len(forest)))
                        continue
                    if status is _PLACE_ALREADY_APPLIED:
                        for sibling in forest.children(parent_id):
                            if sibling.edge_rule == ground_rule:
                                placed[local_index] = sibling.node_id
                                local_depth[local_index] = local_depth[parent_local] + 1
                                break
                        # a pre-existing child is outside this replay's
                        # certificate — treat the whole splice conservatively
                        void = True
                        progress = True
                        continue
                    placed[local_index] = child_id
                    local_depth[local_index] = local_depth[parent_local] + 1
                    memo_entries.append(
                        (local_index, parent_local, rule_index, ground_rule, side_atoms)
                    )
                    progress = True
                pending = retry
        finally:
            self._suppress_agenda = False
        if pending:
            # still-blocked derivations: their parents' replay is incomplete
            flagged.update(parent_local for _, parent_local, _, _ in pending)
        if created:
            if (
                not void
                and not flagged
                and not pending
                and len(created) == len(segment.entries)
            ):
                # clean, complete replay: memoize the ground derivations —
                # but only against the segment they were derived from (a
                # concurrent engine may have re-recorded the key meanwhile)
                self._segment_store.replay_record(
                    key, root_label, tuple(memo_entries), segment=segment
                )
            self._finish_splice(segment, placed, local_depth, created, flagged, void)
        return created

    def _replay_memoised(
        self, root_id: int, memo: tuple, segment: CachedSegment, max_depth: int
    ) -> Optional[list[int]]:
        """Place a memoized ground replay: set lookups and insertions only.

        The memo's derivations are exact for this (segment key, root label)
        pair, so no substitution runs; each placement still goes through
        :meth:`_place_one_derivation` — the same side-atom, depth-bound,
        duplicate and budget checks as the validated replay.  Any surprise —
        a missing side atom, an already applied derivation — aborts to
        ``None`` after enqueueing the nodes placed so far, and the caller
        falls back to the ordinary validated replay.  Certificate handling
        (frontier and depth-bound enqueueing, twin-label voiding, watcher
        registration) is the same as for a validated replay.
        """
        placed: dict[int, int] = {0: root_id}
        local_depth: dict[int, int] = {0: 0}
        created: list[int] = []
        rules = self._canonical_rules
        void = False
        self._suppress_agenda = True
        try:
            for local_index, parent_local, rule_index, ground_rule, side_atoms in memo:
                if rule_index >= len(rules):  # pragma: no cover - defensive
                    self._enqueue_all(created)
                    return None
                parent_id = placed.get(parent_local)
                if parent_id is None:
                    continue  # parent was cut by the depth bound
                status, child_id, void = self._place_one_derivation(
                    parent_id,
                    rules[rule_index].seq,
                    ground_rule,
                    side_atoms,
                    created,
                    void,
                    max_depth,
                )
                if status is _PLACE_DEPTH_CUT:
                    continue
                if status is not _PLACE_PLACED:
                    # a missing side atom or an already applied derivation:
                    # the memo's premises failed — fall back to validation
                    self._enqueue_all(created)
                    return None
                placed[local_index] = child_id
                local_depth[local_index] = local_depth[parent_local] + 1
        finally:
            self._suppress_agenda = False
        if created:
            self._finish_splice(segment, placed, local_depth, created, set(), void)
        return created

    def _place_one_derivation(
        self,
        parent_id: int,
        rule_seq: int,
        ground_rule: NormalRule,
        side_atoms: Sequence[Atom],
        created: list[int],
        void: bool,
        max_depth: int,
    ) -> tuple[str, Optional[int], bool]:
        """Place one replayed derivation under its (already resolved) parent.

        The shared placement core of the validated
        (:meth:`_instantiate_segment`) and memoised (:meth:`_replay_memoised`)
        splice paths: the depth cut, the side-atom re-validation, duplicate
        (``was_applied``) detection, the resumable budget guard, twin-label
        certificate voiding and the forest/decided/created bookkeeping all
        live here — and only here — so the memoised fast path can never drift
        from the validated one.  Returns ``(status, child_id, void)``; the
        child id is set only for ``_PLACE_PLACED``, and reacting to the other
        outcomes (retry, drop, flag the parent, or abort the whole memo) is
        the caller's policy.
        """
        forest = self.forest
        parent = forest.node(parent_id)
        if parent.depth >= max_depth:
            return _PLACE_DEPTH_CUT, None, void
        if any(not forest.has_label(atom) for atom in side_atoms):
            return _PLACE_SIDE_MISSING, None, void
        if forest.was_applied(parent_id, ground_rule):
            # the pair's unique instance is in the forest, so the
            # (parent, rule) pair is decided either way
            self._decided.add((parent_id, rule_seq))
            return _PLACE_ALREADY_APPLIED, None, void
        # resumable: on failure the partially placed subtree is re-enqueued
        # for ordinary saturation under a larger budget
        self._budget_guard(created)
        if not void and forest.has_label(ground_rule.head):
            # a twin subtree may hold atoms over this label's nulls that the
            # recording never saw
            void = True
        child = forest.add_child(
            parent_id, ground_rule.head, ground_rule, parent.level + 1
        )
        self._edge_seq[child.node_id] = rule_seq
        self._decided.add((parent_id, rule_seq))
        created.append(child.node_id)
        return _PLACE_PLACED, child.node_id, void

    def _finish_splice(
        self,
        segment: CachedSegment,
        placed: Mapping[int, int],
        local_depth: Mapping[int, int],
        created: Sequence[int],
        flagged: set[int],
        void: bool,
    ) -> None:
        """Enqueue the placed nodes the splice certificate does not cover."""
        forest = self.forest
        if void:
            self._enqueue_all(created)
            return
        created_set = set(created)
        to_enqueue: list[int] = []
        for local_index, node_id in placed.items():
            if node_id not in created_set:
                continue
            if (
                local_depth[local_index] >= segment.relative_depth
                or forest.node(node_id).depth >= self.depth_bound
                or local_index in flagged
            ):
                to_enqueue.append(node_id)
        self._enqueue_all(to_enqueue)
        if self._side_predicates:
            terms: set = set()
            for node_id in created:
                terms.update(forest.node(node_id).label.args)
            if terms:
                watch_id = self._watch_counter
                self._watch_counter += 1
                self._watches[watch_id] = (frozenset(terms), list(created))
                for term in terms:
                    self._watch_by_term.setdefault(term, set()).add(watch_id)

    # -- segment cache: recording -----------------------------------------------

    def _record_segments(self, max_depth: int) -> None:
        """Record the saturated subtree of the shallowest node of a segment key.

        Recording is *demand-driven*: a key is extracted only when something
        asked the store for it during this expansion and missed, or when it
        belongs to a current frontier node — the keys the next deepening step
        will ask for.  Keys nothing demanded are never extracted (a splice
        that finds only a shallow segment simply chains: the spliced frontier
        re-enters the cache), so type-diverse forests whose keys never repeat
        cost one key scan here, not one subtree extraction per node, and
        nothing is speculatively re-recorded on later expansions.  Within the
        demanded keys, the shallowest node is recorded (it has the most
        saturated levels below it) and only when its relative depth improves
        on the stored segment.

        Keys are computed against the *saturated* forest, which is also the
        state every later lookup sees first (splices run before new
        derivations).  A key whose side-atom context only materialises during
        saturation would miss on the lookup side and never match a recording
        — such *cold* keys are detected by comparing each missed label's
        lookup key with its post-saturation key, and the segment is
        double-keyed through a store alias (soundness argument inline below).
        """
        store = self._segment_store
        hostable = self._rules_by_guard_pred
        shallowest: dict[tuple, ChaseNode] = {}
        frontier_keys: set[tuple] = set()
        for node in self.forest.nodes():
            if node.label.predicate not in hostable:
                continue  # can never have children: not recordable, never asked
            key = self._segment_key(node.label)
            if node.depth >= max_depth:
                if node.depth == max_depth:
                    frontier_keys.add(key)
                continue
            best = shallowest.get(key)
            if best is None or node.depth < best.depth:
                shallowest[key] = node
        demanded = self._missed_keys | frontier_keys
        # A *hit* key is re-demanded when its stored segment went stale: the
        # saturated subtree now holds more nodes than the segment has
        # derivations (the segment was recorded from a forest where some side
        # atoms were absent).  Without this, one hit on a stale segment would
        # suppress re-recording forever and repeated workloads would silently
        # re-derive the difference on every run.
        for key in self._hit_keys - demanded:
            node = shallowest.get(key)
            segment = store.peek(key)
            if (
                node is not None
                and segment is not None
                and self._subtree_exceeds(node.node_id, len(segment))
            ):
                demanded.add(key)
        # Cold context-sensitive keys: a label whose side-atom context only
        # materialised *during* saturation was looked up under the lean
        # pre-saturation key but keys under the rich post-saturation one —
        # without help it records under a key no fresh engine's lookup ever
        # produces (a guaranteed miss).  Demand the post-saturation key so
        # the segment is recorded at all, and double-key it by aliasing the
        # pre-saturation key to it.  The alias is sound exactly when the
        # lookup context is a subset of the recorded context: a splice under
        # the alias can then only find side atoms *missing*, which the
        # flag/retry machinery and the wake-once watchers already cover; an
        # incomparable context could enable firings the recording never saw,
        # so it is never aliased.
        alias_requests: list[tuple[tuple, tuple]] = []
        for label, pre_key in self._miss_key_by_label.items():
            post_key = self._segment_key(label)
            if post_key == pre_key:
                continue
            if pre_key[0] != post_key[0] or not set(pre_key[1]) <= set(post_key[1]):
                continue
            demanded.add(post_key)
            alias_requests.append((pre_key, post_key))
        self._missed_keys = set()
        self._hit_keys = set()
        self._miss_key_by_label = {}
        for key in demanded:
            node = shallowest.get(key)
            if node is None:
                continue
            relative_depth = max_depth - node.depth
            existing = store.peek(key)
            if existing is not None and existing.relative_depth >= relative_depth:
                # equal-depth staleness upgrades still need extraction; pure
                # depth upgrades are gated the cheap way
                if not self._subtree_exceeds(node.node_id, len(existing)):
                    continue
            extracted = self._extract_segment(node)
            if extracted is None:
                continue
            entries, replay = extracted
            stored = store.record(key, relative_depth, entries)
            if stored is not None:
                self.cache_stats["segments_recorded"] += 1
                # seed the replay memo too: the very next engine over the same
                # database can place this subtree without any substitution —
                # pinned to the segment just stored, so a concurrent
                # re-recording between the two calls cannot adopt this memo
                store.replay_record(key, node.label, replay, segment=stored)
        for pre_key, post_key in alias_requests:
            if store.peek(post_key) is not None:
                store.record_alias(pre_key, post_key)

    def _subtree_exceeds(self, node_id: int, limit: int) -> bool:
        """Does the subtree below *node_id* have more than *limit* descendants?

        Counting walk with early exit, so the cost is bounded by ``limit + 1``
        rather than the subtree size.
        """
        count = 0
        stack = list(self.forest.node(node_id).children)
        while stack:
            count += 1
            if count > limit:
                return True
            current = self.forest.node(stack.pop())
            stack.extend(current.children)
        return False

    def _extract_segment(
        self, root: ChaseNode
    ) -> Optional[tuple[tuple[tuple[int, int], ...], tuple]]:
        """The subtree below *root* as position-independent derivation entries.

        Preorder guarantees parents precede children, so entry ``i`` (local
        node ``i + 1``) always refers to an earlier local index.  Returns the
        pair ``(entries, replay)`` — the abstract derivations for the segment
        plus their fully ground form for the replay memo (the subtree's edge
        rules *are* the ground derivations, so the memo costs no substitution
        work) — or ``None`` when the subtree exceeds the store's segment size
        limit.  Each edge's rule is the one recorded when the edge was placed.
        """
        subtree = self.forest.subtree_nodes(root.node_id)
        if len(subtree) - 1 > self._segment_store.max_segment_nodes:
            return None
        canonical_of_seq, edge_seq = self._canonical_of_seq, self._edge_seq
        local: dict[int, int] = {root.node_id: 0}
        entries: list[tuple[int, int]] = []
        replay: list[tuple] = []
        for node in subtree[1:]:
            parent_local = local.get(node.parent)
            if parent_local is None:  # pragma: no cover - preorder invariant
                return None
            rule_index = canonical_of_seq[edge_seq[node.node_id]]
            local[node.node_id] = len(local)
            entries.append((parent_local, rule_index))
            side_atoms = tuple(
                node.edge_rule.body_pos[i]
                for i in self._canonical_rules[rule_index].other_indices
            )
            replay.append(
                (len(local) - 1, parent_local, rule_index, node.edge_rule, side_atoms)
            )
        return tuple(entries), tuple(replay)

    # -- views used by the Datalog± engine ----------------------------------------------

    def frontier_nodes(self) -> list[ChaseNode]:
        """Nodes at the current depth bound (not yet expanded)."""
        return self.forest.nodes_at_depth(self.depth_bound)

    def ground_rules(self) -> list[NormalRule]:
        """All ground rules labelling edges of the expanded forest segment."""
        return self.forest.edge_rules()

    def atoms(self) -> frozenset[Atom]:
        """All atoms labelling nodes of the expanded forest segment."""
        return self.forest.labels()

    def __repr__(self) -> str:
        return (
            f"GuardedChaseEngine(depth_bound={self.depth_bound}, "
            f"{len(self.forest)} nodes, {len(self._rules)} rules)"
        )


def _instantiate(rule: NormalRule, subst: Substitution) -> NormalRule:
    """Apply a substitution to a rule, producing a ground instance."""
    return NormalRule(
        subst.apply_atom(rule.head),
        tuple(subst.apply_atom(a) for a in rule.body_pos),
        tuple(subst.apply_atom(a) for a in rule.body_neg),
    )


def chase_forest(
    skolemized_program: NormalProgram | Iterable[NormalRule],
    database: Database | Iterable[Atom],
    max_depth: int,
    *,
    max_nodes: int = 1_000_000,
    segment_cache: Union[SegmentStore, bool, None] = None,
    saturation: str = "agenda",
) -> ChaseForest:
    """Convenience wrapper: build and expand a guarded chase forest in one call.

    Pass ``True`` (or an explicit :class:`~repro.chase.segments.SegmentStore`)
    to splice memoized subtrees recorded by earlier forests over the same
    rules; the result is identical either way.  ``saturation`` selects the
    agenda-driven loop (default) or the retained breadth-first scan — the
    forests are bit-identical too.
    """
    engine = GuardedChaseEngine(
        skolemized_program,
        database,
        max_nodes=max_nodes,
        segment_cache=segment_cache,
        saturation=saturation,
    )
    engine.expand(max_depth)
    return engine.forest
