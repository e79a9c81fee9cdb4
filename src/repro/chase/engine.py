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
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..exceptions import GroundingError, NotGuardedError
from ..lang.atoms import Atom
from ..lang.program import Database, NormalProgram
from ..lang.rules import NormalRule
from ..lang.substitution import Substitution, match
from .forest import ChaseForest, ChaseNode

__all__ = ["GuardedChaseEngine", "chase_forest"]

class _PreparedRule:
    """A Skolemised rule with its guard singled out for efficient matching.

    The guard binds every rule variable, so a guard match fully determines
    the ground instance: at most one firing per node, and every side atom is
    ground under the match.
    """

    __slots__ = ("rule", "guard", "other_pos", "seq")

    def __init__(self, rule: NormalRule, *, seq: int = 0):
        self.rule = rule
        self.guard = _find_guard(rule)
        self.other_pos = tuple(a for a in rule.body_pos if a is not self.guard)
        #: position of the rule in the engine's rule list (decided-pair keys)
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
    behind the engine's convergence test needs guards.
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
        # Decided (node_id, rule seq) pairs: the pair either fired (its unique
        # ground instance is in the forest) or its guard can never match the
        # node's label.  Agenda re-processing (a node woken by a watched atom,
        # or re-enqueued after a budget failure) and scan rounds both skip
        # decided pairs without re-instantiating the rule, which keeps
        # re-visits near-free.
        self._decided: set[tuple[int, int]] = set()
        self.forest.add_listener(self._on_node_added)

        for atom in fact_atoms:
            self._add_fact(atom)
        for atom in database:
            self._add_fact(atom)

        #: depth bound in effect after the last call to :meth:`expand`
        self.depth_bound = 0
        #: number of expansion rounds performed so far
        self.rounds = 0

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
        within the depth bound.  After saturation, node levels are restored
        to their canonical derivation stages
        (:meth:`ChaseForest.recompute_levels`).

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
        return added_any

    # -- agenda-driven saturation -------------------------------------------------

    def _on_node_added(self, node: ChaseNode, is_new_label: bool) -> None:
        """Forest change hook: feed insertions into the agenda and wake waiters.

        Every new node enters the agenda (it may host firings); a node whose
        label is new to the forest additionally wakes the waiters watching
        that atom.  Facts added at construction and ordinary firings both
        flow through here — the agenda never needs a forest re-scan to find
        new work.  A pure scan-mode engine skips the agenda bookkeeping
        entirely (its rounds re-visit every node anyway, and an agenda nobody
        drains would just leak), so the retained baseline stays the historical
        code path.
        """
        node_id = node.node_id
        if self.saturation == "agenda" and node_id not in self._in_agenda:
            self._in_agenda.add(node_id)
            self._agenda.append(node_id)
        if is_new_label:
            waiters = self._atom_waiters.pop(node.label, None)
            if waiters:
                self._enqueue_all(waiters)

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
            self._budget_guard(node_id)
            forest.add_child(node_id, ground_rule.head, ground_rule, node.level + 1)
            decided.add((node_id, seq))

    def _budget_guard(self, node_id: int) -> None:
        """Raise (resumably) if adding one more node would exceed the budget.

        *node_id* — the node being processed — re-enters the agenda first, so
        the work that was about to happen is retried (not lost) when a later
        :meth:`expand` call resumes with a larger :attr:`max_nodes`.
        """
        if len(self.forest) + 1 > self.max_nodes:
            self._enqueue_all((node_id,))
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
        new_children: list[tuple[int, NormalRule]] = []

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
                new_children.append((node_id, ground_rule))
                fired.append((node_id, seq))

        if not new_children:
            return False
        if len(self.forest) + len(new_children) > self.max_nodes:
            raise GroundingError(
                f"chase forest would exceed the node budget of {self.max_nodes}; "
                "lower the depth bound or raise max_nodes"
            )
        for parent_id, rule in new_children:
            # Re-check: the same (parent, rule) pair may have been queued once only,
            # but defensive duplicate checks keep the forest well-formed.
            if not self.forest.was_applied(parent_id, rule):
                self.forest.add_child(parent_id, rule.head, rule, level)
        decided.update(fired)
        return True

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
    saturation: str = "agenda",
) -> ChaseForest:
    """Convenience wrapper: build and expand a guarded chase forest in one call.

    ``saturation`` selects the agenda-driven loop (default) or the retained
    breadth-first scan; the forests are bit-identical.
    """
    engine = GuardedChaseEngine(
        skolemized_program, database, max_nodes=max_nodes, saturation=saturation
    )
    engine.expand(max_depth)
    return engine.forest
