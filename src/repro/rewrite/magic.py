"""Magic-sets rewriting as a WFS-sound *grounding-time* restriction.

Classical magic sets (Beeri–Ramakrishnan) rewrite a program so that bottom-up
evaluation only derives atoms relevant to a query.  Under the well-founded
semantics the textbook transformation is unsound in general: magic atoms can
become *undefined* inside the rewritten program and corrupt truth values
(Kemp–Srivastava–Stuckey).  This module therefore keeps the magic predicates
**out of the evaluated program entirely**:

1. The adorned program (:mod:`repro.rewrite.adornment`) yields, per reachable
   ``(predicate, adornment)`` pair, *magic rules* that pass bindings sideways
   and *gated rules* — the original rules with a magic guard atom prepended to
   the positive body.  Magic rules are emitted for **both positive and negated
   body literals**; the negative-context copies (``negative_context`` in
   :class:`MagicPlan`) are the labelled/doubled rules that make the restriction
   WFS-sound: relevance must flow into negated subgoals, because their truth
   values feed the unfounded-set computation.
2. The gated program is grounded by the ordinary semi-naive relevant grounding
   (:class:`repro.lp.grounding.SemiNaiveGrounder`), which treats negative
   bodies as satisfiable — a two-valued over-approximation.  The magic atoms
   are therefore computed on the program's *possible* (envelope) copy and
   over-approximate the atoms the query can reach.
3. :func:`ground_magic` then **strips** the magic guards and drops the magic
   rules, leaving a plain sub-program of the full relevant grounding whose
   heads are exactly the magic-covered atoms, plus the covered database facts.

Because the covered atom set is closed under "head covered ⇒ body covered"
(cover flows through every literal, negated ones included), the stripped
program is a *splitting bottom* of the full grounding: by the modularity of
the WFS, the well-founded model of the stripped program agrees with the full
model on every covered atom — for any program, stratified or not.  Query
evaluation only ever consults covered atoms (the query literals seed the
cover), so answers are preserved exactly.

The *sound fragment* enforced by :func:`rewrite_for_query` is about
**termination**, not truth values: the restricted grounding must saturate.
Query-relevant recursion through rules that create function terms (Skolemised
existentials) can make the fixpoint infinite, so such program/query pairs are
flagged ``supported=False`` and the engine answers them from its own model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..lang.atoms import Atom, Literal
from ..lang.program import NormalProgram
from ..lang.rules import NormalRule
from ..lang.terms import Term
from ..lp.columnar import ColumnarGrounder, make_grounder
from ..lp.grounding import GroundProgram
from .adornment import AdornedProgram, Adornment, adorn

__all__ = [
    "MAGIC_PREFIX",
    "MagicPlan",
    "MagicGrounding",
    "magic_predicate_name",
    "is_magic_predicate",
    "rewrite_for_query",
    "ground_magic",
]

#: Reserved namespace for magic predicates; programs using it are not rewritten.
MAGIC_PREFIX = "__magic_"


def magic_predicate_name(predicate: str, adornment: Adornment) -> str:
    """The name of the magic predicate ``magic_p^a`` (collision-free by prefix)."""
    return f"{MAGIC_PREFIX}{adornment}__{predicate}"


def is_magic_predicate(predicate: str) -> bool:
    """``True`` iff the predicate name lives in the magic namespace."""
    return predicate.startswith(MAGIC_PREFIX)


def _magic_atom(predicate: str, adornment: Adornment, args: Sequence[Term]) -> Atom:
    """The magic atom carrying the bound arguments of a call."""
    return Atom(magic_predicate_name(predicate, adornment), adornment.project(args))


@dataclass
class MagicPlan:
    """The rewriting of one program/query pair.

    ``program`` is the *gated* magic program: magic seeds and rules plus the
    original rules guarded by magic atoms.  It is ``None`` when the pair falls
    outside the supported fragment (``supported=False``; ``reason`` says why),
    in which case only the relevance information is usable.
    """

    query: tuple[Literal, ...]
    adorned: AdornedProgram
    supported: bool
    reason: Optional[str] = None
    program: Optional[NormalProgram] = None
    #: magic rules emitted for negated body literals (the labelled copies)
    negative_context: tuple[NormalRule, ...] = ()
    #: number of magic seed facts / magic rules / gated rules
    seed_count: int = 0
    magic_rule_count: int = 0
    gated_rule_count: int = 0
    #: DLV-style adornment subsumption: each reachable ``(predicate,
    #: adornment)`` maps to the most general reachable adornment whose bound
    #: positions it covers (itself when nothing more general is reachable).
    #: The rewriting is emitted over representatives only.
    representatives: "dict[tuple[str, Adornment], Adornment]" = field(
        default_factory=dict
    )
    #: reachable adornments folded into a strictly more general representative
    folded_adornments: int = 0
    #: the strongest acyclicity criterion certifying the restricted grounding
    #: terminates ("function-free", "weak", "joint", "super-weak"); ``None``
    #: when the plan is unsupported
    termination_criterion: Optional[str] = None

    def relevant_predicates(self) -> frozenset[str]:
        """Predicates reachable from the query (valid even when unsupported)."""
        return self.adorned.relevant_predicates()

    def adornments_by_predicate(self) -> dict[str, list[Adornment]]:
        """Representative adornments grouped by predicate (for cover tests).

        Only representative adornments have magic predicates in the emitted
        program, so cover tests (e.g. the database-fact filter of
        :func:`ground_magic`) must look these up, not the raw reachable set.
        """
        grouped: dict[str, list[Adornment]] = {}
        for key in self.adorned.reachable:
            predicate, adornment = key
            adornment = self.representatives.get(key, adornment)
            bucket = grouped.setdefault(predicate, [])
            if adornment not in bucket:
                bucket.append(adornment)
        return grouped

    def __repr__(self) -> str:
        status = "supported" if self.supported else f"fallback: {self.reason}"
        return (
            f"MagicPlan({len(self.adorned.reachable)} adorned predicates, "
            f"{self.magic_rule_count} magic rules, {self.gated_rule_count} gated rules, "
            f"{status})"
        )


def _unsupported_reason(
    rules: Sequence[NormalRule], relevant: frozenset[str]
) -> "tuple[Optional[str], Optional[str]]":
    """``(reason, criterion)`` for the query-relevant fragment.

    The magic-restricted grounding must reach a fixpoint.  Magic and gated
    rules never create terms (they only project and copy existing ones), so
    termination is governed by the original query-relevant rules — judged by
    the full acyclicity hierarchy of :mod:`repro.analysis.termination` (weak
    ⊂ joint ⊂ super-weak), not weak acyclicity alone: any member of the
    hierarchy bounds the Skolem-chase and with it the restricted grounding.
    Returns ``(None, criterion)`` with the strongest passing criterion when
    the fragment is supported, and ``(reason, None)`` when it is not — which
    also covers programs whose predicates collide with the reserved magic
    namespace; those pairs are answered by the fallback path instead.
    """
    from ..analysis.termination import termination_verdict

    for rule in rules:
        predicate = rule.head.predicate
        if predicate in relevant and is_magic_predicate(predicate):
            return (
                f"program predicate {predicate!r} collides with the magic namespace",
                None,
            )
    relevant_rules = [r for r in rules if r.head.predicate in relevant]
    verdict = termination_verdict(relevant_rules)
    if verdict.terminating:
        return None, verdict.criterion
    return (
        "query-relevant fragment has no static termination criterion "
        f"({verdict.reason})",
        None,
    )


def _fold_adornments(
    adorned: AdornedProgram,
) -> dict[tuple[str, Adornment], Adornment]:
    """DLV-style adornment subsumption over the reachable adorned predicates.

    When both ``p^bb`` and ``p^bf`` are reachable, emitting magic machinery
    for both duplicates every rule of ``p`` per adornment.  Each reachable
    adornment is therefore mapped to the most general reachable adornment of
    the same predicate whose bound positions it *covers* (fewest bound
    positions, adornment string as the deterministic tie-break) — ``p^bb``
    folds into ``p^bf``, which folds into ``p^ff`` when that is reachable too.
    Folding towards the more general side is the sound direction: the coarser
    magic predicate covers a superset of atoms, and its full grounding cost is
    already being paid (it is reachable), so dropping the specialised copies
    removes duplicate rules without shrinking the cover.  The map is
    idempotent: a representative's candidate set is a subset of every
    adornment it represents, so nothing more general can be left for it.
    """
    by_predicate: dict[tuple[str, int], list[Adornment]] = {}
    for predicate, adornment in adorned.reachable:
        by_predicate.setdefault((predicate, adornment.arity), []).append(adornment)
    representative: dict[tuple[str, Adornment], Adornment] = {}
    for (predicate, _), adornments in by_predicate.items():
        for adornment in adornments:
            bound = set(adornment.bound_positions())
            representative[(predicate, adornment)] = min(
                (a for a in adornments if set(a.bound_positions()) <= bound),
                key=lambda a: (len(a.bound_positions()), str(a)),
            )
    return representative


def rewrite_for_query(
    rules: Iterable[NormalRule], query: Sequence[Literal]
) -> MagicPlan:
    """Rewrite *rules* for goal-directed grounding of *query*.

    Returns a :class:`MagicPlan`; when ``plan.supported`` is ``False``,
    ``plan.reason`` says why and callers answer the query without the
    rewriting.

    Reachable adornments are first folded by subsumption
    (:func:`_fold_adornments`): magic seeds, magic rules and gated rules are
    emitted for *representative* adornments only, with every call's adornment
    mapped through the fold — multi-pattern queries that reach both ``p^bf``
    and ``p^bb`` get one set of ``p`` rules instead of two.
    """
    rules = list(rules)
    adorned = adorn(rules, query)
    plan = MagicPlan(query=tuple(query), adorned=adorned, supported=True)

    reason, criterion = _unsupported_reason(rules, adorned.relevant_predicates())
    if reason is not None:
        plan.supported = False
        plan.reason = reason
        return plan
    plan.termination_criterion = criterion

    representative = _fold_adornments(adorned)
    plan.representatives = representative
    plan.folded_adornments = sum(
        1 for key, rep in representative.items() if key[1] != rep
    )

    program = NormalProgram()
    negative_context: list[NormalRule] = []

    # -- seeds and magic rules from the query body ---------------------------
    for call in adorned.query_calls:
        adornment = representative[(call.predicate, call.adornment)]
        magic_head = _magic_atom(call.predicate, adornment, call.atom.args)
        magic_rule = NormalRule(magic_head, call.step.prefix, ())
        if magic_rule not in program:
            program.add(magic_rule)
            if magic_rule.is_fact():
                plan.seed_count += 1
            else:
                plan.magic_rule_count += 1
        if not call.positive:
            negative_context.append(magic_rule)

    # -- magic rules and gated rules from the adorned program ----------------
    for adorned_rule in adorned.adorned_rules:
        rule = adorned_rule.rule
        head_key = (rule.head.predicate, adorned_rule.adornment)
        if representative[head_key] != adorned_rule.adornment:
            continue  # a more general reachable adornment carries these rules
        gate = _magic_atom(rule.head.predicate, adorned_rule.adornment, rule.head.args)
        for call in adorned_rule.calls:
            adornment = representative[(call.predicate, call.adornment)]
            magic_head = _magic_atom(call.predicate, adornment, call.atom.args)
            magic_rule = NormalRule(magic_head, (gate, *call.step.prefix), ())
            if magic_rule not in program:
                plan.magic_rule_count += 1
                program.add(magic_rule)
                if not call.positive:
                    negative_context.append(magic_rule)
        gated = NormalRule(rule.head, (gate, *rule.body_pos), rule.body_neg)
        if gated not in program:
            plan.gated_rule_count += 1
            program.add(gated)

    plan.program = program
    plan.negative_context = tuple(negative_context)
    return plan


@dataclass
class MagicGrounding:
    """Result of grounding a :class:`MagicPlan` against a database.

    ``ground`` is the stripped program: the sub-program of the full relevant
    grounding restricted to magic-covered heads, with all magic artefacts
    removed, plus the covered database facts.  ``saturated`` reports whether
    the restricted fixpoint completed within its budgets — only a saturated
    grounding is a sound basis for query answering.
    """

    ground: GroundProgram
    saturated: bool
    rounds: int
    #: derived magic (cover) atoms
    magic_atoms: int
    #: candidate atoms of the restricted grounding (magic atoms included)
    candidates: int
    #: database facts covered (and therefore kept)
    covered_facts: int

    def stats(self) -> dict:
        """JSON-ready summary used by the engine's per-query statistics."""
        return {
            "ground_rules": len(self.ground),
            "saturated": self.saturated,
            "rounds": self.rounds,
            "magic_atoms": self.magic_atoms,
            "candidates": self.candidates,
            "covered_facts": self.covered_facts,
        }


def _strip_magic(ground: GroundProgram) -> GroundProgram:
    """The rules of *ground* without magic rules and guards, moved in id space.

    Rules with a magic head go, and so do the magic atoms of positive bodies.
    ``moved`` maps each atom id, once, to its id in the stripped program (in
    order of first use there), or to -1 for a magic atom.
    """
    source, stripped = ground.index(), GroundProgram()
    target = stripped.index()
    moved: dict[int, int] = {}

    def move(atom_id: int) -> int:
        if atom_id not in moved:
            atom = source.atom_of(atom_id)
            moved[atom_id] = -1 if is_magic_predicate(atom.predicate) else target.intern(atom)
        return moved[atom_id]

    for rule_id in range(len(source)):
        head_id, pos, neg = source.key(rule_id)
        if move(head_id) >= 0:
            pos = tuple(atom_id for atom_id in map(move, pos) if atom_id >= 0)
            neg = tuple(target.intern(source.atom_of(atom_id)) for atom_id in neg)
            target.add_ids(moved[head_id], pos, neg)
    return stripped


def ground_magic(
    plan: MagicPlan,
    database: Iterable[Atom] = (),
    *,
    max_rounds: Optional[int] = None,
    max_atoms: Optional[int] = None,
    backend: str = "tuple",
) -> MagicGrounding:
    """Ground the gated magic program semi-naively and strip the magic guards.

    ``database`` atoms are candidates for rule bodies throughout; only the
    magic-covered ones survive into the result as facts.  Atoms whose
    predicate the query cannot reach (outside ``plan.relevant_predicates()``)
    match no body of the gated program and can never be covered, so they are
    dropped before grounding, and ``candidates`` counts relevant atoms only.
    Coverage is keyed by ``(predicate, arity)``: a fact whose arity differs
    from every reachable adornment of its predicate is a candidate but is
    never covered.  Budgets behave like
    :class:`~repro.lp.grounding.SemiNaiveGrounder`'s but never raise — a
    budget hit is reported as ``saturated=False`` and the caller is expected
    to fall back to unrewritten evaluation.

    ``backend`` selects the grounding executor (see
    :func:`~repro.lp.columnar.make_grounder`).  Under the columnar backend
    the magic guard — always the first positive body atom of a gated rule —
    acts as a semi-join filter over the gated relation: it keys the first
    probe of every other plan, and in a round where the guard's relation holds
    only new rows (round 1's seed, for one) it drives the rule's only plan,
    so the rule scans no row of the relation it gates.  Handed a
    :class:`~repro.lang.program.Database`, the columnar backend grounds from
    the database's cached :class:`~repro.lp.columnar.EDBSnapshot` instead of
    seeding the facts, interning only the relations of relevant predicates,
    and tests coverage by probing those relations' hash indexes with the
    magic rows — so a later call over the unchanged database finds the
    relations and indexes built.  The tuple backend filters and seeds the
    facts one by one and projects each onto the magic rows, as the oracle.
    """
    if plan.program is None:
        raise ValueError(f"plan is not supported ({plan.reason}); cannot ground it")
    relevant = plan.relevant_predicates()
    columnar = backend == "columnar"
    if columnar:
        grounder = ColumnarGrounder(plan.program, database, predicates=relevant)
    else:
        facts = [atom for atom in database if atom.predicate in relevant]
        grounder = make_grounder(plan.program, facts, backend=backend)
    saturated = grounder.run(
        max_rounds=max_rounds, max_atoms=max_atoms, raise_on_budget=False
    )

    # The magic predicate of every (predicate, arity, representative
    # adornment), whose derived atoms sit in the candidate index.
    guards: dict[tuple[str, int], list[tuple[Adornment, str]]] = {}
    magic_atoms = 0
    for predicate, adornments in plan.adornments_by_predicate().items():
        for adornment in adornments:
            name = magic_predicate_name(predicate, adornment)
            magic_atoms += len(grounder.index.get(name))
            guards.setdefault((predicate, adornment.arity), []).append((adornment, name))

    stripped = _strip_magic(grounder.ground)
    covered: dict[Atom, None] = {}
    if columnar:
        for key, keyed in guards.items():
            for adornment, name in keyed:
                columns = adornment.bound_positions()
                for atom in grounder.base_matches(key, columns, (name, len(columns))):
                    covered[atom] = None
        candidates = grounder.candidates
    else:
        rows = {
            name: {atom.args for atom in grounder.index.get(name)}
            for keyed in guards.values()
            for _, name in keyed
        }
        for atom in facts:
            for adornment, name in guards.get((atom.predicate, len(atom.args)), ()):
                if adornment.project(atom.args) in rows[name]:
                    covered[atom] = None
                    break
        candidates = len(grounder.index)
    for atom in covered:
        stripped.add(NormalRule(atom))

    return MagicGrounding(
        ground=stripped,
        saturated=saturated,
        rounds=grounder.rounds,
        magic_atoms=magic_atoms,
        candidates=candidates,
        covered_facts=len(covered),
    )
