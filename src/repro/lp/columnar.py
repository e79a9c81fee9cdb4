"""Columnar semi-naive grounding: bulk relational delta joins over interned ids.

:class:`~repro.lp.grounding.SemiNaiveGrounder` walks rule bodies one candidate
``Atom`` at a time through :func:`~repro.lang.substitution.match`, copying a
substitution dict per binding — the classic engine-vs-interpreter gap that
set-at-a-time Datalog engines (DLV's instantiator, the Vadalog pipeline) close
with relational execution.  This module is that engine:

* every ground term and predicate is *interned* to a dense integer id
  (extending the atom-id seam of :mod:`repro.lp.fixpoint` down to terms);
* each predicate's extension is a :class:`_Relation` of fixed-width tuples of
  int columns, with hash indexes over needed column subsets built on demand
  and maintained incrementally;
* each rule body is compiled once into join *plans* — one per delta position —
  and a semi-naive round executes each plan as a hash join: seed bindings from
  the delta rows, then probe the remaining atoms' indexes on their bound
  columns.  When some body relation holds only this round's delta rows, that
  position's plan alone covers every binding of the round and is the only one
  run (none, when the relation is empty).  Magic guards
  (:mod:`repro.rewrite.magic`) arrive as the first body atom of every gated
  rule: a guard with only new rows drives the rule's single plan, and
  otherwise its bound columns key the first probe, so the join degenerates
  into a semi-join filter exactly where the rewriting wants one;
* complete bindings are deduplicated in int space (batched diff against the
  already-emitted instances) and each new one reaches the shared
  :class:`~repro.lp.grounding.GroundProgram` as an id triple, no
  :class:`~repro.lang.rules.NormalRule` object built.

The resulting ground program and candidate index are *equal as sets* to the
tuple backend's (insertion order may differ); the differential and property
suites pin that equivalence.  Round boundaries are the one place the two
disciplines are allowed to disagree: the tuple matcher seeds head atoms into
its live index mid-round (so a rule can even observe its *own* emissions
while it is still enumerating), whereas this backend runs each rule pass
over a consistent snapshot and makes emissions visible from the next rule
on.  A ``max_rounds`` budget may therefore cut the two backends at slightly
different prefixes; resuming either backend to saturation always lands on
the identical fixpoint.  Rules whose positive body contains a non-ground
function term (a pattern like ``p(f(X))`` that must destructure a Skolem term)
fall back to the tuple matcher for that rule only — columns are opaque ids, so
structural matching stays in term space.

Facts handed to the grounder are not seeded one by one.  They arrive as an
:class:`EDBSnapshot` — a term-id table plus read-only int relations, built one
``(predicate, arity)`` relation at a time on first request.  A
:class:`~repro.lang.program.Database` keeps one snapshot per version
(:func:`edb_snapshot`), so the many fresh grounders of a goal-directed
workload over one unchanged database intern each relation, and build each of
its hash indexes, once.  A grounder holds every base relation it never writes
by reference and copies the rest; see :class:`ColumnarGrounder`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Collection, Iterable, Iterator, Optional

from ..exceptions import GroundingError
from ..lang.atoms import Atom
from ..lang.program import Database, NormalProgram
from ..lang.rules import NormalRule
from ..lang.terms import FunctionTerm, Term, Variable, is_ground_term
from .grounding import (
    GroundProgram,
    PredicateIndex,
    SemiNaiveGrounder,
    _delta_rule_instances,
    ground_rule_instances,
)

__all__ = [
    "BACKENDS",
    "ColumnarGrounder",
    "EDBSnapshot",
    "edb_snapshot",
    "make_grounder",
]

#: Accepted values for every ``backend=`` knob in the stack.
BACKENDS = ("tuple", "columnar")


class _Relation:
    """One predicate's extension as rows of interned term ids.

    ``rows`` gives O(1) duplicate detection, ``atom_of`` maps a row back to
    the original :class:`Atom` object (so emission reuses candidates instead
    of rebuilding them), and ``indexes`` holds one hash index per column
    subset some join plan probes on.  Indexes are built lazily from the
    current rows and then maintained by :meth:`add` — the relational analogue
    of the persistent :class:`~repro.lp.grounding.PredicateIndex`.
    """

    __slots__ = ("arity", "rows", "atom_of", "indexes")

    def __init__(self, arity: int):
        self.arity = arity
        self.rows: set[tuple[int, ...]] = set()
        #: insertion-ordered row -> Atom map; doubles as the row list that
        #: lazy index builds iterate, so deletions need no parallel list
        self.atom_of: dict[tuple[int, ...], Atom] = {}
        self.indexes: dict[tuple[int, ...], dict[tuple[int, ...], list]] = {}

    def add(self, row: tuple[int, ...], atom: Atom) -> None:
        self.rows.add(row)
        self.atom_of[row] = atom
        for columns, index in self.indexes.items():
            key = tuple(row[c] for c in columns)
            index.setdefault(key, []).append(row)

    def remove(self, row: tuple[int, ...]) -> bool:
        """Delete a row (deletion delta); maintains every built index."""
        if row not in self.rows:
            return False
        self.rows.discard(row)
        self.atom_of.pop(row, None)
        for columns, index in self.indexes.items():
            key = tuple(row[c] for c in columns)
            bucket = index.get(key)
            if bucket is not None:
                try:
                    bucket.remove(row)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del index[key]
        return True

    def ensure_index(self, columns: tuple[int, ...]) -> dict:
        """The hash index over *columns*, building it from existing rows."""
        index = self.indexes.get(columns)
        if index is None:
            index = {}
            for row in self.atom_of:
                key = tuple(row[c] for c in columns)
                index.setdefault(key, []).append(row)
            self.indexes[columns] = index
        return index


#: A relation's key: predicate name and arity.
_Key = tuple[str, int]


class EDBSnapshot:
    """Ground facts as interned int relations, each built on first request.

    ``term_ids``/``terms`` is the term-id table; :meth:`relation` builds the
    :class:`_Relation` of one ``(predicate, arity)`` key the first time it is
    asked for — groundness checked, terms interned, duplicates dropped — and
    keeps it, together with every hash index a grounder later builds on it.
    ``builds`` counts the relations built.  A key nobody asks for is never
    interned.  Readers never write the table or a relation's rows; builds
    and :meth:`term_table` copies hold the snapshot's lock, so grounders on
    several threads may share one snapshot (an index two of them build at
    once is built twice, each copy complete).

    Built over a :class:`~repro.lang.program.Database`, the snapshot reads
    the facts of a key from the database when asked, so it describes the
    database only while the database is unchanged: :func:`edb_snapshot`
    replaces it after a mutation, and a reader that may race a mutation
    (another thread) checks the version again after reading.  It references
    the database weakly.  Built over plain atoms, it groups them by key up
    front and is private to the one grounder that builds it.
    """

    __slots__ = ("term_ids", "terms", "builds", "_database", "_groups", "_relations", "_lock")

    def __init__(self, facts: Database | Iterable[Atom]):
        self.term_ids: dict[Term, int] = {}
        self.terms: list[Term] = []
        self.builds = 0
        self._relations: dict[_Key, _Relation] = {}
        self._lock = threading.Lock()
        self._database: Optional[weakref.ref[Database]] = None
        self._groups: dict[_Key, list[Atom]] = {}
        if isinstance(facts, Database):
            self._database = weakref.ref(facts)
        else:
            for atom in facts:
                self._groups.setdefault((atom.predicate, len(atom.args)), []).append(atom)

    def _source(self) -> Optional[Database]:
        """The database the snapshot reads, ``None`` for a private one."""
        if self._database is None:
            return None
        database = self._database()
        if database is None:
            raise ReferenceError("the database of this snapshot no longer exists")
        return database

    def keys(self) -> Collection[_Key]:
        """The ``(predicate, arity)`` keys the facts occupy."""
        database = self._source()
        return self._groups.keys() if database is None else database.signature()

    def relation(self, key: _Key) -> _Relation:
        """The relation of *key*, built on first request (empty if no fact has it)."""
        relation = self._relations.get(key)
        if relation is None:
            with self._lock:
                relation = self._relations.get(key)
                if relation is None:
                    relation = self._relations[key] = self._build(key)
        return relation

    def term_table(self) -> tuple[dict[Term, int], list[Term]]:
        """Copies of ``term_ids`` and ``terms``, taken together."""
        with self._lock:
            return self.term_ids.copy(), self.terms.copy()

    def _build(self, key: _Key) -> _Relation:
        """Intern the relation of *key*; must hold the lock."""
        predicate, arity = key
        database = self._source()
        atoms: Iterable[Atom] = (
            self._groups.get(key, ()) if database is None else database.with_predicate(predicate)
        )
        term_ids, terms = self.term_ids, self.terms

        def intern(term: Term) -> int:
            term_id = term_ids.get(term)
            if term_id is None:
                term_id = term_ids[term] = len(terms)
                terms.append(term)
            return term_id

        relation = _Relation(arity)
        for atom in atoms:
            if len(atom.args) != arity:
                continue
            if not atom.is_ground():
                raise GroundingError(
                    f"columnar grounding only accepts ground candidate atoms, got {atom}"
                )
            row = tuple(intern(arg) for arg in atom.args)
            if row not in relation.rows:
                relation.add(row, atom)
        self.builds += 1
        return relation


def edb_snapshot(database: Database) -> EDBSnapshot:
    """The columnar snapshot of *database*'s current version (cached on it)."""
    return database.snapshot(EDBSnapshot)


class _Probe:
    """A compiled probe of one body atom inside a join plan.

    ``key_sources`` builds the index key at join time — a ``(True, id)`` entry
    contributes an interned constant, ``(False, slot)`` the current binding of
    a variable slot.  ``checks`` are intra-atom repeated-variable equalities
    between a later column and the defining one; ``out`` lists the columns
    that bind fresh slots.
    """

    __slots__ = ("relation", "columns", "key_sources", "checks", "out")

    def __init__(self, relation, columns, key_sources, checks, out):
        self.relation = relation
        self.columns = columns
        self.key_sources = key_sources
        self.checks = checks
        self.out = out


class _Plan:
    """One rule's join plan for one delta position.

    ``relation`` is the delta atom's full relation, which the all-delta
    driver test of :meth:`ColumnarGrounder._delta_step` compares against the
    round's delta rows.
    """

    __slots__ = ("delta_key", "relation", "const_checks", "rep_checks", "var_defs", "probes")

    def __init__(self, delta_key, relation, const_checks, rep_checks, var_defs, probes):
        self.delta_key = delta_key
        self.relation = relation
        self.const_checks = const_checks
        self.rep_checks = rep_checks
        self.var_defs = var_defs
        self.probes = probes


class _CompiledRule:
    """A rule compiled for columnar execution (or flagged for fallback)."""

    __slots__ = ("rule", "fallback", "nvars", "plans", "body_builders", "head_builder", "neg_builders", "emitted")

    def __init__(self, rule: NormalRule):
        self.rule = rule
        self.fallback = any(
            not (isinstance(arg, Variable) or _is_ground(arg))
            for atom in rule.body_pos
            for arg in atom.args
        )
        self.nvars = 0
        self.plans: list[_Plan] = []
        self.body_builders: list = []
        self.head_builder = None
        self.neg_builders: list = []
        #: int-space bindings already turned into instances (batched diff)
        self.emitted: set[tuple[int, ...]] = set()


def _is_ground(term: Term) -> bool:
    return not isinstance(term, Variable) and is_ground_term(term)


class ColumnarGrounder:
    """Semi-naive relevant grounding over columnar int relations.

    A drop-in replacement for :class:`~repro.lp.grounding.SemiNaiveGrounder`:
    same constructor shape, same ``ground`` / ``index`` / ``rounds`` /
    ``saturated`` / :meth:`delta_rules` / :meth:`run` surface, same budget
    semantics — only the inner loop differs.

    ``extra_atoms`` are the *base* facts.  A
    :class:`~repro.lang.program.Database` is read through its cached
    :func:`edb_snapshot`; any other iterable gets a private
    :class:`EDBSnapshot`.  ``predicates``, when given, keeps only the base
    facts of those predicates (the magic path's relevance filter).  At
    construction the grounder requests every base relation, then copies the
    snapshot's term table — so its own ids never collide with ids the
    snapshot hands out later — and only then compiles its rules, because
    compiled probes hold relation objects.  A base relation whose key no rule
    head has (and no fallback rule reads) is held by reference and never
    written: its rows are not in :attr:`index`, and :attr:`candidates` counts
    them.  The others are copied into the grounder's own relations and
    :attr:`index` through :meth:`_seed`.  Either way, base rows are round-1
    delta, exactly as seeded facts are.  :meth:`add_fact`, :meth:`reseed` and
    :meth:`retract_fact` copy a held relation before they write it.
    """

    def __init__(
        self,
        program: NormalProgram | Iterable[NormalRule],
        extra_atoms: Database | Iterable[Atom] = (),
        *,
        predicates: Optional[Collection[str]] = None,
    ):
        self.ground = GroundProgram()
        self.index = PredicateIndex()
        self.rounds = 0
        self._delta_start = 0

        # -- pending delta -----------------------------------------------------
        self._delta: list[Atom] = []
        self._delta_rows: dict[_Key, list[tuple[int, ...]]] = {}

        self._compiled: list[_CompiledRule] = []
        self._has_fallback = False

        facts: list[NormalRule] = []
        once_rules: list[NormalRule] = []
        written: set[_Key] = set()
        for rule in program:
            written.add((rule.head.predicate, len(rule.head.args)))
            if rule.is_fact():
                if rule.is_ground():
                    facts.append(rule)
            elif rule.body_pos:
                compiled = _CompiledRule(rule)
                if compiled.fallback:
                    # the tuple matcher reads its candidates from the index
                    self._has_fallback = True
                    written.update((a.predicate, len(a.args)) for a in rule.body_pos)
                self._compiled.append(compiled)
            else:
                once_rules.append(rule)

        # -- the base layer ----------------------------------------------------
        if isinstance(extra_atoms, Database):
            snapshot = edb_snapshot(extra_atoms)
        else:
            snapshot = EDBSnapshot(extra_atoms)
        self._relations: dict[_Key, _Relation] = {}
        #: base relations, by key: read by :meth:`base_matches`, never written
        self._base: dict[_Key, _Relation] = {}
        #: the base relations held by reference; their rows are round-1
        #: delta while ``_base_pending`` is set
        self._shared: dict[_Key, _Relation] = {}
        for key in snapshot.keys():
            if predicates is None or key[0] in predicates:
                relation = self._base[key] = snapshot.relation(key)
                if key not in written:
                    self._relations[key] = self._shared[key] = relation
        self._base_pending = bool(self._shared)

        # -- interning ---------------------------------------------------------
        self._term_ids, self._terms = snapshot.term_table()

        for key, relation in self._base.items():
            if key not in self._shared:
                for atom in relation.atom_of.values():
                    self._seed(atom)
        for rule in facts:
            self.ground.add(rule)
            self._seed(rule.head)
        for compiled in self._compiled:
            if not compiled.fallback:
                self._compile(compiled)
        for rule in once_rules:
            for instance in ground_rule_instances(rule, self.index):
                self.ground.add(instance)
                self._seed(instance.head)

    # -- interning -------------------------------------------------------------

    def _intern_term(self, term: Term) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._term_ids[term] = term_id
            self._terms.append(term)
        return term_id

    def _relation(self, predicate: str, arity: int) -> _Relation:
        key = (predicate, arity)
        relation = self._relations.get(key)
        if relation is None:
            relation = _Relation(arity)
            self._relations[key] = relation
        return relation

    # -- seeding ---------------------------------------------------------------

    def _seed(self, atom: Atom) -> None:
        if not self.index.add(atom):
            return
        if not atom.is_ground():
            self.index.discard(atom)
            raise GroundingError(
                f"columnar grounding only accepts ground candidate atoms, got {atom}"
            )
        row = tuple(self._intern_term(arg) for arg in atom.args)
        self._relation(atom.predicate, len(atom.args)).add(row, atom)
        key = (atom.predicate, len(atom.args))
        self._delta.append(atom)
        self._delta_rows.setdefault(key, []).append(row)

    def _own(self, atom: Atom) -> None:
        """Copy the held base relation of *atom*'s key, if any, before a write.

        Its rows move into :attr:`index` (and into the pending delta while
        round 1 has not run), and every compiled plan is re-pointed at the
        copy; the snapshot's relation stays as it was.
        """
        key = (atom.predicate, len(atom.args))
        shared = self._shared.pop(key, None)
        if shared is None:
            return
        own = _Relation(shared.arity)
        for row, atom in shared.atom_of.items():
            own.add(row, atom)
            self.index.add(atom)
        if self._base_pending:
            self._delta.extend(shared.atom_of.values())
            self._delta_rows[key] = list(shared.atom_of)
        self._relations[key] = own
        for compiled in self._compiled:
            for plan in compiled.plans:
                if plan.relation is shared:
                    plan.relation = own
                for probe in plan.probes:
                    if probe.relation is shared:
                        probe.relation = own
            compiled.body_builders = [
                (own if relation is shared else relation, sources)
                for relation, sources in compiled.body_builders
            ]

    @property
    def candidates(self) -> int:
        """Candidate atoms: those in :attr:`index` plus the held base rows."""
        count = len(self.index)
        for relation in self._shared.values():
            count += len(relation.rows)
        return count

    def base_matches(
        self, key: _Key, columns: tuple[int, ...], guard: _Key
    ) -> Iterator[Atom]:
        """The base facts of *key* whose *columns* equal some row of *guard*.

        A semi-join probe of the base relation's hash index over *columns*
        (kept on the snapshot for later grounders) with every row of the
        grounder's relation *guard*; derived rows of *key* never match.
        """
        base = self._base.get(key)
        guard_relation = self._relations.get(guard)
        if base is None or guard_relation is None:
            return
        index = base.ensure_index(columns)
        for guard_row in guard_relation.atom_of:
            for row in index.get(guard_row, ()):
                yield base.atom_of[row]

    # -- fact-level deltas (materialized-view maintenance seam) ----------------

    def add_fact(self, atom: Atom) -> None:
        """Add a ground EDB fact: store its fact rule and stage it as delta.

        Mirrors :meth:`SemiNaiveGrounder.add_fact` — the next :meth:`run`
        executes only the join plans the new row can drive.  Interning
        rejects a non-ground atom before anything changes.
        """
        index = self.ground.index()
        head_id = index.intern(atom)
        if self._shared:
            self._own(atom)
        index.add_ids(head_id, (), ())
        self._seed(atom)

    def retract_fact(self, atom: Atom) -> bool:
        """Drop *atom* from the candidate state; return whether it was present.

        The row leaves the predicate's relation (and every built hash
        index), so future delta joins no longer see it.  Stored ground
        instances are untouched — activity is the view layer's job — and the
        caller must only retract atoms that are no longer derivable,
        re-entering them via :meth:`reseed` if rederived.
        """
        if self._shared:
            self._own(atom)
        if not self.index.discard(atom):
            return False
        if self._delta:
            try:
                self._delta.remove(atom)
            except ValueError:
                pass
        key = (atom.predicate, len(atom.args))
        row = tuple(self._term_ids[arg] for arg in atom.args)
        relation = self._relations.get(key)
        if relation is not None:
            relation.remove(row)
        staged = self._delta_rows.get(key)
        if staged is not None:
            try:
                staged.remove(row)
            except ValueError:
                pass
        return True

    def reseed(self, atom: Atom) -> None:
        """Re-enter a previously retracted atom into the candidate state."""
        if self._shared:
            self._own(atom)
        self._seed(atom)

    # -- rule compilation ------------------------------------------------------

    def _compile(self, compiled: _CompiledRule) -> None:
        rule = compiled.rule
        slots: dict[Variable, int] = {}
        for atom in rule.body_pos:
            for arg in atom.args:
                if isinstance(arg, Variable) and arg not in slots:
                    slots[arg] = len(slots)
        compiled.nvars = len(slots)

        body = list(rule.body_pos)
        for delta_position in range(len(body)):
            compiled.plans.append(self._compile_plan(body, delta_position, slots))

        def row_builder(atom: Atom):
            relation = self._relation(atom.predicate, len(atom.args))
            sources = tuple(
                (True, self._intern_term(arg))
                if not isinstance(arg, Variable)
                else (False, slots[arg])
                for arg in atom.args
            )
            return relation, sources

        compiled.body_builders = [row_builder(atom) for atom in body]
        compiled.head_builder = self._atom_builder(rule.head, slots)
        compiled.neg_builders = [self._atom_builder(a, slots) for a in rule.body_neg]

    def _compile_plan(
        self, body: list[Atom], delta_position: int, slots: dict[Variable, int]
    ) -> _Plan:
        delta_atom = body[delta_position]
        const_checks: list[tuple[int, int]] = []
        rep_checks: list[tuple[int, int]] = []
        var_defs: list[tuple[int, int]] = []
        bound: dict[Variable, bool] = {}
        first_col: dict[Variable, int] = {}
        for column, arg in enumerate(delta_atom.args):
            if isinstance(arg, Variable):
                if arg in first_col:
                    rep_checks.append((column, first_col[arg]))
                else:
                    first_col[arg] = column
                    var_defs.append((column, slots[arg]))
                    bound[arg] = True
            else:
                const_checks.append((column, self._intern_term(arg)))

        probes: list[_Probe] = []
        for position, atom in enumerate(body):
            if position == delta_position:
                continue
            columns: list[int] = []
            key_sources: list[tuple[bool, int]] = []
            checks: list[tuple[int, int]] = []
            out: list[tuple[int, int]] = []
            local_first: dict[Variable, int] = {}
            for column, arg in enumerate(atom.args):
                if not isinstance(arg, Variable):
                    columns.append(column)
                    key_sources.append((True, self._intern_term(arg)))
                elif arg in bound:
                    columns.append(column)
                    key_sources.append((False, slots[arg]))
                elif arg in local_first:
                    checks.append((column, local_first[arg]))
                else:
                    local_first[arg] = column
                    out.append((column, slots[arg]))
            for arg in local_first:
                bound[arg] = True
            relation = self._relation(atom.predicate, len(atom.args))
            probes.append(
                _Probe(relation, tuple(columns), tuple(key_sources), tuple(checks), tuple(out))
            )
        return _Plan(
            (delta_atom.predicate, len(delta_atom.args)),
            self._relation(delta_atom.predicate, len(delta_atom.args)),
            tuple(const_checks),
            tuple(rep_checks),
            tuple(var_defs),
            probes,
        )

    def _atom_builder(self, atom: Atom, slots: dict[Variable, int]):
        """A ``binding -> Atom`` constructor for a head or negative-body atom."""
        terms = self._terms
        builders: list[Callable] = []
        for arg in atom.args:
            if isinstance(arg, Variable):
                slot = slots[arg]
                builders.append(lambda b, s=slot: terms[b[s]])
            elif _is_ground(arg):
                builders.append(lambda b, t=arg: t)
            else:
                builders.append(self._term_builder(arg, slots))
        predicate = atom.predicate
        return lambda binding: Atom(
            predicate, tuple(build(binding) for build in builders)
        )

    def _term_builder(self, term: FunctionTerm, slots: dict[Variable, int]):
        """Recursive builder for a non-ground (Skolem) function-term pattern."""
        terms = self._terms
        parts: list[Callable] = []
        for arg in term.args:
            if isinstance(arg, Variable):
                slot = slots[arg]
                parts.append(lambda b, s=slot: terms[b[s]])
            elif _is_ground(arg):
                parts.append(lambda b, t=arg: t)
            else:
                parts.append(self._term_builder(arg, slots))
        function = term.function
        return lambda binding: FunctionTerm(function, tuple(p(binding) for p in parts))

    # -- the semi-naive loop ---------------------------------------------------

    @property
    def saturated(self) -> bool:
        """``True`` iff the fixpoint was reached (no pending delta atoms)."""
        return not self._delta and not self._base_pending

    def delta_rules(self) -> tuple[NormalRule, ...]:
        """The ground rules produced by the most recent :meth:`run` call."""
        return self.ground.rules_since(self._delta_start)

    def run(
        self,
        *,
        max_rounds: Optional[int] = None,
        max_atoms: Optional[int] = None,
        raise_on_budget: bool = True,
    ) -> bool:
        """Iterate delta rounds to a fixpoint; return whether it saturated.

        Budget semantics match :meth:`SemiNaiveGrounder.run` exactly; only the
        per-round step differs (bulk joins instead of per-candidate matching).
        Because this backend's rounds are snapshot-consistent while the tuple
        matcher's observe mid-round emissions, a budget-interrupted prefix may
        trail the oracle's by a round of chained derivations — the saturated
        result is set-identical either way (see the module docstring).
        """
        self._delta_start = len(self.ground)
        while self._delta or self._base_pending:
            if max_rounds is not None and self.rounds + 1 > max_rounds:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding did not converge within {max_rounds} rounds "
                        "(the program probably has function symbols); use a budget or the chase engine"
                    )
                return False
            self.rounds += 1
            delta_atoms = self._delta
            delta_rows: dict = self._delta_rows
            if self._base_pending:
                self._base_pending = False
                for key, relation in self._shared.items():
                    delta_rows[key] = relation.atom_of
            self._delta = []
            self._delta_rows = {}
            fallback_index = (
                PredicateIndex(delta_atoms) if self._has_fallback else None
            )
            for compiled in self._compiled:
                if compiled.fallback:
                    # snapshot before seeding: the candidate buckets are
                    # insertion-ordered dicts and must not grow mid-scan
                    for instance in list(
                        _delta_rule_instances(
                            compiled.rule, self.index, fallback_index
                        )
                    ):
                        if self.ground.add(instance):
                            self._seed(instance.head)
                else:
                    self._delta_step(compiled, delta_rows)
            if max_atoms is not None and self.candidates > max_atoms:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding exceeded the atom budget of {max_atoms}"
                    )
                return False
        return True

    def _delta_step(
        self,
        compiled: _CompiledRule,
        delta_rows: dict[_Key, Collection[tuple[int, ...]]],
    ) -> None:
        """Run the rule's delta-position plans and emit new instances.

        A binding of the round needs some body atom in the delta.  When a
        position's relation holds nothing but this round's delta rows
        (``len(R_j) == len(Δ_j)``; delta rows are distinct members of their
        relation), *every* binding has its j-th atom in ``Δ_j``, so plan j
        alone enumerates them all.  The smallest such plan then drives the
        round by itself, and an empty one proves the rule has no binding at
        all.  The relations are read before any emission of this rule, so
        the test is sound.  It only runs for a rule the delta touches whose
        body has more than one atom: the common untouched rule costs one
        lookup per position, as without it.
        """
        plans = compiled.plans
        for plan in plans:
            if delta_rows.get(plan.delta_key):
                break
        else:
            return
        selected = range(len(plans))
        if len(plans) > 1:
            driver_size = None
            for position, plan in enumerate(plans):
                size = len(delta_rows.get(plan.delta_key, ()))
                if size == len(plan.relation.rows) and (
                    driver_size is None or size < driver_size
                ):
                    selected, driver_size = (position,), size
            if driver_size == 0:
                return
        bindings: list[tuple[int, ...]] = []
        for position in selected:
            plan = plans[position]
            rows = delta_rows.get(plan.delta_key)
            if not rows:
                continue
            self._run_plan_dict(plan, rows, compiled.nvars, bindings)
        if bindings:
            self._emit(compiled, bindings)

    def _run_plan_dict(
        self,
        plan: _Plan,
        rows: Collection[tuple[int, ...]],
        nvars: int,
        results: list[tuple[int, ...]],
    ) -> None:
        probes = plan.probes
        indexes = [probe.relation.ensure_index(probe.columns) for probe in probes]
        nprobes = len(probes)

        def extend(level: int, binding: list[int]) -> None:
            if level == nprobes:
                results.append(tuple(binding))
                return
            probe = probes[level]
            key = tuple(
                value if is_const else binding[value]
                for is_const, value in probe.key_sources
            )
            bucket = indexes[level].get(key)
            if not bucket:
                return
            checks = probe.checks
            out = probe.out
            for row in bucket:
                if checks and any(row[a] != row[b] for a, b in checks):
                    continue
                for column, slot in out:
                    binding[slot] = row[column]
                extend(level + 1, binding)

        const_checks = plan.const_checks
        rep_checks = plan.rep_checks
        var_defs = plan.var_defs
        for row in rows:
            if const_checks and any(row[c] != v for c, v in const_checks):
                continue
            if rep_checks and any(row[a] != row[b] for a, b in rep_checks):
                continue
            binding = [0] * nvars
            for column, slot in var_defs:
                binding[slot] = row[column]
            extend(0, binding)

    def _emit(self, compiled: _CompiledRule, bindings: list[tuple[int, ...]]) -> None:
        """Batched diff against already-emitted instances, then store id triples.

        Body atom ids come from the selected rows; head and negative atoms are
        built and interned.  The index drops an instance it already holds.
        """
        emitted = compiled.emitted
        index = self.ground.index()
        intern = index.intern
        add_ids = index.add_ids
        head_builder = compiled.head_builder
        neg_builders = compiled.neg_builders
        body_builders = compiled.body_builders
        for binding in bindings:
            if binding in emitted:
                continue
            emitted.add(binding)
            head = head_builder(binding)
            head_id = intern(head)
            pos = tuple(
                intern(relation.atom_of[tuple(v if c else binding[v] for c, v in sources)])
                for relation, sources in body_builders
            )
            if add_ids(head_id, pos, tuple(intern(build(binding)) for build in neg_builders)):
                self._seed(head)


def make_grounder(
    program: NormalProgram | Iterable[NormalRule],
    extra_atoms: Iterable[Atom] = (),
    *,
    backend: str = "tuple",
):
    """Construct the grounding backend selected by *backend*.

    ``"tuple"`` is the per-candidate :class:`SemiNaiveGrounder` — the
    differential oracle the columnar backend is pinned against;
    ``"columnar"`` the pure-Python hash-join :class:`ColumnarGrounder`.
    """
    if backend == "tuple":
        return SemiNaiveGrounder(program, extra_atoms)
    if backend == "columnar":
        return ColumnarGrounder(program, extra_atoms)
    raise ValueError(f"unknown grounding backend {backend!r}; expected one of {BACKENDS}")
