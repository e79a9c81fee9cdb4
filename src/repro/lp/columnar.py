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
  already-emitted instances) before any ``Atom``/``NormalRule`` object is
  built, and only genuinely new instances reach the shared
  :class:`~repro.lp.grounding.GroundProgram`.

The resulting ground program and candidate index are *equal as sets* to the
tuple backend's (insertion order may differ); the differential and property
suites pin that equivalence.  Round boundaries are the one place the two
disciplines are allowed to disagree: the tuple matcher seeds head atoms into
its live index mid-round (so a rule can even observe its *own* emissions
while it is still enumerating), whereas this backend runs each rule pass
over a consistent snapshot and makes emissions visible from the next rule
on (``engine="sqlite"``: from the next round on).  A ``max_rounds`` budget
may therefore cut the two backends at slightly different prefixes; resuming
any backend to saturation always lands on the identical fixpoint.  Rules whose positive body contains a non-ground
function term (a pattern like ``p(f(X))`` that must destructure a Skolem term)
fall back to the tuple matcher for that rule only — columns are opaque ids, so
structural matching stays in term space.

``engine="sqlite"`` executes the same compiled plans as SQL against an
in-memory :mod:`sqlite3` database (one table per predicate, one delta table
per round) instead of the pure-Python dict-of-tuples join.  Both engines share
interning, emission, and budgets; sqlite trades per-row Python overhead for
query-planner generality and is gated so environments without the stdlib
module still import cleanly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..exceptions import GroundingError
from ..lang.atoms import Atom
from ..lang.program import NormalProgram
from ..lang.rules import NormalRule
from ..lang.terms import FunctionTerm, Term, Variable, is_ground_term
from .grounding import (
    GroundProgram,
    PredicateIndex,
    SemiNaiveGrounder,
    _delta_rule_instances,
    ground_rule_instances,
)

try:  # pragma: no cover - stdlib, present on every supported build
    import sqlite3

    _HAS_SQLITE = True
except ImportError:  # pragma: no cover
    sqlite3 = None  # type: ignore[assignment]
    _HAS_SQLITE = False

__all__ = [
    "BACKENDS",
    "ColumnarGrounder",
    "make_grounder",
]

#: Accepted values for every ``backend=`` knob in the stack.
BACKENDS = ("tuple", "columnar", "sqlite")


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
    semantics — only the inner loop differs.  ``engine`` selects the join
    executor: ``"dict"`` (pure-Python hash joins) or ``"sqlite"`` (the same
    plans as SQL over an in-memory database).
    """

    def __init__(
        self,
        program: NormalProgram | Iterable[NormalRule],
        extra_atoms: Iterable[Atom] = (),
        *,
        engine: str = "dict",
    ):
        if engine not in ("dict", "sqlite"):
            raise ValueError(f"unknown columnar engine {engine!r}")
        if engine == "sqlite" and not _HAS_SQLITE:
            raise GroundingError(
                "backend 'sqlite' requires the stdlib sqlite3 module, "
                "which is unavailable in this interpreter"
            )
        self.engine = engine
        self.ground = GroundProgram()
        self.index = PredicateIndex()
        self.rounds = 0
        self._delta_start = 0

        # -- interning ---------------------------------------------------------
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._relations: dict[tuple[str, int], _Relation] = {}

        # -- pending delta -----------------------------------------------------
        self._delta: list[Atom] = []
        self._delta_rows: dict[tuple[str, int], list[tuple[int, ...]]] = {}

        self._compiled: list[_CompiledRule] = []
        self._has_fallback = False

        # -- sqlite state ------------------------------------------------------
        self._conn = None
        self._predicate_ids: dict[tuple[str, int], int] = {}
        self._sql_tables: set[str] = set()
        self._sql_cache: dict[tuple[int, int], tuple[str, int]] = {}
        self._pending_sql_rows: dict[tuple[str, int], list[tuple[int, ...]]] = {}
        self._dirty_delta_tables: set[str] = set()
        if engine == "sqlite":
            self._conn = sqlite3.connect(":memory:")

        for atom in extra_atoms:
            self._seed(atom)
        once_rules: list[NormalRule] = []
        for rule in program:
            if rule.is_fact() and rule.is_ground():
                self.ground.add(rule)
                self._seed(rule.head)
            elif not rule.is_fact():
                if rule.body_pos:
                    compiled = _CompiledRule(rule)
                    if compiled.fallback:
                        self._has_fallback = True
                    else:
                        self._compile(compiled)
                    self._compiled.append(compiled)
                else:
                    once_rules.append(rule)

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
            raise GroundingError(
                f"columnar grounding only accepts ground candidate atoms, got {atom}"
            )
        row = tuple(self._intern_term(arg) for arg in atom.args)
        self._relation(atom.predicate, len(atom.args)).add(row, atom)
        key = (atom.predicate, len(atom.args))
        self._delta.append(atom)
        self._delta_rows.setdefault(key, []).append(row)
        if self.engine == "sqlite":
            self._pending_sql_rows.setdefault(key, []).append(row or (0,))

    # -- fact-level deltas (materialized-view maintenance seam) ----------------

    def add_fact(self, atom: Atom) -> None:
        """Add a ground EDB fact: store its fact rule and stage it as delta.

        Mirrors :meth:`SemiNaiveGrounder.add_fact` — the next :meth:`run`
        executes only the join plans the new row can drive.
        """
        if not atom.is_ground():
            raise GroundingError(f"facts must be ground, got {atom}")
        self.ground.add(NormalRule(atom))
        self._seed(atom)

    def retract_fact(self, atom: Atom) -> bool:
        """Drop *atom* from the candidate state; return whether it was present.

        The row leaves the predicate's relation (and every built hash index,
        and the sqlite full/pending tables), so future delta joins no longer
        see it.  Stored ground instances are untouched — activity is the view
        layer's job — and the caller must only retract atoms that are no
        longer derivable, re-entering them via :meth:`reseed` if rederived.
        """
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
        if self.engine == "sqlite":
            sql_row = row or (0,)
            pending = self._pending_sql_rows.get(key)
            removed_pending = False
            if pending is not None:
                try:
                    pending.remove(sql_row)
                    removed_pending = True
                except ValueError:
                    pass
            if not removed_pending:
                table = f"r{self._predicate_id(*key)}"
                if table in self._sql_tables:
                    condition = " AND ".join(
                        f"c{i} = ?" for i in range(len(sql_row))
                    )
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE {condition}", sql_row
                    )
        return True

    def reseed(self, atom: Atom) -> None:
        """Re-enter a previously retracted atom into the candidate state."""
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
        return not self._delta

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
        while self._delta:
            if max_rounds is not None and self.rounds + 1 > max_rounds:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding did not converge within {max_rounds} rounds "
                        "(the program probably has function symbols); use a budget or the chase engine"
                    )
                return False
            self.rounds += 1
            delta_atoms = self._delta
            delta_rows = self._delta_rows
            self._delta = []
            self._delta_rows = {}
            if self.engine == "sqlite":
                self._sqlite_begin_round(delta_rows)
            fallback_index = (
                PredicateIndex(delta_atoms) if self._has_fallback else None
            )
            for rule_id, compiled in enumerate(self._compiled):
                if compiled.fallback:
                    # snapshot before seeding: the candidate buckets are
                    # insertion-ordered dicts and must not grow mid-scan
                    for instance in list(
                        _delta_rule_instances(
                            compiled.rule, self.index, fallback_index
                        )
                    ):
                        if instance not in self.ground:
                            self.ground.add(instance)
                            self._seed(instance.head)
                else:
                    self._delta_step(rule_id, compiled, delta_rows)
            if max_atoms is not None and len(self.index) > max_atoms:
                if raise_on_budget:
                    raise GroundingError(
                        f"relevant grounding exceeded the atom budget of {max_atoms}"
                    )
                return False
        return True

    def _delta_step(
        self,
        rule_id: int,
        compiled: _CompiledRule,
        delta_rows: dict[tuple[str, int], list[tuple[int, ...]]],
    ) -> None:
        """Run the rule's delta-position plans and emit new instances.

        A binding of the round needs some body atom in the delta.  When a
        position's relation holds nothing but this round's delta rows
        (``len(R_j) == len(Δ_j)``; delta rows are distinct members of their
        relation), *every* binding has its j-th atom in ``Δ_j``, so plan j
        alone enumerates them all.  The smallest such plan then drives the
        round by itself, and an empty one proves the rule has no binding at
        all.  The relations are read before any emission of this rule, and
        under sqlite they may only hold extra rows that the full tables do not
        show yet, so the test is sound for both engines.  It only runs for a
        rule the delta touches whose body has more than one atom: the common
        untouched rule costs one lookup per position, as without it.
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
            if self.engine == "sqlite":
                self._run_plan_sqlite(rule_id, position, compiled, plan, bindings)
            else:
                self._run_plan_dict(plan, rows, compiled.nvars, bindings)
        if bindings:
            self._emit(compiled, bindings)

    def _run_plan_dict(
        self,
        plan: _Plan,
        rows: list[tuple[int, ...]],
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
        """Batched diff against already-emitted instances, then materialise."""
        emitted = compiled.emitted
        ground = self.ground
        head_builder = compiled.head_builder
        neg_builders = compiled.neg_builders
        body_builders = compiled.body_builders
        for binding in bindings:
            if binding in emitted:
                continue
            emitted.add(binding)
            body: list[Atom] = []
            for relation, sources in body_builders:
                row = tuple(
                    value if is_const else binding[value] for is_const, value in sources
                )
                body.append(relation.atom_of[row])
            instance = NormalRule(
                head_builder(binding),
                tuple(body),
                tuple(build(binding) for build in neg_builders),
            )
            if instance not in ground:
                ground.add(instance)
                self._seed(instance.head)

    # -- sqlite execution ------------------------------------------------------

    def _sqlite_table(self, predicate: str, arity: int, *, delta: bool) -> str:
        """The (created-on-demand) table name for one predicate's rows."""
        prefix = "d" if delta else "r"
        name = f"{prefix}{self._predicate_id(predicate, arity)}"
        if name not in self._sql_tables:
            columns = ", ".join(f"c{i} INTEGER" for i in range(max(arity, 1)))
            self._conn.execute(f"CREATE TABLE {name} ({columns})")
            self._sql_tables.add(name)
        return name

    def _predicate_id(self, predicate: str, arity: int) -> int:
        ids = self._predicate_ids
        pid = ids.get((predicate, arity))
        if pid is None:
            pid = len(ids)
            ids[(predicate, arity)] = pid
        return pid

    def _sqlite_begin_round(self, delta_rows: dict[tuple[str, int], list[tuple[int, ...]]]) -> None:
        """Flush pending full-table inserts and load this round's delta tables."""
        conn = self._conn
        for table in self._dirty_delta_tables:
            conn.execute(f"DELETE FROM {table}")
        self._dirty_delta_tables.clear()
        pending = self._pending_sql_rows
        self._pending_sql_rows = {}
        for (predicate, arity), rows in pending.items():
            table = self._sqlite_table(predicate, arity, delta=False)
            marks = ", ".join("?" for _ in range(max(arity, 1)))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        for (predicate, arity), rows in delta_rows.items():
            table = self._sqlite_table(predicate, arity, delta=True)
            marks = ", ".join("?" for _ in range(max(arity, 1)))
            conn.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [row or (0,) for row in rows],
            )
            self._dirty_delta_tables.add(table)

    def _sqlite_query(self, rule_id: int, position: int, compiled: _CompiledRule) -> tuple[str, int]:
        """The cached SELECT computing the plan's variable bindings."""
        cached = self._sql_cache.get((rule_id, position))
        if cached is not None:
            return cached
        rule = compiled.rule
        body = list(rule.body_pos)
        slots: dict[Variable, int] = {}
        for atom in body:
            for arg in atom.args:
                if isinstance(arg, Variable) and arg not in slots:
                    slots[arg] = len(slots)
        tables: list[str] = []
        conditions: list[str] = []
        defined: dict[Variable, str] = {}
        # the delta atom is scanned first so every plan is delta-driven
        order = [position] + [i for i in range(len(body)) if i != position]
        for alias, body_position in enumerate(order):
            atom = body[body_position]
            arity = len(atom.args)
            table = self._sqlite_table(
                atom.predicate, arity, delta=body_position == position
            )
            tables.append(f"{table} t{alias}")
            for column, arg in enumerate(atom.args):
                reference = f"t{alias}.c{column}"
                if isinstance(arg, Variable):
                    if arg in defined:
                        conditions.append(f"{reference} = {defined[arg]}")
                    else:
                        defined[arg] = reference
                else:
                    conditions.append(f"{reference} = {self._intern_term(arg)}")
        selected = [defined[v] for v, _ in sorted(slots.items(), key=lambda kv: kv[1])]
        select = ", ".join(selected) if selected else "1"
        sql = f"SELECT {select} FROM {', '.join(tables)}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        result = (sql, len(selected))
        self._sql_cache[(rule_id, position)] = result
        return result

    def _run_plan_sqlite(
        self,
        rule_id: int,
        position: int,
        compiled: _CompiledRule,
        plan: _Plan,
        results: list[tuple[int, ...]],
    ) -> None:
        sql, width = self._sqlite_query(rule_id, position, compiled)
        for row in self._conn.execute(sql):
            results.append(tuple(row) if width else ())


def make_grounder(
    program: NormalProgram | Iterable[NormalRule],
    extra_atoms: Iterable[Atom] = (),
    *,
    backend: str = "tuple",
):
    """Construct the grounding backend selected by *backend*.

    ``"tuple"`` is the per-candidate :class:`SemiNaiveGrounder` — the
    differential oracle every other backend is pinned against; ``"columnar"``
    the pure-Python hash-join :class:`ColumnarGrounder`; ``"sqlite"`` the same
    plans executed by an in-memory sqlite database.
    """
    if backend == "tuple":
        return SemiNaiveGrounder(program, extra_atoms)
    if backend == "columnar":
        return ColumnarGrounder(program, extra_atoms, engine="dict")
    if backend == "sqlite":
        return ColumnarGrounder(program, extra_atoms, engine="sqlite")
    raise ValueError(f"unknown grounding backend {backend!r}; expected one of {BACKENDS}")
