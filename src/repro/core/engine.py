"""The well-founded semantics for guarded normal Datalog± under the UNA.

This is the paper's central object (Definition 3): for a guarded normal
Datalog± program Σ and a database D,

    WFS(D, Σ)  :=  WFS(D ∪ Σ^f)

where Σ^f is the functional (Skolem) transformation of Σ.  The program
``P = D ∪ Σ^f`` has an infinite grounding as soon as Σ has existential rules,
so ``WFS(P)`` cannot be computed by the finite-program machinery directly.
The paper shows (via forward proofs, locality and the δ bound of Prop. 12)
that NBCQ answering only ever needs a *finite initial segment* of the guarded
chase forest ``F⁺(P)``.

:class:`WellFoundedEngine` turns that result into a practical procedure:

1. Skolemise Σ and expand the guarded chase forest of ``D ∪ Σ^f`` up to a
   depth bound (the chase only ever uses the positive parts of rules, exactly
   as in the construction of ``F⁺(P)``).
2. Collect the ground rules labelling the edges of the segment together with
   the database facts; this is precisely the set of instances of
   ``ground(P)`` whose guard and positive body lie inside the segment.
3. Compute the exact WFS of this finite ground program with the classical
   unfounded-set construction (:mod:`repro.lp.wfs`).  Atoms that label no
   node of the segment have no forward proof there and are treated as false.
4. **Iterative deepening**: repeat with a larger depth until the approximation
   is stable — every frontier node's type already occurred at a smaller
   depth (the locality argument of Lemma 11: the subtree below a node is
   determined by its type) *and* the truth values over the previous segment
   did not change.  The theoretical bound ``n·δ`` of Prop. 12 guarantees that
   a stable depth exists; the type-repetition test finds it early.

That procedure is the *chase plan*.  When the static analysis certifies that
the Skolem chase of ``Σ^f`` terminates (a criterion of the acyclicity
hierarchy in :mod:`repro.analysis.termination` accepts it), the relevant
grounding of ``D ∪ Σ^f`` is finite and its WFS *is* Definition 3, so the
engine's default *finite plan* grounds it once under the node budget and
solves it, with no chase forest, deepening or stabilisation test.  A
grounding that outgrows the budget falls back to the chase plan, so an
unsound verdict costs time, never a wrong answer.

The result is wrapped in :class:`DatalogWellFoundedModel`, which implements
the three-valued protocol used by NBCQ evaluation.
"""

from __future__ import annotations

import time
import weakref
from functools import cached_property
from typing import Callable, Iterable, Optional, TypeVar, Union

from ..exceptions import ConvergenceError
from ..lang.atoms import Atom, Literal
from ..lang.program import Database, DatalogPMProgram
from ..lang.queries import (
    ConjunctiveQuery,
    NormalBCQ,
    ThreeValuedLike,
    as_conjunctive_query,
    evaluate_query,
    query_holds,
    query_literals,
)
from ..lang.rules import NormalRule
from ..lang.skolem import skolemize_program
from ..lang.parser import parse_database, parse_program, parse_query
from ..lang.terms import Constant, Term
from ..chase.engine import GuardedChaseEngine, check_saturation
from ..chase.forest import ChaseForest
from ..chase.types import AtomType
from ..lp.columnar import BACKENDS, make_grounder
from ..lp.grounding import GroundProgram
from ..lp.interpretation import TruthValue
from ..lp.wfs import (
    IncrementalWFS,
    WellFoundedModel,
    well_founded_model,
    well_founded_model_incremental,
)
from ..rewrite.magic import ground_magic, rewrite_for_query
from .locality import delta_bound, query_depth_bound

__all__ = ["DatalogWellFoundedModel", "WellFoundedEngine"]


class DatalogWellFoundedModel:
    """The (finite-segment approximation of the) well-founded model WFS(D, Σ).

    Wraps the exact WFS of the ground program extracted from a chase segment,
    together with the segment itself.  Implements the three-valued protocol:

    * :meth:`is_true` — the atom is well-founded;
    * :meth:`is_false` — the atom is unfounded; atoms that label no node of
      the segment are false (they have no forward proof there);
    * :meth:`is_undefined` — neither.

    ``converged`` records whether the engine's stabilisation test succeeded
    within its depth budget; when it is ``False`` the model is still a sound
    under-approximation of the positive part but negative/undefined values
    near the frontier may still change with deeper expansion.

    On the engine's finite plan the model is the exact WFS of the whole
    finite grounding: ``depth`` is ``None`` (there is no chase depth),
    ``converged`` is ``True``, the "segment" is the grounding's atom set, and
    ``forest`` is a zero-argument callable that runs the chase plan when
    :meth:`forest` is first called.
    """

    def __init__(
        self,
        lp_model: WellFoundedModel,
        forest: Union[ChaseForest, Callable[[], ChaseForest]],
        *,
        depth: Optional[int],
        converged: bool,
        iterations: int,
        atoms: Optional[frozenset[Atom]] = None,
    ):
        self._lp_model = lp_model
        self._forest = forest
        # Snapshot of the segment's labels at construction time: the engine's
        # iterative deepening keeps growing the underlying forest object, and
        # the stabilisation test compares models taken at different depths, so
        # each model must remember which atoms *its* segment contained.
        self._labels = forest.labels() if atoms is None else atoms
        self.depth = depth
        self.converged = converged
        self.iterations = iterations

    # -- three-valued protocol ----------------------------------------------------

    def is_true(self, atom: Atom) -> bool:
        """Is the ground atom well-founded (true in WFS(D, Σ))?"""
        return self._lp_model.is_true(atom)

    def is_false(self, atom: Atom) -> bool:
        """Is the ground atom unfounded (false in WFS(D, Σ))?

        Atoms that label no node of the chase segment have no forward proof
        and are reported false, matching the paper's characterisation that
        atoms outside ``F⁺(P)`` are certainly false.
        """
        if self._lp_model.is_true(atom):
            return False
        if self._lp_model.is_false(atom):
            return True
        return atom not in self._labels

    def is_undefined(self, atom: Atom) -> bool:
        """Does the atom carry the third truth value?"""
        return not self.is_true(atom) and not self.is_false(atom)

    def value(self, atom: Atom) -> str:
        """The :class:`~repro.lp.interpretation.TruthValue` of the atom."""
        if self.is_true(atom):
            return TruthValue.TRUE
        if self.is_false(atom):
            return TruthValue.FALSE
        return TruthValue.UNDEFINED

    def holds(self, literal: Literal) -> bool:
        """Is the ground literal a consequence under the WFS?"""
        if literal.positive:
            return self.is_true(literal.atom)
        return self.is_false(literal.atom)

    # -- views ----------------------------------------------------------------------

    def true_atoms(self) -> frozenset[Atom]:
        """The well-founded atoms of the materialised segment."""
        return self._lp_model.true_atoms()

    def false_atoms(self) -> frozenset[Atom]:
        """The unfounded atoms occurring in the materialised segment."""
        return self._lp_model.false_atoms()

    def undefined_atoms(self) -> frozenset[Atom]:
        """The undefined atoms of the materialised segment."""
        return self._lp_model.undefined_atoms()

    def literals(self) -> list[Literal]:
        """All defined literals over the materialised segment."""
        return list(self._lp_model.literals())

    def segment_atoms(self) -> frozenset[Atom]:
        """All atoms labelling nodes of the segment this model was computed on."""
        return self._labels

    def forest(self) -> ChaseForest:
        """The materialised chase segment the model was computed on.

        On the finite plan the first call runs the engine's chase plan and
        returns its converged segment.
        """
        if not isinstance(self._forest, ChaseForest):
            self._forest = self._forest()
        return self._forest

    def __repr__(self) -> str:
        return (
            f"DatalogWellFoundedModel(depth={self.depth}, converged={self.converged}, "
            f"{len(self.true_atoms())} true, {len(self.false_atoms())} false, "
            f"{len(self.undefined_atoms())} undefined)"
        )


_T = TypeVar("_T")


class WellFoundedEngine:
    """Computes WFS(D, Σ) and answers NBCQs over it (Definition 3, Theorems 13/14).

    :meth:`model` picks one of two plans.  The *finite plan* is taken when
    :meth:`analysis` certifies that the Skolem chase terminates
    (``verdicts["chase_terminates"]``) and ``saturation`` is ``"agenda"``:
    the relevant grounding of ``D ∪ Σ^f`` is built once with the ``backend``
    grounder under the ``max_nodes`` budget (counted in atoms) and solved
    with :func:`~repro.lp.wfs.well_founded_model`.  Otherwise, or when that
    grounding does not saturate within the budget, the *chase plan* deepens
    the guarded chase forest until the stabilisation test fires.  The
    options ``initial_depth``, ``depth_step``, ``max_depth``, ``strict``,
    ``agenda_order`` and ``incremental`` only affect the chase plan, which
    a finite-plan model also runs the first time its
    :meth:`~DatalogWellFoundedModel.forest` is requested.

    A ``rewrite=True`` query is planned afresh on every call and answered
    from the WFS of its magic-restricted grounding.  Outside the magic
    fragment, or when that grounding does not saturate within ``max_nodes``
    atoms, it is answered from :meth:`model`, as with ``rewrite=False``.

    An engine is not thread-safe: its chase and model are built on first
    use.  Give each thread its own engine, or serialise the calls under a
    lock of your own.

    Parameters
    ----------
    program:
        A guarded normal Datalog± program, or program text to parse (facts in
        the text are added to the database).  An unguarded program raises
        :class:`~repro.exceptions.NotGuardedError`: the stabilisation test
        rests on Lemma 11, which needs guarded rules.  Terminating unguarded
        programs are served by :class:`repro.views.MaterializedEngine`.
    database:
        The database D (a :class:`Database`, an iterable of ground atoms, or
        text to parse).
    initial_depth, depth_step, max_depth:
        Iterative-deepening schedule for the chase segment.  ``max_depth``
        bounds the total work; if the stabilisation test has not fired by
        then, the engine either raises :class:`ConvergenceError` (``strict=True``)
        or returns the last approximation flagged ``converged=False``.
        ``depth_step`` must be at least 1 and ``max_depth`` at least
        ``initial_depth`` (``ValueError`` otherwise).
    max_nodes:
        Budget on the number of chase nodes materialised, and on the number
        of atoms of the finite plan's and the magic path's groundings.
    strict:
        Whether failing to stabilise raises instead of returning a flagged model.
    rewrite:
        Default for the ``rewrite=`` option of :meth:`holds` / :meth:`answer`:
        answer queries goal-directedly via the magic-sets rewriting of
        :mod:`repro.rewrite`, falling back to :meth:`model` where the
        rewriting does not apply (see above).
    segment_cache:
        Accepts only ``False``; anything else raises ``TypeError``.  The
        chase-segment cache it switched on was removed.  The keyword stays
        because the end-to-end benchmark's cold-answer oracle still passes
        it.
    saturation:
        Chase saturation discipline: ``"agenda"`` (default) drains the
        incremental worklist of :class:`~repro.chase.engine.GuardedChaseEngine`;
        ``"scan"`` runs the retained breadth-first re-scan rounds.  Both build
        bit-identical forests and models — ``"scan"`` exists as the
        differential-testing reference and benchmark baseline, so it always
        runs the chase plan: the paper's construction of ``F⁺(P)`` stays the
        reference the finite plan is checked against.
    agenda_order:
        Optional agenda scheduling hook (testing), forwarded to the chase
        engine; see :class:`~repro.chase.engine.GuardedChaseEngine`.
    incremental:
        Re-solve the well-founded model *incrementally* across the
        iterative-deepening schedule (default on): the dependency condensation
        of the growing ground program is maintained under rule insertion
        (:class:`~repro.lp.fixpoint.IncrementalCondensation`) and only the
        components the depth step's delta touched are re-solved, every other
        component keeping its value in the previous depth's model
        (:class:`~repro.lp.wfs.IncrementalWFS`).  ``incremental=False`` runs
        the from-scratch SCC-modular computation at every depth — the
        differential oracle the incremental test suites compare against.
        Models and answers are bit-identical either way.
    backend:
        Grounding backend for the finite plan and the magic-sets query path:
        ``"columnar"``
        (default; :class:`~repro.lp.columnar.ColumnarGrounder` — bulk hash
        joins over interned int columns), ``"tuple"`` (the per-candidate
        :class:`~repro.lp.grounding.SemiNaiveGrounder`, retained verbatim as
        the differential oracle; its nested-loop joins rescan whole predicate
        buckets and erase most of the rewriting's wall-clock win on join-heavy
        workloads — see ``docs/performance.md``).  Reported in
        :attr:`last_query_stats`; ground programs, models and answers are
        identical across backends.  While the database is unchanged, the
        columnar magic path grounds from the
        :class:`~repro.lp.columnar.EDBSnapshot` the database caches per
        version instead of seeding its facts, so fresh engines over one
        database share its interned relations and hash indexes; the tuple
        backend always seeds the facts one by one.
    """

    def __init__(
        self,
        program: Union[DatalogPMProgram, str],
        database: Union[Database, Iterable[Atom], str, None] = None,
        *,
        initial_depth: int = 3,
        depth_step: int = 2,
        max_depth: int = 31,
        max_nodes: int = 500_000,
        strict: bool = False,
        rewrite: bool = False,
        segment_cache: bool = False,
        saturation: str = "agenda",
        agenda_order=None,
        incremental: bool = True,
        backend: str = "columnar",
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown grounding backend {backend!r}; expected one of {BACKENDS}"
            )
        check_saturation(saturation)
        if segment_cache is not False:
            raise TypeError(
                f"segment_cache={segment_cache!r}: the chase-segment cache was "
                "removed, and only segment_cache=False is accepted"
            )
        if depth_step < 1:
            # a step of 0 (or less) would compare a forest with itself and
            # report convergence the stabilisation test never checked
            raise ValueError(f"depth_step must be at least 1, got {depth_step}")
        if max_depth < initial_depth:
            # an empty deepening schedule has no model to report
            raise ValueError(
                f"max_depth ({max_depth}) is smaller than initial_depth ({initial_depth})"
            )
        if isinstance(program, str):
            program, parsed_facts = parse_program(program)
        else:
            parsed_facts = None

        if database is None:
            database = Database()
        elif isinstance(database, str):
            database = parse_database(database)
        elif not isinstance(database, Database):
            database = Database(database)
        if parsed_facts is not None:
            database = database.copy()
            database.update(parsed_facts)

        program.require_guarded()

        self.program = program
        self.database = database
        #: the database's mutation version at snapshot time; the engine's
        #: chase/model state is valid exactly while this matches (see
        #: :meth:`is_stale`)
        self._database_version = database.version
        self.skolemized = skolemize_program(program)
        self.initial_depth = initial_depth
        self.depth_step = depth_step
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.strict = strict
        self.rewrite = rewrite
        self.saturation = saturation
        self.agenda_order = agenda_order
        self.incremental = incremental
        self.backend = backend
        #: statistics of the most recent ``holds``/``answer`` call (see
        #: :meth:`_query_model`); ``None`` until a query has been answered
        self.last_query_stats: Optional[dict] = None
        # Static-analysis report over (program, database), computed lazily by
        # :meth:`analysis` — its verdicts surface in every query's stats and
        # justify the planner decisions (magic eligibility, run-and-check).
        self._analysis_report = None

        # The facts as they were at construction time: the chase, the finite
        # plan, the magic path and the analysis all read this snapshot
        # (the magic path and the analysis read the database itself while it
        # is unchanged, see _read_facts()),
        # so one engine answers from one database whatever happens to it
        # later.  The chase is built on first use (see :attr:`_chase`): a
        # supported magic query never needs it.
        self._facts = tuple(database)
        # The model queries are answered from, and the chase plan's model
        # (the same object unless the finite plan answered; see model()).
        self._model: Optional[DatalogWellFoundedModel] = None
        self._chase_plan_model: Optional[DatalogWellFoundedModel] = None
        # The finite plan's ground program, and why the plan was given up
        # (None while it was not tried or saturated within the budget).
        self._finite_ground: Optional[GroundProgram] = None
        self._fallback_reason: Optional[str] = None
        # The ground program induced by the chase segment, grown incrementally
        # across iterative-deepening rounds: the forest is append-only, so each
        # round only feeds the nodes added since the previous depth into the
        # (also incrementally maintained) ground program and its rule index.
        self._ground = GroundProgram()
        self._ground_consumed = 0
        # Incremental WFS solver threaded through the deepening schedule: it
        # keeps the previous depth's model and re-solves only the components
        # the depth step's delta touched (None when disabled).
        self._wfs_state: Optional[IncrementalWFS] = None

    @cached_property
    def _chase(self) -> GuardedChaseEngine:
        """The guarded chase of ``D ∪ Σ^f`` over the construction-time facts.

        Built lazily: the chase plan (:meth:`_chase_model`) reaches it
        through this attribute, while a query answered by the finite plan or
        the magic-sets path never does.
        """
        return GuardedChaseEngine(
            self.skolemized,
            self._facts,
            max_nodes=self.max_nodes,
            saturation=self.saturation,
            agenda_order=self.agenda_order,
        )

    # -- public API --------------------------------------------------------------------

    def is_stale(self) -> bool:
        """``True`` iff :attr:`database` mutated after this engine snapshot it.

        The engine's chase forest, ground program and cached model are all
        derived from the database as it was at construction time; a caller
        that mutates the database afterwards must build a new engine or use
        :class:`repro.views.MaterializedEngine`, which maintains its state
        under fact insertion/retraction instead of recomputing.
        """
        return self.database.version != self._database_version

    def analysis(self):
        """The static-analysis report of (program, database), computed lazily.

        One :func:`repro.analysis.analyze` pass per engine: lint findings,
        the dependency/stratification analysis and the acyclicity-hierarchy
        verdict that justifies the magic/materialization planning.  A compact
        slice of it is attached to every query's
        ``last_query_stats["analysis"]``.
        """
        if self._analysis_report is None:
            from ..analysis.planner import analyze

            self._analysis_report = self._read_facts(
                lambda facts: analyze(self.program, facts)
            )
        return self._analysis_report

    def _read_facts(self, read: Callable[[Union[Database, tuple[Atom, ...]]], _T]) -> _T:
        """``read`` applied to the construction-time facts.

        It reads the database itself while it is unchanged (:meth:`is_stale`
        is false), so the signature and columnar snapshot the database
        caches per version serve every engine over it, and the facts copied
        at construction once it has changed.  The staleness test is repeated
        after the read: a mutation on another thread that lands during it
        (an engine is not thread-safe, but its database may be shared) sends
        the read to the copy as well.
        """
        if not self.is_stale():
            result = read(self.database)
            if not self.is_stale():
                return result
        return read(self._facts)

    def _analysis_summary(self) -> dict:
        """The stats-facing slice of :meth:`analysis` (cheap to copy)."""
        report = self.analysis()
        verdicts = report.verdicts
        return {
            "termination": verdicts.get("termination_criterion"),
            "chase_terminates": verdicts.get("chase_terminates"),
            "stratified": verdicts.get("stratified"),
            "guarded": verdicts.get("guarded"),
            "magic_eligible": verdicts.get("plan", {}).get("magic_eligible"),
            "run_and_check": verdicts.get("plan", {}).get("run_and_check"),
            "errors": len(report.errors()),
            "warnings": len(report.warnings()),
        }

    def model(self) -> DatalogWellFoundedModel:
        """The well-founded model WFS(D, Σ) (computed on first use, then cached).

        Certified-terminating programs take the finite plan (see the class
        docstring); everything else, and a finite grounding that outgrows
        ``max_nodes`` atoms, takes the chase plan.

        A :class:`~repro.exceptions.GroundingError` from an exhausted chase
        node budget is **sticky but resumable**: a retried ``model()`` call
        first finishes the interrupted saturation pass, so it re-raises while
        the budget is unchanged (it can never silently report a partially
        expanded forest as ``converged=True``) and succeeds — resuming from
        the partial forest instead of restarting — once the budget is raised
        (``engine.max_nodes`` / the chase engine's ``max_nodes``).
        """
        if self._model is None:
            finite = None
            if self.saturation == "agenda" and self.analysis().verdicts.get(
                "chase_terminates"
            ):
                finite = self._finite_model()
            self._model = finite if finite is not None else self._chase_model()
        return self._model

    def holds(
        self,
        query: Union[NormalBCQ, str, Literal, Atom],
        *,
        rewrite: Optional[bool] = None,
    ) -> bool:
        """Does the NBCQ / literal / ground atom hold in WFS(D, Σ)?

        Strings are parsed as NBCQs (``"? p(X), not q(X)"``).  Ground atoms
        are treated as atomic queries; literals additionally allow asking for
        falsity (``not a`` holds iff ``a`` is unfounded).

        ``rewrite=True`` answers the query goal-directedly through the
        magic-sets rewriting (``None`` defers to the engine's ``rewrite``
        default); answers are identical either way.
        """
        if isinstance(query, str):
            query = parse_query(query)
        model = self._query_model(query_literals(query), rewrite)
        if isinstance(query, Atom):
            return model.is_true(query)
        if isinstance(query, Literal):
            return model.holds(query)
        return query_holds(query, model)

    def answer(
        self,
        query: Union[NormalBCQ, ConjunctiveQuery, str],
        *,
        constants_only: bool = True,
        rewrite: Optional[bool] = None,
    ) -> set[tuple[Term, ...]]:
        """Answers to a (non-Boolean) conjunctive query over the well-founded model.

        Following the paper's definition of CQ answers, answer tuples range
        over constants; set ``constants_only=False`` to also see tuples
        containing labelled nulls (Skolem terms).  ``rewrite`` behaves as in
        :meth:`holds`.  An NBCQ (or text) without negation is read as a
        conjunctive query over all its variables; one with negation raises
        :class:`~repro.exceptions.IllFormedRuleError`.
        """
        if isinstance(query, str):
            query = parse_query(query)
        query = as_conjunctive_query(query)
        model = self._query_model(query_literals(query), rewrite)
        answers = evaluate_query(query, model)
        if constants_only:
            answers = {
                tup for tup in answers if all(isinstance(t, Constant) for t in tup)
            }
        return answers

    def literal_value(self, atom: Atom) -> str:
        """The truth value of a ground atom in WFS(D, Σ)."""
        return self.model().value(atom)

    def ground_program(self) -> GroundProgram:
        """The ground program :meth:`model` was solved on (computing it if needed).

        The finite grounding of ``D ∪ Σ^f`` on the finite plan, the converged
        chase segment's program on the chase plan.
        """
        self.model()
        return self._finite_ground if self._finite_ground is not None else self._ground

    # -- goal-directed (magic-sets) query path ------------------------------------------

    def _query_model(
        self, literals: tuple[Literal, ...], rewrite: Optional[bool]
    ) -> ThreeValuedLike:
        """The three-valued model a query should be evaluated against.

        With rewriting enabled this is the WFS of the magic-restricted
        grounding, exact on every query-relevant atom.  Otherwise, and when
        the rewriting does not apply, it is the engine's own :meth:`model`;
        a rewritten query that fell back says why in ``rewrite_fallback``.
        Either way the statistics of the decision are recorded in
        :attr:`last_query_stats`.
        """
        started = time.perf_counter()
        use_rewrite = self.rewrite if rewrite is None else rewrite
        rewrite_fallback = None
        if use_rewrite:
            plan = rewrite_for_query(self.skolemized.rules(), literals)
            rewrite_fallback = plan.reason
            if plan.supported:
                grounding = self._read_facts(
                    lambda facts: ground_magic(
                        plan, facts, max_atoms=self.max_nodes, backend=self.backend
                    )
                )
                if grounding.saturated:
                    model = well_founded_model(grounding.ground)
                    self.last_query_stats = {
                        "mode": "magic",
                        "backend": self.backend,
                        "cache_hit": False,
                        "termination_criterion": plan.termination_criterion,
                        "analysis": self._analysis_summary(),
                        "relevant_predicates": len(plan.relevant_predicates()),
                        "adorned_predicates": len(plan.adorned.reachable),
                        "folded_adornments": plan.folded_adornments,
                        "magic_rules": plan.magic_rule_count,
                        "seconds": time.perf_counter() - started,
                        **grounding.stats(),
                    }
                    return model
                rewrite_fallback = (
                    f"magic grounding exceeded the atom budget of {self.max_nodes} "
                    "without saturating"
                )

        cache_hit = self._model is not None
        model = self.model()
        if self._finite_ground is not None:
            stats = {
                "mode": "finite",
                "termination_criterion": self.analysis().verdicts[
                    "termination_criterion"
                ],
                "ground_rules": len(self._finite_ground),
            }
        else:
            stats = {
                "mode": "classic",
                "ground_rules": len(self._ground),
                "chase_nodes": len(self._chase.forest),
                "depth": model.depth,
                "converged": model.converged,
                # always 0 since the segment cache was removed; kept
                # because traced end-to-end runs still read it
                "nodes_spliced": 0,
                "incremental": self.incremental,
            }
            if self._fallback_reason is not None:
                stats["fallback_reason"] = self._fallback_reason
        if rewrite_fallback is not None:
            stats["rewrite_fallback"] = rewrite_fallback
        self.last_query_stats = {
            **stats,
            "backend": self.backend,
            "cache_hit": cache_hit,
            "rounds": model.iterations or 0,
            "seconds": time.perf_counter() - started,
            "analysis": self._analysis_summary(),
        }
        return model

    def chase_forest(self) -> ChaseForest:
        """The materialised chase segment used by the current model."""
        return self.model().forest()

    def delta(self) -> int:
        """The theoretical locality constant δ of Prop. 12 for this program's schema."""
        return delta_bound(self.program.schema(self._facts))

    def query_depth_bound(self, query: Union[NormalBCQ, str]) -> int:
        """The theoretical depth bound ``n·δ`` of Prop. 12 for a concrete query."""
        if isinstance(query, str):
            query = parse_query(query)
        return query_depth_bound(query, self.program.schema(self._facts))

    # -- computation -------------------------------------------------------------------

    def _finite_model(self) -> Optional[DatalogWellFoundedModel]:
        """The finite plan: WFS of the whole relevant grounding of ``D ∪ Σ^f``.

        ``None`` when the grounding does not saturate within ``max_nodes``
        atoms, so a wrong termination verdict costs the budget and then the
        chase plan, never a hang or a partial model.
        """
        grounder = make_grounder(self.skolemized, backend=self.backend)
        for atom in self._facts:
            grounder.add_fact(atom)
        if not grounder.run(max_atoms=self.max_nodes, raise_on_budget=False):
            self._fallback_reason = (
                f"finite grounding exceeded the atom budget of {self.max_nodes} "
                "without saturating"
            )
            return None
        self._fallback_reason = None
        self._finite_ground = ground = grounder.ground
        # The model reaches this engine's chase plan through a weak reference,
        # so engine and model form no reference cycle and are freed as soon
        # as they are dropped; a model that outlived its engine rebuilds an
        # equal engine for the forest.
        owner = weakref.ref(self)
        program, facts = self.program, self._facts
        # the options that shape evaluation (not query answering)
        options = dict(
            initial_depth=self.initial_depth,
            depth_step=self.depth_step,
            max_depth=self.max_depth,
            max_nodes=self.max_nodes,
            strict=self.strict,
            saturation=self.saturation,
            agenda_order=self.agenda_order,
            incremental=self.incremental,
            backend=self.backend,
        )

        def chase_forest() -> ChaseForest:
            engine = owner()
            if engine is None:
                engine = WellFoundedEngine(program, facts, **options)
            return engine._chase_model().forest()

        return DatalogWellFoundedModel(
            well_founded_model(ground),
            chase_forest,
            depth=None,
            converged=True,
            iterations=grounder.rounds,
            atoms=ground.atoms(),
        )

    def _chase_model(self) -> DatalogWellFoundedModel:
        """The chase plan's model (computed on first use, then cached).

        :meth:`model` answers from it whenever the finite plan does not; a
        finite-plan model reaches it only for its forest.
        """
        if self._chase_plan_model is None:
            self._chase_plan_model = self._compute()
        return self._chase_plan_model

    def _compute(self) -> DatalogWellFoundedModel:
        """Iterative deepening with the type-repetition stabilisation test."""
        # Budget raises on the engine reach the chase, so a retried model()
        # after a GroundingError can resume the interrupted saturation.
        self._chase.max_nodes = self.max_nodes
        previous: Optional[DatalogWellFoundedModel] = None
        previous_frontier_keys: Optional[frozenset] = None
        depth = self.initial_depth
        iterations = 0
        model: Optional[DatalogWellFoundedModel] = None

        while depth <= self.max_depth:
            iterations += 1
            self._chase.expand(depth)
            # Resuming after a budget raise: the chase may already be committed
            # to a deeper bound than this schedule step (the interrupted pass
            # finished there).  Fast-forward the schedule so consecutive
            # iterations always observe *genuinely different* depths —
            # otherwise the stabilisation test would compare the committed
            # forest to itself and report convergence without evidence.
            depth = max(depth, self._chase.depth_bound)
            lp_model = self._solve_wfs(self._ground_program())
            model = DatalogWellFoundedModel(
                lp_model,
                self._chase.forest,
                depth=depth,
                converged=False,
                iterations=iterations,
            )
            frontier_keys = self._frontier_type_keys(model)
            if previous is not None and self._stabilised(
                previous, model, previous_frontier_keys, frontier_keys
            ):
                model.converged = True
                break
            previous = model
            previous_frontier_keys = frontier_keys
            depth += self.depth_step

        # __init__ guarantees initial_depth <= max_depth, so the loop ran
        assert model is not None
        if not model.converged and self.strict:
            raise ConvergenceError(
                f"well-founded model did not stabilise within depth {self.max_depth}",
                partial_model=model,
                depth=self.max_depth,
            )
        return model

    def _solve_wfs(self, ground: GroundProgram) -> WellFoundedModel:
        """The WFS of the segment's ground program, incremental when enabled.

        The incremental solver is bound to the engine's persistent
        :class:`GroundProgram` (grown in place by :meth:`_ground_program`), so
        consecutive deepening rounds re-solve only the components the new
        ground rules touched.  The from-scratch path (``incremental=False``)
        computes the identical model cold and serves as the differential
        oracle.
        """
        if not self.incremental:
            return well_founded_model(ground)
        model, self._wfs_state = well_founded_model_incremental(ground, self._wfs_state)
        return model

    def _ground_program(self) -> GroundProgram:
        """The finite ground program induced by the materialised chase segment.

        The forest only ever grows, so instead of rebuilding the program (and
        its worklist index) from scratch at every depth, the nodes appended
        since the last call are folded into the persistent program: roots
        contribute their labels as facts, inner nodes their edge rules.
        """
        nodes = self._chase.forest.nodes()
        for node in nodes[self._ground_consumed:]:
            if node.is_root():
                self._ground.add(NormalRule(node.label))
            else:
                self._ground.add(node.edge_rule)
        self._ground_consumed = len(nodes)
        return self._ground

    def _frontier_type_keys(self, model: DatalogWellFoundedModel) -> frozenset:
        """Canonical type keys of the current frontier nodes, w.r.t. *model*.

        The type of a frontier node is the paper's ``(a, S)`` computed against
        the current approximation: the node's label together with every
        defined literal whose arguments all occur among the label's arguments,
        canonicalised up to renaming of nulls (:class:`repro.chase.types.AtomType`).
        """
        labels = {node.label for node in self._chase.frontier_nodes()}
        if not labels:
            return frozenset()

        # Index model literals by argument term so that the per-node type
        # computation only inspects literals that can possibly lie inside
        # the node's domain (instead of scanning the full model per node).
        literals_by_term: dict[Term, list[Literal]] = {}
        nullary_literals: list[Literal] = []
        for literal in model.literals():
            args = literal.atom.args
            if not args:
                nullary_literals.append(literal)
                continue
            for term in set(args):
                literals_by_term.setdefault(term, []).append(literal)

        keys = set()
        for label in labels:
            domain = set(label.args)
            candidates: set[Literal] = set(nullary_literals)
            for term in domain:
                candidates.update(literals_by_term.get(term, ()))
            selected = frozenset(
                lit for lit in candidates if set(lit.atom.args) <= domain
            )
            keys.add(AtomType(label, selected).key())
        return frozenset(keys)

    def _stabilised(
        self,
        previous: DatalogWellFoundedModel,
        current: DatalogWellFoundedModel,
        previous_frontier_keys: Optional[frozenset],
        current_frontier_keys: frozenset,
    ) -> bool:
        """The engine's convergence test.

        Two conditions, both grounded in the locality lemma (Lemma 11):

        (a) the *frontier looks the same as last round*: the set of canonical
            frontier type keys is unchanged between the previous and the
            current depth (an empty frontier — a terminating chase — counts
            as stable);
        (b) the truth values of all atoms of the previous segment are
            unchanged by the deeper expansion.

        Because isomorphic types generate isomorphic subtrees with isomorphic
        well-founded submodels, a repeating frontier together with stable
        interior values means further expansion can only add isomorphic copies
        of structure that is already accounted for.
        """
        # (b) value stability over the previous segment
        for atom in previous.segment_atoms():
            if previous.value(atom) != current.value(atom):
                return False

        # (a) frontier stability
        if not current_frontier_keys:
            return True
        if previous_frontier_keys is None:
            return False
        return current_frontier_keys == previous_frontier_keys

    def __repr__(self) -> str:
        status = "unevaluated" if self._model is None else repr(self._model)
        return f"WellFoundedEngine({len(self.program)} NTGDs, |D|={len(self._facts)}, {status})"
