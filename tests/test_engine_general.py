"""General behaviour of :class:`repro.core.engine.WellFoundedEngine` beyond the
paper's running example: input handling, coincidence with the classical LP
WFS on existential-free programs, convergence flags and options."""

from __future__ import annotations

import pytest

from repro.core.answering import answer_query
from repro.exceptions import ConvergenceError, IllFormedRuleError, NotGuardedError
from repro.lang.parser import parse_atom, parse_program, parse_query
from repro.lang.queries import as_conjunctive_query
from repro.lang.terms import Constant
from repro.lang.program import Database
from repro.lang.skolem import skolemize_program
from repro.lp.grounding import relevant_grounding
from repro.lp.wfs import well_founded_model
from repro.chase.engine import GuardedChaseEngine
from repro.core.engine import WellFoundedEngine
from repro.views import MaterializedEngine
from repro.bench.generators import win_move_datalog_pm, win_move_game

#: Unguarded, so Lemma 11 fails: run without the guard check, the engine
#: "converged" at depth 5 with lonely(c) true and marker(c) false, while the
#: WFS (and a fixed solve at depth 15-17) has marker(c) true, lonely(c) false.
UNGUARDED_MARKER = """
b(X) -> exists Y f(X, Y).
f(X, Y) -> b(Y).
f(X1, X2), f(X2, X3), f(X3, X4), f(X4, X5) -> marker(X1).
b(X), not marker(X) -> lonely(X).
b(c).
"""


REACH = "source(X) -> reach(X). source(a). source(b)."


class TestInputHandling:
    def test_text_facts_merge_with_explicit_database(self):
        engine = WellFoundedEngine(
            "scientist(X) -> exists Y isAuthorOf(X, Y).\nscientist(john).",
            Database([parse_atom("scientist(mary)")]),
        )
        assert engine.holds("? isAuthorOf(john, Y)")
        assert engine.holds("? isAuthorOf(mary, Y)")

    def test_database_may_be_text_or_iterable(self):
        program, _ = parse_program("scientist(X) -> exists Y isAuthorOf(X, Y).")
        by_text = WellFoundedEngine(program, "scientist(john).")
        by_iterable = WellFoundedEngine(program, [parse_atom("scientist(john)")])
        assert by_text.holds("? isAuthorOf(john, Y)")
        assert by_iterable.holds("? isAuthorOf(john, Y)")

    def test_unguarded_program_is_rejected_by_default(self):
        text = "p(X), q(Y) -> related(X, Y).\np(a). q(b)."
        with pytest.raises(NotGuardedError):
            WellFoundedEngine(text)
        with pytest.raises(NotGuardedError):
            WellFoundedEngine(UNGUARDED_MARKER)
        program, database = parse_program(UNGUARDED_MARKER)
        with pytest.raises(NotGuardedError):
            GuardedChaseEngine(skolemize_program(program), database)

    def test_answer_rejects_queries_with_negation(self):
        for engine_type in (WellFoundedEngine, MaterializedEngine):
            engine = engine_type("p(X) -> q(X).\np(a).")
            with pytest.raises(IllFormedRuleError):
                engine.answer("? q(X), not p(X)")

    @pytest.mark.parametrize(
        "answer",
        [
            lambda query: WellFoundedEngine(REACH).answer(query),
            lambda query: MaterializedEngine(REACH).answer(query),
            lambda query: answer_query(REACH, None, query),
        ],
        ids=["WellFoundedEngine", "MaterializedEngine", "answer_query"],
    )
    def test_answer_accepts_text_nbcq_and_conjunctive_query(self, answer):
        nbcq = parse_query("? reach(X)")
        for query in ("? reach(X)", nbcq, as_conjunctive_query(nbcq)):
            assert answer(query) == {(Constant("a"),), (Constant("b"),)}, query

    def test_segment_cache_keyword_accepts_only_false(self):
        text = "next(X, Y) -> exists Z next(Y, Z).\nnext(a, b)."
        with pytest.raises(TypeError, match="removed"):
            WellFoundedEngine(text, segment_cache=True)
        engine = WellFoundedEngine(text, segment_cache=False)
        assert engine.holds("? next(a, b)")
        stats = engine.last_query_stats
        assert stats["mode"] == "classic" and stats["nodes_spliced"] == 0


class TestCoincidenceWithClassicalWfs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_win_move_game_agrees_with_lp_substrate(self, seed):
        size = 25
        lp_model = well_founded_model(relevant_grounding(win_move_game(size, seed=seed)))
        program, database = win_move_datalog_pm(size, seed=seed)
        engine = WellFoundedEngine(program, database)
        model = engine.model()
        win_atoms = {a for a in lp_model.universe() if a.predicate == "win"}
        for atom in win_atoms:
            assert lp_model.is_true(atom) == model.is_true(atom), atom
            assert lp_model.is_false(atom) == model.is_false(atom), atom

    def test_datalog_program_without_negation_is_just_the_least_model(self):
        # transitive closure is unguarded: MaterializedEngine serves it
        text = """
            edge(X, Y) -> path(X, Y).
            path(X, Y), edge(Y, Z) -> path(X, Z).
            edge(a, b). edge(b, c). edge(c, d).
            """
        engine = MaterializedEngine(text)
        assert engine.holds("? path(a, d)")
        assert not engine.holds("? path(d, a)")
        assert not engine.model().undefined_atoms()
        with pytest.raises(NotGuardedError):
            WellFoundedEngine(text)

    def test_stratified_negation_behaves_classically(self):
        engine = WellFoundedEngine(
            """
            bird(X), not penguin(X) -> flies(X).
            bird(tweety). bird(sam). penguin(sam).
            """
        )
        assert engine.holds("? flies(tweety)")
        assert not engine.holds("? flies(sam)")
        assert engine.holds("? bird(sam), not flies(sam)")


class TestConvergenceControls:
    def test_non_convergence_is_flagged_not_raised_by_default(self):
        engine = WellFoundedEngine(
            "next(X, Y) -> exists Z next(Y, Z).\nnext(a, b).",
            initial_depth=2,
            depth_step=1,
            max_depth=3,
        )
        # The chain program needs at least two rounds at the same frontier shape;
        # with such a tiny budget the engine reports non-convergence gracefully.
        model = engine.model()
        assert model.depth == 3
        assert isinstance(model.converged, bool)

    def test_strict_mode_raises_on_non_convergence(self):
        with pytest.raises(ConvergenceError):
            WellFoundedEngine(
                "next(X, Y), not stop(X) -> exists Z next(Y, Z).\nnext(a, b).",
                initial_depth=1,
                depth_step=1,
                max_depth=1,
                strict=True,
            ).model()

    def test_convergence_error_carries_the_partial_model(self):
        try:
            WellFoundedEngine(
                "next(X, Y), not stop(X) -> exists Z next(Y, Z).\nnext(a, b).",
                initial_depth=1,
                depth_step=1,
                max_depth=1,
                strict=True,
            ).model()
        except ConvergenceError as error:
            assert error.partial_model is not None
            assert error.partial_model.is_true(parse_atom("next(a, b)"))
        else:  # pragma: no cover - the call must raise
            pytest.fail("expected ConvergenceError")

    @pytest.mark.parametrize("depth_step", [0, -1])
    def test_depth_step_below_one_is_rejected(self, depth_step):
        # A step below 1 re-tests the initial depth against itself, so the
        # stabilisation test would report convergence it never checked.
        with pytest.raises(ValueError, match="depth_step"):
            WellFoundedEngine(
                "next(X, Y) -> exists Z next(Y, Z).\nnext(a, b).", depth_step=depth_step
            )

    @pytest.mark.parametrize("schedule", [{"initial_depth": 5, "max_depth": 3}, {"max_depth": -1}])
    def test_empty_deepening_schedule_is_rejected(self, schedule):
        with pytest.raises(ValueError, match="max_depth"):
            WellFoundedEngine("p(X) -> q(X).\np(a).", **schedule)

    def test_model_is_cached(self):
        engine = WellFoundedEngine("p(X) -> q(X).\np(a).")
        assert engine.model() is engine.model()

    def test_terminating_chase_converges_at_initial_depth(self):
        engine = WellFoundedEngine(
            "conferencePaper(X) -> article(X).\nconferencePaper(pods13)."
        )
        model = engine.model()
        assert model.converged
        assert model.is_true(parse_atom("article(pods13)"))


class TestLocalityHelpers:
    def test_delta_bound_for_a_two_predicate_unary_schema(self):
        # |R| = 2, w = 1: δ = 2 · 2 · (2·1)^1 · 2^(2·2) = 128.
        engine = WellFoundedEngine("p(X) -> q(X).\np(a).")
        assert engine.delta() == 128

    def test_query_depth_bound_scales_with_query_size(self):
        engine = WellFoundedEngine("p(X) -> q(X).\np(a).")
        small = engine.query_depth_bound("? q(X)")
        large = engine.query_depth_bound("? q(X), p(X), not r(X)")
        assert large == 3 * small
