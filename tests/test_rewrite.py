"""Unit tests for the magic-sets rewriting subsystem (:mod:`repro.rewrite`)."""

from __future__ import annotations

import pytest

from repro.exceptions import IllFormedRuleError
from repro.lang.atoms import Atom, neg, pos
from repro.lang.queries import NormalBCQ, query_holds
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, Variable
from repro.lp.grounding import SemiNaiveGrounder, relevant_grounding
from repro.lp.wfs import well_founded_model
from repro.rewrite import (
    Adornment,
    adorn,
    adornment_of,
    ground_magic,
    is_magic_predicate,
    magic_predicate_name,
    rewrite_for_query,
)
from repro.rewrite.adornment import sips_schedule
from repro.core.engine import WellFoundedEngine
from repro.bench.generators import (
    chain_reachability_workload,
    paper_example_program,
    win_move_datalog_pm,
    win_move_game,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def reach_rules() -> list[NormalRule]:
    """reach/unreachable over edges — the workhorse of these tests."""
    return [
        NormalRule(Atom("reach", (X,)), (Atom("source", (X,)),), ()),
        NormalRule(Atom("reach", (Y,)), (Atom("edge", (X, Y)), Atom("reach", (X,))), ()),
        NormalRule(Atom("unreachable", (X,)), (Atom("node", (X,)),), (Atom("reach", (X,)),)),
    ]


def chain_facts(chains: int, length: int) -> list[Atom]:
    facts: list[Atom] = []
    for chain in range(chains):
        facts.append(Atom("source", (Constant(f"c{chain}_0"),)))
        for i in range(length):
            facts.append(
                Atom("edge", (Constant(f"c{chain}_{i}"), Constant(f"c{chain}_{i+1}")))
            )
        for i in range(length + 1):
            facts.append(Atom("node", (Constant(f"c{chain}_{i}"),)))
    return facts


class TestAdornment:
    def test_adornment_rendering_and_projection(self):
        adornment = Adornment((True, False, True))
        assert str(adornment) == "bfb"
        assert adornment.bound_positions() == (0, 2)
        assert adornment.project(("x", "y", "z")) == ("x", "z")

    def test_adornment_of_marks_ground_and_bound_positions(self):
        atom = Atom("p", (a, X, Y))
        assert str(adornment_of(atom, frozenset())) == "bff"
        assert str(adornment_of(atom, frozenset({X}))) == "bbf"

    def test_adorn_reaches_only_query_relevant_predicates(self):
        adorned = adorn(reach_rules(), [pos(Atom("reach", (a,)))])
        assert adorned.relevant_predicates() == {"reach", "edge", "source"}
        assert "unreachable" not in adorned.relevant_predicates()

    def test_bound_query_constant_produces_bound_adornment(self):
        adorned = adorn(reach_rules(), [pos(Atom("reach", (a,)))])
        assert [str(x) for x in adorned.adornments_of("reach")] == ["b"]

    def test_negated_literals_are_visited_fully_bound(self):
        adorned = adorn(
            reach_rules(),
            [pos(Atom("node", (X,))), neg(Atom("reach", (X,)))],
        )
        (reach_adornment,) = adorned.adornments_of("reach")
        assert str(reach_adornment) == "b"

    def test_unsafe_negated_query_literal_is_rejected(self):
        with pytest.raises(IllFormedRuleError):
            adorn(reach_rules(), [pos(Atom("node", (X,))), neg(Atom("reach", (Y,)))])

    def test_empty_query_is_rejected(self):
        with pytest.raises(IllFormedRuleError):
            adorn(reach_rules(), [])


class TestSIPS:
    def test_left_to_right_keeps_body_order(self):
        body = (pos(Atom("p", (X,))), pos(Atom("q", (X, Y))), neg(Atom("r", (Y,))))
        steps = sips_schedule(body, frozenset())
        assert [s.literal.predicate for s in steps] == ["p", "q", "r"]
        # the negated literal sees every positive atom as its prefix
        assert [atom.predicate for atom in steps[-1].prefix] == ["p", "q"]

    def test_negatives_always_scheduled_last(self):
        body = (neg(Atom("r", (X,))), pos(Atom("p", (X,))))
        steps = sips_schedule(body, frozenset())
        assert [s.literal.positive for s in steps] == [True, False]


class TestMagicRewriting:
    def test_magic_names_live_in_reserved_namespace(self):
        name = magic_predicate_name("reach", Adornment((True,)))
        assert is_magic_predicate(name)
        assert not is_magic_predicate("reach")

    def test_restricted_grounding_is_much_smaller_on_selective_queries(self):
        rules = reach_rules()
        facts = chain_facts(chains=6, length=8)
        full = relevant_grounding(rules + [NormalRule(f) for f in facts])
        plan = rewrite_for_query(rules, [pos(Atom("reach", (Constant("c0_8"),)))])
        grounding = ground_magic(plan, facts)
        assert grounding.saturated
        assert len(grounding.ground) * 5 <= len(full)

    def test_restricted_model_agrees_with_full_model_on_query(self):
        rules = reach_rules()
        facts = chain_facts(chains=3, length=4)
        full = well_founded_model(
            relevant_grounding(rules + [NormalRule(f) for f in facts])
        )
        for atom in (
            Atom("reach", (Constant("c1_4"),)),
            Atom("unreachable", (Constant("c2_2"),)),
        ):
            plan = rewrite_for_query(rules, [pos(atom)])
            grounding = ground_magic(plan, facts)
            restricted = well_founded_model(grounding.ground)
            assert restricted.is_true(atom) == full.is_true(atom)
            assert restricted.is_false(atom) == full.is_false(atom)

    def test_unstratified_negation_is_sliced_soundly(self):
        """win/move: the cover flows through negated literals, so the slice
        preserves true/false/undefined exactly — no stratification needed."""
        program = list(win_move_game(25, seed=11))
        full = relevant_grounding(program)
        full_model = well_founded_model(full)
        win_atoms = sorted(
            (atom for atom in full.atoms() if atom.predicate == "win"),
            key=lambda atom: atom.sort_key(),
        )
        assert win_atoms, "generator produced no win atoms"
        for atom in win_atoms[:12]:
            plan = rewrite_for_query(program, [pos(atom)])
            grounding = ground_magic(plan, [])
            model = well_founded_model(grounding.ground)
            assert model.is_true(atom) == full_model.is_true(atom)
            assert model.is_false(atom) == full_model.is_false(atom)

    def test_negated_query_literal_is_covered(self):
        rules = reach_rules()
        facts = chain_facts(chains=2, length=3)
        query = NormalBCQ(
            (Atom("node", (Constant("c0_2"),)),),
            (Atom("reach", (Constant("c0_2"),)),),
        )
        plan = rewrite_for_query(rules, query.literals())
        grounding = ground_magic(plan, facts)
        model = well_founded_model(grounding.ground)
        # c0_2 is reachable, so the NBCQ must be false — and it must be false
        # because reach(c0_2) is *true* in the slice, not merely missing.
        assert model.is_true(Atom("reach", (Constant("c0_2"),)))
        assert not query_holds(query, model)

    def test_negative_context_rules_are_labelled(self):
        plan = rewrite_for_query(
            reach_rules(), [pos(Atom("unreachable", (Constant("c0_1"),)))]
        )
        assert plan.supported
        assert plan.negative_context, "negated body literal must emit labelled magic rules"
        for rule in plan.negative_context:
            assert is_magic_predicate(rule.head.predicate)

    def test_existential_recursion_is_outside_the_sound_fragment(self):
        program, _ = paper_example_program()
        from repro.lang.skolem import skolemize_program

        rules = skolemize_program(program).rules()
        plan = rewrite_for_query(rules, [pos(Atom("t", (Constant("0"),)))])
        assert not plan.supported
        assert "no static termination criterion" in plan.reason
        assert plan.termination_criterion is None
        assert plan.program is None
        with pytest.raises(ValueError):
            ground_magic(plan, [])

    def test_magic_namespace_collision_is_rejected(self):
        clash = NormalRule(
            Atom("__magic_b__p", (X,)), (Atom("q", (X,)),), ()
        )
        plan = rewrite_for_query(
            [clash, NormalRule(Atom("p", (X,)), (Atom("__magic_b__p", (X,)),), ())],
            [pos(Atom("p", (a,)))],
        )
        assert not plan.supported
        assert "magic namespace" in plan.reason


class TestSemiNaiveGrounder:
    def test_budget_exhaustion_is_reported_not_raised(self):
        # A term-growing rule never saturates; the grounder must stop politely.
        from repro.lang.terms import FunctionTerm

        growing = NormalRule(
            Atom("p", (FunctionTerm("f", (X,)),)), (Atom("p", (X,)),), ()
        )
        grounder = SemiNaiveGrounder([growing], [Atom("p", (a,))])
        assert not grounder.run(max_rounds=3, raise_on_budget=False)
        assert not grounder.saturated
        # resuming with a larger budget continues from where it stopped
        assert not grounder.run(max_rounds=5, raise_on_budget=False)
        assert grounder.rounds == 5

    def test_matches_relevant_grounding(self):
        program = list(win_move_game(15, seed=3))
        grounder = SemiNaiveGrounder(program)
        assert grounder.run()
        reference = relevant_grounding(program)
        assert set(grounder.ground.rules()) == set(reference.rules())


class TestEngineRewritePath:
    def test_holds_agrees_on_function_free_unstratified_program(self):
        program, database = win_move_datalog_pm(30, seed=5)
        engine = WellFoundedEngine(program, database)
        positions = sorted({atom.args[0] for atom in database}, key=str)
        for position in positions[:6]:
            query = f"? win({position})"
            assert engine.holds(query) == engine.holds(query, rewrite=True)
        assert engine.last_query_stats["mode"] == "magic"

    def test_answer_agrees_and_reports_stats(self):
        program, database = chain_reachability_workload(4, 6)
        engine = WellFoundedEngine(program, database)
        classic = engine.answer("? reach(X)")
        rewritten = engine.answer("? reach(X)", rewrite=True)
        assert classic == rewritten
        assert engine.last_query_stats["mode"] == "magic"
        assert engine.last_query_stats["saturated"]

    def test_selective_query_grounds_less_than_classic(self):
        program, database = chain_reachability_workload(6, 8)
        engine = WellFoundedEngine(program, database)
        target = "? reach(c0_8)"
        assert engine.holds(target, rewrite=True)
        rewritten_size = engine.last_query_stats["ground_rules"]
        classic_size = len(engine.ground_program())
        assert rewritten_size * 5 <= classic_size

    def test_fallback_is_exact_and_flagged(self):
        program, database = paper_example_program(1)
        engine = WellFoundedEngine(program, database)
        for query in ("? t(0)", "? q(1)", "? p(0, 1), not s(0)"):
            assert engine.holds(query) == engine.holds(query, rewrite=True)
            stats = engine.last_query_stats
            # answered from the engine's own chase-plan model
            assert stats["mode"] == "classic"
            assert stats["rewrite_fallback"]

    def test_rewrite_default_from_constructor(self):
        program, database = chain_reachability_workload(2, 3)
        engine = WellFoundedEngine(program, database, rewrite=True)
        assert engine.holds("? reach(c1_3)")
        assert engine.last_query_stats["mode"] == "magic"
        # per-call override wins over the engine default: the unrewritten
        # path, here on the finite plan (the program is function-free)
        assert engine.holds("? reach(c1_3)", rewrite=False)
        assert engine.last_query_stats["mode"] == "finite"
