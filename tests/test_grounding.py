"""Unit tests for :mod:`repro.lp.grounding`."""

from __future__ import annotations

import pytest

from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_normal_program, parse_normal_rule
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, Variable
from repro.lp.grounding import (
    GroundProgram,
    ground_over_atoms,
    ground_rule_instances,
    relevant_grounding,
)

X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestGroundProgram:
    def test_only_ground_rules_are_accepted(self):
        program = GroundProgram()
        with pytest.raises(GroundingError):
            program.add(NormalRule(Atom("p", (X,)), (Atom("q", (X,)),), ()))

    def test_indexes(self):
        rule = NormalRule(Atom("p", (a,)), (Atom("q", (a,)),), (Atom("r", (a,)),))
        program = GroundProgram([rule, NormalRule(Atom("q", (a,)))])
        assert rule in program
        assert program.rules_with_head(Atom("p", (a,))) == [rule]
        assert program.head_atoms() == {Atom("p", (a,)), Atom("q", (a,))}
        assert Atom("r", (a,)) in program.atoms()
        assert program.facts() == [Atom("q", (a,))]

    def test_duplicates_ignored(self):
        rule = NormalRule(Atom("p", (a,)))
        program = GroundProgram([rule, rule])
        assert len(program) == 1

    def test_positive_part(self):
        rule = NormalRule(Atom("p", (a,)), (Atom("q", (a,)),), (Atom("r", (a,)),))
        program = GroundProgram([rule])
        assert not program.is_positive()
        assert program.positive_part().is_positive()


class TestGroundRuleInstances:
    def test_instances_over_candidate_atoms(self):
        rule = parse_normal_rule("edge(X, Y), not blocked(X) -> path(X, Y).")
        index = {"edge": [Atom("edge", (a, b)), Atom("edge", (b, c))]}
        instances = list(ground_rule_instances(rule, index))
        heads = {r.head for r in instances}
        assert heads == {Atom("path", (a, b)), Atom("path", (b, c))}
        # negative bodies are instantiated alongside
        assert all(r.body_neg[0].args[0] == r.body_pos[0].args[0] for r in instances)

    def test_ground_facts_pass_through(self):
        fact = parse_normal_rule("p(a).")
        assert list(ground_rule_instances(fact, {})) == [fact]

    def test_no_candidates_means_no_instances(self):
        rule = parse_normal_rule("edge(X, Y) -> path(X, Y).")
        assert list(ground_rule_instances(rule, {})) == []


class TestGroundOverAtoms:
    def test_rules_ground_only_over_given_atoms(self):
        program = parse_normal_program("edge(X, Y) -> path(X, Y).")
        ground = ground_over_atoms(program, [Atom("edge", (a, b))])
        assert len(ground) == 1
        assert ground.rules()[0].head == Atom("path", (a, b))


class TestRelevantGrounding:
    def test_transitive_closure_grounding(self):
        program = parse_normal_program(
            """
            edge(a, b). edge(b, c).
            edge(X, Y) -> path(X, Y).
            path(X, Y), edge(Y, Z) -> path(X, Z).
            """
        )
        ground = relevant_grounding(program)
        heads = {r.head for r in ground}
        assert Atom("path", (a, c)) in heads
        # irrelevant instances (e.g. path(c, a)) are never produced
        assert Atom("path", (c, a)) not in ground.atoms()

    def test_negative_bodies_do_not_block_grounding(self):
        # Relevant grounding treats negation as satisfiable; the instance must exist.
        program = parse_normal_program(
            """
            node(a). node(b). edge(a, b).
            node(X), not source(X) -> sink(X).
            """
        )
        ground = relevant_grounding(program)
        assert Atom("sink", (a,)) in ground.head_atoms()

    def test_extra_atoms_seed_the_candidates(self):
        program = parse_normal_program("edge(X, Y) -> path(X, Y).")
        ground = relevant_grounding(program, extra_atoms=[Atom("edge", (a, b))])
        assert Atom("path", (a, b)) in ground.head_atoms()
        # but extra atoms are not turned into facts
        assert Atom("edge", (a, b)) not in {r.head for r in ground if r.is_fact()}

    def test_round_budget_guards_function_symbols(self):
        program = parse_normal_program(
            """
            p(a).
            p(X) -> p(f(X)).
            """
        )
        with pytest.raises(GroundingError):
            relevant_grounding(program, max_rounds=5)

    def test_atom_budget(self):
        program = parse_normal_program(
            """
            p(a).
            p(X) -> p(f(X)).
            """
        )
        with pytest.raises(GroundingError):
            relevant_grounding(program, max_atoms=10)


class TestIncrementalFactUpdates:
    """The grounder-level insert/retract seam the view layer builds on."""

    def _grounder(self):
        from repro.lp.grounding import SemiNaiveGrounder

        program = parse_normal_program("edge(X, Y) -> path(X, Y).")
        grounder = SemiNaiveGrounder(program)
        grounder.run()
        return grounder

    def test_add_fact_grounds_only_the_delta(self):
        grounder = self._grounder()
        grounder.add_fact(Atom("edge", (a, b)))
        assert grounder.run()
        delta = list(grounder.delta_rules())
        assert Atom("path", (a, b)) in {r.head for r in delta}
        # the fact itself became a stored fact rule
        assert NormalRule(Atom("edge", (a, b))) in set(grounder.ground)

    def test_add_fact_rejects_non_ground_atoms(self):
        grounder = self._grounder()
        with pytest.raises(GroundingError):
            grounder.add_fact(Atom("edge", (X, b)))

    def test_retract_fact_removes_the_candidate(self):
        grounder = self._grounder()
        grounder.add_fact(Atom("edge", (a, b)))
        grounder.run()
        assert grounder.retract_fact(Atom("edge", (a, b))) is True
        assert Atom("edge", (a, b)) not in grounder.index
        # stored rules are append-only: the produced instance stays
        assert Atom("path", (a, b)) in {r.head for r in grounder.ground}
        assert grounder.retract_fact(Atom("edge", (a, b))) is False

    def test_retract_pending_delta_atom_cancels_its_joins(self):
        grounder = self._grounder()
        grounder.add_fact(Atom("edge", (a, b)))
        # retract before running: the staged delta atom must not fire
        assert grounder.retract_fact(Atom("edge", (a, b))) is True
        assert grounder.run()
        assert Atom("path", (a, b)) not in {r.head for r in grounder.ground}

    def test_reseed_restores_matching_state(self):
        grounder = self._grounder()
        grounder.add_fact(Atom("edge", (a, b)))
        grounder.run()
        grounder.retract_fact(Atom("edge", (a, b)))
        grounder.reseed(Atom("edge", (a, b)))
        assert grounder.run()
        assert Atom("edge", (a, b)) in grounder.index

    def test_columnar_backend_mirrors_the_tuple_seam(self):
        from repro.lp.columnar import make_grounder

        program = parse_normal_program("edge(X, Y) -> path(X, Y).")
        grounder = make_grounder(program, backend="columnar")
        grounder.run()
        grounder.add_fact(Atom("edge", (a, b)))
        grounder.add_fact(Atom("edge", (b, c)))
        assert grounder.run()
        assert Atom("path", (b, c)) in grounder.ground.atoms()
        assert grounder.retract_fact(Atom("edge", (b, c))) is True
        assert Atom("edge", (b, c)) not in grounder.index
        assert grounder.retract_fact(Atom("edge", (b, c))) is False
        # a retracted row no longer joins: new facts over it stay unmatched
        grounder.reseed(Atom("edge", (b, c)))
        assert grounder.run()
        assert Atom("edge", (b, c)) in grounder.index
