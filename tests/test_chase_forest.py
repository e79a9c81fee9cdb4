"""Tests for the guarded chase forest data structure and engine
(:mod:`repro.chase.forest`, :mod:`repro.chase.engine`)."""

from __future__ import annotations

import pytest

from repro.exceptions import GroundingError, NotGuardedError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom, parse_program
from repro.lang.program import Database, NormalProgram
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lang.terms import FunctionTerm, Variable
from repro.chase.engine import GuardedChaseEngine, chase_forest
from repro.chase.forest import ChaseForest
from repro.core.engine import WellFoundedEngine


def literature_pieces():
    """Example 1 of the paper: conference papers, scientists and authorship."""
    program, database = parse_program(
        """
        conferencePaper(X) -> article(X).
        scientist(X) -> exists Y isAuthorOf(X, Y).
        isAuthorOf(X, Y) -> author(X).
        scientist(john).
        conferencePaper(pods13).
        """
    )
    return skolemize_program(program), database


class TestChaseForestStructure:
    def test_roots_and_children(self):
        forest = ChaseForest()
        root = forest.add_root(parse_atom("p(a)"))
        rule = NormalRule(parse_atom("q(a)"), (parse_atom("p(a)"),), ())
        child = forest.add_child(root.node_id, parse_atom("q(a)"), rule, level=1)
        assert root.is_root() and not child.is_root()
        assert child.depth == 1 and child.level == 1
        assert forest.parent(child.node_id) is root
        assert forest.children(root.node_id) == [child]
        assert forest.was_applied(root.node_id, rule)

    def test_label_indexes(self):
        forest = ChaseForest()
        forest.add_root(parse_atom("p(a)"))
        forest.add_root(parse_atom("p(b)"))
        assert forest.has_label(parse_atom("p(a)"))
        assert not forest.has_label(parse_atom("p(c)"))
        assert forest.labels() == {parse_atom("p(a)"), parse_atom("p(b)")}
        assert len(forest.nodes_with_label(parse_atom("p(a)"))) == 1

    def test_negative_atoms_collects_edge_rule_hypotheses(self):
        forest = ChaseForest()
        root = forest.add_root(parse_atom("p(a)"))
        rule = NormalRule(parse_atom("q(a)"), (parse_atom("p(a)"),), (parse_atom("blocked(a)"),))
        forest.add_child(root.node_id, parse_atom("q(a)"), rule, level=1)
        assert forest.negative_atoms() == {parse_atom("blocked(a)")}

    def test_path_and_subtree_queries(self):
        forest = ChaseForest()
        root = forest.add_root(parse_atom("p(a)"))
        rule1 = NormalRule(parse_atom("q(a)"), (parse_atom("p(a)"),), ())
        child = forest.add_child(root.node_id, parse_atom("q(a)"), rule1, level=1)
        rule2 = NormalRule(parse_atom("r(a)"), (parse_atom("q(a)"),), ())
        grandchild = forest.add_child(child.node_id, parse_atom("r(a)"), rule2, level=2)
        path = forest.path_to_root(grandchild.node_id)
        assert [n.label for n in path] == [parse_atom("r(a)"), parse_atom("q(a)"), parse_atom("p(a)")]
        assert forest.subtree_labels(root.node_id) == {
            parse_atom("p(a)"),
            parse_atom("q(a)"),
            parse_atom("r(a)"),
        }
        assert forest.max_depth() == 2
        assert forest.depth_of_atom(parse_atom("r(a)")) == 2
        assert forest.level_of_atom(parse_atom("nothing(a)")) is None

    def test_negative_only_atoms_have_no_level_or_depth(self):
        """Regression: atoms present only inside negative bodies label no node,
        so ``level_of_atom``/``depth_of_atom`` return ``None`` for them — they
        are negative hypotheses (``N(F)``), not derived atoms (documented
        contract of both methods)."""
        forest = ChaseForest()
        root = forest.add_root(parse_atom("p(a)"))
        rule = NormalRule(
            parse_atom("q(a)"), (parse_atom("p(a)"),), (parse_atom("blocked(a)"),)
        )
        forest.add_child(root.node_id, parse_atom("q(a)"), rule, level=1)
        blocked = parse_atom("blocked(a)")
        assert blocked in forest.negative_atoms()
        assert forest.level_of_atom(blocked) is None
        assert forest.depth_of_atom(blocked) is None
        # engine-built forests behave the same way
        program, database = parse_program(
            """
            p(X), not blocked(X) -> q(X).
            p(a).
            """
        )
        engine = GuardedChaseEngine(skolemize_program(program), database)
        engine.expand(3)
        assert parse_atom("blocked(a)") in engine.forest.negative_atoms()
        assert engine.forest.level_of_atom(parse_atom("blocked(a)")) is None
        assert engine.forest.depth_of_atom(parse_atom("blocked(a)")) is None

    def test_recompute_levels_assigns_canonical_stages(self):
        """Levels are the structural derivation stages after recomputation:
        a child created "late" (with an inflated round number) is restored to
        ``1 + max(parent level, side-atom levels)``."""
        forest = ChaseForest()
        root = forest.add_root(parse_atom("p(a)"))
        side = forest.add_root(parse_atom("s(a)"))
        rule1 = NormalRule(
            parse_atom("q(a)"), (parse_atom("p(a)"), parse_atom("s(a)")), ()
        )
        child = forest.add_child(root.node_id, parse_atom("q(a)"), rule1, level=7)
        rule2 = NormalRule(parse_atom("r(a)"), (parse_atom("q(a)"),), ())
        grandchild = forest.add_child(child.node_id, parse_atom("r(a)"), rule2, level=9)
        changed = forest.recompute_levels()
        assert changed == 2
        assert root.level == 0 and side.level == 0
        assert child.level == 1 and grandchild.level == 2
        # idempotent
        assert forest.recompute_levels() == 0


class TestGuardedChaseEngine:
    def test_literature_example_terminates_and_derives_expected_atoms(self):
        skolemized, database = literature_pieces()
        engine = GuardedChaseEngine(skolemized, database)
        engine.expand(5)
        labels = engine.atoms()
        assert parse_atom("article(pods13)") in labels
        assert parse_atom("author(john)") in labels
        # John authors a Skolem null.
        author_atoms = [a for a in labels if a.predicate == "isAuthorOf"]
        assert len(author_atoms) == 1
        assert isinstance(author_atoms[0].args[1], FunctionTerm)

    def test_depth_bound_limits_expansion(self):
        program, database = parse_program(
            """
            next(X, Y) -> exists Z next(Y, Z).
            next(a, b).
            """
        )
        skolemized = skolemize_program(program)
        shallow = GuardedChaseEngine(skolemized, database)
        shallow.expand(2)
        deep = GuardedChaseEngine(skolemized, database)
        deep.expand(6)
        assert len(deep.forest) > len(shallow.forest)
        assert shallow.forest.max_depth() <= 2
        assert deep.forest.max_depth() <= 6

    def test_incremental_expansion_continues_from_existing_forest(self):
        program, database = parse_program(
            """
            next(X, Y) -> exists Z next(Y, Z).
            next(a, b).
            """
        )
        engine = GuardedChaseEngine(skolemize_program(program), database)
        engine.expand(2)
        size_before = len(engine.forest)
        changed = engine.expand(4)
        assert changed and len(engine.forest) > size_before
        # shrinking the bound is a no-op
        assert engine.expand(3) is False

    def test_frontier_nodes_are_at_the_depth_bound(self):
        program, database = parse_program(
            """
            next(X, Y) -> exists Z next(Y, Z).
            next(a, b).
            """
        )
        engine = GuardedChaseEngine(skolemize_program(program), database)
        engine.expand(3)
        assert all(node.depth == 3 for node in engine.frontier_nodes())
        assert engine.frontier_nodes()

    def test_terminating_chase_has_empty_frontier_beyond_its_depth(self):
        skolemized, database = literature_pieces()
        engine = GuardedChaseEngine(skolemized, database)
        engine.expand(10)
        assert engine.frontier_nodes() == []

    def test_ground_rules_are_ground_instances_of_the_program(self):
        skolemized, database = literature_pieces()
        engine = GuardedChaseEngine(skolemized, database)
        engine.expand(4)
        for rule in engine.ground_rules():
            assert rule.is_ground()

    def test_unguarded_rule_is_rejected(self):
        unguarded = NormalProgram(
            [
                NormalRule(
                    Atom("r", (Variable("X"), Variable("Y"))),
                    (Atom("p", (Variable("X"),)), Atom("q", (Variable("Y"),))),
                    (),
                )
            ]
        )
        with pytest.raises(NotGuardedError):
            GuardedChaseEngine(unguarded, Database([parse_atom("p(a)")]))

    def test_node_budget_is_enforced(self):
        program, database = parse_program(
            """
            next(X, Y) -> exists Z next(Y, Z).
            next(a, b).
            """
        )
        engine = GuardedChaseEngine(skolemize_program(program), database, max_nodes=3)
        with pytest.raises(GroundingError):
            engine.expand(50)

    def test_chase_forest_convenience_wrapper(self):
        skolemized, database = literature_pieces()
        forest = chase_forest(skolemized, database, max_depth=4)
        assert forest.has_label(parse_atom("article(pods13)"))

    def test_deepening_engine_equals_one_shot_forest(self):
        program, database = parse_program("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        rules = skolemize_program(program)
        engine = GuardedChaseEngine(rules, database)
        engine.expand(4)
        engine.expand(8)
        plain = chase_forest(rules, database, 8)
        assert engine.forest.labels() == plain.labels()
        for atom in plain.labels():
            assert engine.forest.level_of_atom(atom) == plain.level_of_atom(atom)

    def test_shared_nulls_are_not_merged_across_siblings(self):
        """p(ν) and q(ν) share the null ν of r(c, ν), and p's and q's atoms
        have the same shape in both chains: each must still carry *its own*
        chain's null, never the other chain's."""
        engine = WellFoundedEngine(
            """
            a(X) -> exists Y r(X, Y).
            r(X, Y) -> p(Y).
            r(X, Y) -> q(Y).
            p(X), not q(X) -> only_p(X).
            a(c1).
            a(c2).
            """
        )
        forest = engine.model().forest()
        siblings = [n for n in forest.nodes() if n.label.predicate in ("p", "q")]
        assert len(siblings) == 4
        # Every p- and q-node's null must be the null of its parent r-node.
        for node in siblings:
            parent = forest.parent(node.node_id)
            assert parent.label.predicate == "r"
            assert node.label.args[0] == parent.label.args[1]

    def test_multiple_nodes_can_share_a_label(self, paper_example_engine):
        # Example 6 of the paper: S(0) labels infinitely many nodes of F+(P);
        # in the materialised segment there must be more than one.
        forest = paper_example_engine.chase_forest()
        assert len(forest.nodes_with_label(parse_atom("s(0)"))) > 1

    def test_side_literals_of_path(self, paper_example_engine):
        forest = paper_example_engine.chase_forest()
        t_nodes = forest.nodes_with_label(parse_atom("t(0)"))
        assert t_nodes
        positive, negative = forest.side_literals_of_path(t_nodes[0].node_id)
        # the rule deriving t(0) carries the negative hypothesis s(0)
        assert parse_atom("s(0)") in negative


class TestForestChangeNotification:
    def test_listeners_fire_on_every_insertion(self):
        forest = ChaseForest()
        events: list[tuple[str, bool]] = []
        forest.add_listener(lambda node, is_new: events.append((str(node.label), is_new)))
        root = forest.add_root(parse_atom("p(a)"))
        rule = NormalRule(parse_atom("q(a)"), (parse_atom("p(a)"),), ())
        forest.add_child(root.node_id, parse_atom("q(a)"), rule, level=1)
        # a second node with an existing label reports is_new_label=False
        rule2 = NormalRule(parse_atom("q(a)"), (parse_atom("q(a)"),), ())
        forest.add_child(root.node_id + 1, parse_atom("q(a)"), rule2, level=2)
        assert events == [("p(a)", True), ("q(a)", True), ("q(a)", False)]


INFINITE_CHAIN = """
next(X, Y) -> exists Z next(Y, Z).
next(a, b).
"""


class TestBudgetFailureRetry:
    """Regression for the ROADMAP item surfaced by the PR 3 property suite:
    after ``expand`` raises :class:`GroundingError`, a retried ``model()``
    used to resume on the partially expanded forest and report
    ``converged=True`` because the no-op deepening steps trivially stabilise.
    The retry must re-raise instead — and genuinely resume (not restart) once
    the node budget is raised."""

    @pytest.mark.parametrize("saturation", ["agenda", "scan"])
    def test_retried_model_reraises_until_budget_is_raised(self, saturation):
        engine = WellFoundedEngine(
            INFINITE_CHAIN,
            max_nodes=5,
            max_depth=21,
            saturation=saturation,
        )
        with pytest.raises(GroundingError):
            engine.model()
        # the retry must not report a converged model on the partial forest
        with pytest.raises(GroundingError):
            engine.model()

    @pytest.mark.parametrize("saturation", ["agenda", "scan"])
    def test_raised_budget_resumes_to_the_mirror_schedule_model(self, saturation):
        """Raising the budget resumes to exactly the model of a fresh engine
        whose deepening *starts at the committed chase bound* — the schedule
        the resumed engine genuinely follows (the shallower views of the
        interrupted schedule are unrecoverable: the forest is already
        committed deeper, so this is the strongest exactness available)."""
        engine = WellFoundedEngine(
            INFINITE_CHAIN,
            max_nodes=5,
            max_depth=21,
            saturation=saturation,
        )
        with pytest.raises(GroundingError):
            engine.model()
        committed = engine._chase.depth_bound
        partial_nodes = len(engine._chase.forest)
        engine.max_nodes = 100_000
        model = engine.model()
        mirror = WellFoundedEngine(
            INFINITE_CHAIN,
            initial_depth=committed,
            max_depth=21,
            saturation=saturation,
        ).model()
        assert model.true_atoms() == mirror.true_atoms()
        assert model.false_atoms() == mirror.false_atoms()
        assert model.undefined_atoms() == mirror.undefined_atoms()
        assert model.converged == mirror.converged
        assert model.depth == mirror.depth
        # the resume continued from the partial forest rather than restarting
        assert partial_nodes <= len(engine._chase.forest)
        # and the values it shares with a fully fresh engine's segment agree
        fresh = WellFoundedEngine(INFINITE_CHAIN, max_depth=21, saturation=saturation).model()
        for atom in fresh.segment_atoms() & model.segment_atoms():
            assert model.value(atom) == fresh.value(atom)

    def test_mid_schedule_resume_does_not_fake_convergence(self):
        """Regression: a budget failure *past the first deepening step* leaves
        the chase committed deeper than the schedule; a naive retry would
        compare the committed forest to itself and report ``converged=True``.
        The resumed schedule must fast-forward to the committed bound and keep
        gathering genuine depth-vs-depth evidence."""
        rotation = """
        p(X,Y) -> exists Z q(Y,Z).
        q(X,Y) -> exists Z r(Y,Z).
        r(X,Y) -> exists Z p(Y,Z).
        p(a,b).
        """
        fresh = WellFoundedEngine(rotation, max_depth=9).model()
        assert not fresh.converged  # the rotation never stabilises by depth 9
        tight = WellFoundedEngine(rotation, max_depth=9, max_nodes=4)
        with pytest.raises(GroundingError):
            tight.model()
        assert tight._chase.depth_bound > tight.initial_depth  # mid-schedule
        tight.max_nodes = 100_000
        resumed = tight.model()
        assert resumed.converged == fresh.converged
        assert resumed.depth == fresh.depth
        assert resumed.true_atoms() == fresh.true_atoms()
        assert resumed.false_atoms() == fresh.false_atoms()
        assert resumed.undefined_atoms() == fresh.undefined_atoms()

    def test_chase_engine_expand_is_resumable(self):
        """The chase layer itself resumes an interrupted saturation pass."""
        program, database = parse_program(INFINITE_CHAIN)
        skolemized = skolemize_program(program)
        engine = GuardedChaseEngine(skolemized, database, max_nodes=3)
        with pytest.raises(GroundingError):
            engine.expand(14)
        # same budget: a retry (even at a smaller requested depth) re-raises
        with pytest.raises(GroundingError):
            engine.expand(2)
        engine.max_nodes = 200
        engine.expand(2)  # resumes and finishes the committed depth bound
        reference = GuardedChaseEngine(skolemized, database)
        reference.expand(14)
        assert engine.forest.labels() == reference.forest.labels()
        assert frozenset(engine.forest.edge_rules()) == frozenset(
            reference.forest.edge_rules()
        )
