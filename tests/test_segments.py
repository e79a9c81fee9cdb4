"""Tests for the chase-segment cache (:mod:`repro.chase.segments`)."""

from __future__ import annotations

import pytest

from repro.bench.generators import paper_example_program
from repro.chase.engine import GuardedChaseEngine, chase_forest
from repro.chase.segments import SegmentStore, program_fingerprint
from repro.chase.types import shape_key
from repro.cli import main
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom, parse_program
from repro.lang.program import Database
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, FunctionTerm


def n(name: str) -> FunctionTerm:
    """A labelled null."""
    return FunctionTerm(name, ())


class TestCanonicalAtomShape:
    def test_equal_up_to_null_renaming(self):
        left = Atom("p", (Constant("a"), n("f1"), n("f2")))
        right = Atom("p", (Constant("a"), n("g7"), n("g9")))
        assert shape_key(left) == shape_key(right)

    def test_null_equality_pattern_distinguishes(self):
        repeated = Atom("p", (n("f1"), n("f1")))
        distinct = Atom("p", (n("f1"), n("f2")))
        assert shape_key(repeated) != shape_key(distinct)

    def test_constants_are_fixed(self):
        assert shape_key(Atom("p", (Constant("a"),))) != shape_key(
            Atom("p", (Constant("b"),))
        )

    def test_predicate_distinguishes(self):
        assert shape_key(Atom("p", ())) != shape_key(Atom("q", ()))


class TestProgramFingerprint:
    def _rules(self, text: str):
        program, _ = parse_program(text)
        return list(skolemize_program(program))

    def test_order_invariant(self):
        a = self._rules("p(X) -> q(X). q(X) -> r(X).")
        b = self._rules("q(X) -> r(X). p(X) -> q(X).")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_different_rules_differ(self):
        a = self._rules("p(X) -> q(X).")
        b = self._rules("p(X) -> r(X).")
        assert program_fingerprint(a) != program_fingerprint(b)


#: Stand-ins for recorded derivations: the store never looks inside them.
ONE = (("d0",),)
TWO = (("d0",), ("d1",))


class TestSegmentStore:
    def test_record_lookup_roundtrip(self):
        store = SegmentStore()
        root = Atom("p", (n("f"),))
        shape = shape_key(root)
        assert store.lookup(shape, root) is None
        assert store.record(shape, 3, root, TWO)
        segment = store.lookup(shape, root)
        assert segment.relative_depth == 3 and segment.derivations == TWO
        assert segment.root_label == root
        assert store.stats()["hits"] == 1 and store.stats()["misses"] == 1
        # same key, another root label: a miss
        assert store.lookup(shape, Atom("p", (n("g"),))) is None
        assert store.stats()["hits"] == 1 and store.stats()["misses"] == 2

    def test_only_deeper_recordings_replace(self):
        store = SegmentStore()
        root = Atom("p", ())
        shape = shape_key(root)
        assert store.record(shape, 3, root, ONE)
        assert not store.record(shape, 3, root, TWO)
        assert not store.record(shape, 2, root, ())
        assert store.lookup(shape, root).relative_depth == 3
        assert store.record(shape, 4, root, ONE)
        assert store.lookup(shape, root).relative_depth == 4

    def test_zero_depth_empty_and_oversized_segments_rejected(self):
        store = SegmentStore(max_segment_nodes=1)
        root = Atom("p", ())
        shape = shape_key(root)
        assert not store.record(shape, 0, root, ONE)
        assert not store.record(shape, 2, root, ())  # "no children" is DB-dependent
        assert not store.record(shape, 2, root, TWO)
        assert len(store) == 0

    def test_lru_eviction(self):
        store = SegmentStore(max_segments=2)
        roots = [Atom(f"p{i}", ()) for i in range(3)]
        for root in roots:
            store.record(shape_key(root), 1, root, ONE)
        assert len(store) == 2
        assert store.lookup(shape_key(roots[0]), roots[0]) is None  # evicted first
        assert store.stats()["evictions"] == 1


def _forest_signature(engine: WellFoundedEngine):
    """Everything structural about an engine's chase segment and model.

    The forest and ``(depth, converged, iterations)`` are the chase plan's,
    which a finite-plan model runs when its forest is requested.
    """
    model = engine.model()
    forest = model.forest()
    chase = engine._chase_model()
    labels = forest.labels()
    return (
        labels,
        frozenset(forest.edge_rules()),
        {atom: (forest.depth_of_atom(atom), forest.level_of_atom(atom)) for atom in labels},
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        chase.true_atoms(),
        chase.false_atoms(),
        chase.undefined_atoms(),
        (chase.depth, chase.converged, chase.iterations),
    )


class TestCachedChaseEquality:
    def test_paper_example_identical_with_and_without_cache(self):
        program, database = paper_example_program(2)
        uncached = WellFoundedEngine(program, database, segment_cache=False)
        store = SegmentStore()
        cold = WellFoundedEngine(program, database, segment_cache=store)
        warm = WellFoundedEngine(program, database, segment_cache=store)
        expected = _forest_signature(uncached)
        assert _forest_signature(cold) == expected
        assert _forest_signature(warm) == expected

    def test_store_persists_across_engine_instances(self):
        program, database = paper_example_program(1)
        store = SegmentStore()
        first = WellFoundedEngine(program, database, segment_cache=store)
        first.model()
        assert first.segment_cache_stats()["segments_recorded"] > 0
        second = WellFoundedEngine(program, database, segment_cache=store)
        second.model()
        stats = second.segment_cache_stats()
        assert stats["nodes_spliced"] > 0, "warm engine should splice, not re-derive"
        assert stats["segments_recorded"] == 0, "the store already knew every type"
        assert stats["store"]["hits"] > 0

    def test_store_is_database_independent(self):
        """Same rules, different database: deep (all-null) types still splice."""
        program, database = paper_example_program(0)
        store = SegmentStore()
        WellFoundedEngine(program, database, segment_cache=store).model()
        _, other_database = paper_example_program(3)
        engine = WellFoundedEngine(program, other_database, segment_cache=store)
        expected = _forest_signature(
            WellFoundedEngine(program, other_database, segment_cache=False)
        )
        assert _forest_signature(engine) == expected
        assert engine.segment_cache_stats()["nodes_spliced"] > 0

    def test_stale_segment_is_superseded_not_pinned(self):
        """Regression: a segment recorded from a poorer database must not
        suppress recording the complete subtree observed later — one hit on a
        stale (here: would-be empty) segment used to block re-recording
        forever, so repeated runs re-derived the difference every time."""
        program = "p(X), q(X) -> r(X)."
        poor = Database([Atom("p", (Constant("a"),))])
        rich = Database([Atom("p", (Constant("a"),)), Atom("q", (Constant("a"),))])
        # the program is function-free, so model() takes the finite plan; the
        # forest requests run the chase plan this test is about.  p(a) alone
        # fires nothing; the rich database derives r(a), which must be recorded
        store = SegmentStore()
        WellFoundedEngine(program, poor, segment_cache=store).chase_forest()
        WellFoundedEngine(program, rich, segment_cache=store).chase_forest()
        third = WellFoundedEngine(program, rich, segment_cache=store)
        third.chase_forest()
        assert third.holds("? r(a)")
        assert third.segment_cache_stats()["nodes_spliced"] > 0, (
            "third engine should splice r(a), not re-derive it",
            third.segment_cache_stats(),
        )

    def test_disabled_cache_reports_disabled(self):
        program, database = paper_example_program(0)
        engine = WellFoundedEngine(program, database, segment_cache=False)
        engine.model()
        stats = engine.segment_cache_stats()
        assert stats["enabled"] is False and "store" not in stats

    def test_default_engine_records_nothing(self):
        engine = WellFoundedEngine(*paper_example_program(0))
        assert engine.holds("? t(X), not s(X)")
        assert engine.model().depth is not None  # the chase plan answered
        stats = engine.segment_cache_stats()
        assert stats["enabled"] is False and "store" not in stats
        assert stats["segments_recorded"] == 0

    def test_engines_share_segments_only_through_a_passed_store(self):
        program, database = paper_example_program(1)
        expected = _forest_signature(WellFoundedEngine(program, database))
        store = SegmentStore()
        WellFoundedEngine(program, database, segment_cache=store).model()
        second = WellFoundedEngine(program, database, segment_cache=store)
        assert _forest_signature(second) == expected
        assert second.segment_cache_stats()["hits"] > 0
        # segment_cache=True is a store of the engine's own: a second such
        # engine starts as cold as the first
        first = WellFoundedEngine(program, database, segment_cache=True)
        first.model()
        alone = WellFoundedEngine(program, database, segment_cache=True)
        assert _forest_signature(alone) == expected
        assert alone.segment_cache_stats() == first.segment_cache_stats()


class TestSharedNullCollisions:
    """Frontier atoms sharing a null must keep their own identities."""

    PROGRAM = """
    a(X) -> exists Y r(X, Y).
    r(X, Y) -> p(Y).
    r(X, Y) -> q(Y).
    p(X), not q(X) -> only_p(X).
    a(c1).
    a(c2).
    """

    def test_shared_nulls_are_not_merged_across_siblings(self):
        """p(ν) and q(ν) share the null ν of r(c, ν); p's and q's shapes
        coincide across the two chains, yet each splice must reuse *its own*
        chain's null, never the other chain's."""
        uncached = WellFoundedEngine(self.PROGRAM, segment_cache=False)
        store = SegmentStore()
        cold = WellFoundedEngine(self.PROGRAM, segment_cache=store)
        warm = WellFoundedEngine(self.PROGRAM, segment_cache=store)
        expected = _forest_signature(uncached)
        assert _forest_signature(cold) == expected
        assert _forest_signature(warm) == expected
        forest = warm.model().forest()
        # Every p-node's null must be the null of an r-node of the same tree.
        for node in forest.nodes():
            if node.label.predicate in ("p", "q"):
                parent = forest.parent(node.node_id)
                assert parent.label.predicate == "r"
                assert node.label.args[0] == parent.label.args[1]

    def test_per_chain_answers_unchanged(self):
        engine = WellFoundedEngine(self.PROGRAM, segment_cache=True)
        baseline = WellFoundedEngine(self.PROGRAM, segment_cache=False)
        for query in ("? p(X)", "? q(X)", "? only_p(X)"):
            assert engine.holds(query) == baseline.holds(query), query


class TestChaseEngineCache:
    def _skolemized(self, text: str):
        program, database = parse_program(text)
        return skolemize_program(program), database

    def test_chase_forest_accepts_store(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = SegmentStore()
        first = chase_forest(rules, database, 6, segment_cache=store)
        second = chase_forest(rules, database, 6, segment_cache=store)
        plain = chase_forest(rules, database, 6)
        assert first.labels() == second.labels() == plain.labels()
        assert set(first.edge_rules()) == set(second.edge_rules()) == set(plain.edge_rules())
        assert store.stats()["hits"] > 0

    def test_splice_respects_depth_bound(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = SegmentStore()
        chase_forest(rules, database, 10, segment_cache=store)
        shallow = chase_forest(rules, database, 4, segment_cache=store)
        assert shallow.max_depth() <= 4
        assert shallow.labels() == chase_forest(rules, database, 4).labels()

    def test_splice_respects_node_budget(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = SegmentStore()
        chase_forest(rules, database, 12, segment_cache=store)
        engine = GuardedChaseEngine(rules, database, max_nodes=5, segment_cache=store)
        with pytest.raises(GroundingError):
            engine.expand(12)

    @pytest.mark.parametrize("segment_cache", [True, False])
    def test_only_a_store_or_none_is_accepted(self, segment_cache):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). e(c).")
        with pytest.raises(TypeError):
            GuardedChaseEngine(rules, database, segment_cache=segment_cache)

    def test_deepening_engine_equals_one_shot_forest(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = SegmentStore()
        engine = GuardedChaseEngine(rules, database, segment_cache=store)
        engine.expand(4)
        engine.expand(8)
        plain = chase_forest(rules, database, 8)
        assert engine.forest.labels() == plain.labels()
        for atom in plain.labels():
            assert engine.forest.level_of_atom(atom) == plain.level_of_atom(atom)


class TestCLISegmentCacheFlags:
    PROGRAM = """
    scientist(X) -> exists Y isAuthorOf(X, Y).
    scientist(john).
    """

    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "prog.dlp"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_flag_defaults_to_disabled(self):
        from repro.cli import build_argument_parser

        args = build_argument_parser().parse_args(["prog.dlp"])
        assert args.segment_cache is False
        args = build_argument_parser().parse_args(["prog.dlp", "--segment-cache"])
        assert args.segment_cache is True

    def test_answers_identical_either_way(self, program_file, capsys):
        assert main([program_file, "--segment-cache", "--query", "? isAuthorOf(john, Y)"]) == 0
        with_cache = capsys.readouterr().out
        assert main([program_file, "--query", "? isAuthorOf(john, Y)"]) == 0
        without_cache = capsys.readouterr().out
        assert with_cache == without_cache
        assert "? isAuthorOf(john, Y) : yes" in with_cache

    def test_verbose_prints_cache_stats(self, program_file, capsys):
        # the finite plan builds no chase: zero traffic and no store line
        assert main([program_file, "--verbose", "--segment-cache",
                     "--query", "? scientist(john)"]) == 0
        out = capsys.readouterr().out
        assert "# segment-cache:" in out
        assert "# segment-store:" not in out
        # the chase plan fills the store
        assert main([program_file, "--verbose", "--segment-cache", "--saturation", "scan",
                     "--query", "? scientist(john)"]) == 0
        out = capsys.readouterr().out
        assert "# segment-cache:" in out
        assert "# segment-store:" in out

    def test_verbose_with_cache_disabled(self, program_file, capsys):
        assert main([program_file, "--verbose", "--no-segment-cache", "--atom", "scientist(john)"]) == 0
        out = capsys.readouterr().out
        assert "# segment-cache:" in out
        assert "enabled=False" in out


# ---------------------------------------------------------------------------
# PR 5 satellites: unified splice placement, cold context-sensitive keys
# ---------------------------------------------------------------------------


# the canonical raw-forest identity (root label + rule path + depth/level),
# shared with the agenda differential suite so every differential compares
# the same notion of forest equality
from test_chase_agenda import forest_signature as _chase_signature  # noqa: E402
from test_segment_properties import assert_edges_attributed  # noqa: E402


class TestUnifiedSplicePlacement:
    """Segments are placed by one replay, ``_replay_segment``.

    This differential pins warm ≡ recorder ≡ underived forests, with the
    replay proven to actually run.
    """

    PROGRAM = """
    scientist(X) -> exists Y isAuthorOf(X, Y).
    isAuthorOf(X, Y) -> exists Z cites(Y, Z).
    cites(Y, Z) -> article(Z).
    scientist(john).
    scientist(jane).
    """

    def _engines(self, depth=6):
        program, database = parse_program(self.PROGRAM)
        skolemized = skolemize_program(program)
        store = SegmentStore()
        recorder = GuardedChaseEngine(skolemized, database, segment_cache=store)
        recorder.expand(depth)
        return program, database, skolemized, store, recorder, depth

    def test_memoised_equals_validated_equals_underived(self):
        program, database, skolemized, store, recorder, depth = self._engines()
        expected = _chase_signature(recorder.forest)

        # the recorder stored its segments, so this engine splices them
        warm = GuardedChaseEngine(skolemized, database, segment_cache=store)
        warm.expand(depth)
        assert warm.cache_stats["nodes_spliced"] > 0

        # reference: no cache at all
        underived = GuardedChaseEngine(skolemized, database)
        underived.expand(depth)

        assert _chase_signature(warm.forest) == expected
        assert _chase_signature(underived.forest) == expected

    def test_memo_path_actually_taken(self):
        _, database, skolemized, store, recorder, depth = self._engines()
        replayed = GuardedChaseEngine(skolemized, database, segment_cache=store)
        calls = []
        original = replayed._replay_segment

        def spy(root_id, segment, max_depth):
            result = original(root_id, segment, max_depth)
            calls.append(bool(result))
            return result

        replayed._replay_segment = spy
        replayed.expand(depth)
        assert any(calls), "expected at least one replay that placed nodes"
        assert _chase_signature(replayed.forest) == _chase_signature(recorder.forest)

    def test_replay_never_places_a_rule_the_engine_lacks(self):
        """Two programs share an explicit store.  Their rules differ but
        Skolemise to the same function name, so the first program's segment
        for the root ``p(a)`` would place ``q(a, sk_r0_Y(a))``, which the
        second program cannot derive.  Segment keys carry the rule-set
        fingerprint, so the second engine's lookup misses instead."""
        store = SegmentStore()
        first, database = parse_program("p(X) -> exists Y q(X, Y). p(a).")
        GuardedChaseEngine(skolemize_program(first), database, segment_cache=store).expand(3)
        second, database = parse_program("p(X) -> exists Y r(X, Y). p(a).")
        cached = GuardedChaseEngine(skolemize_program(second), database, segment_cache=store)
        cached.expand(3)
        assert cached.cache_stats["hits"] == 0 and cached.cache_stats["misses"] >= 1
        uncached = GuardedChaseEngine(skolemize_program(second), database)
        uncached.expand(3)
        assert _chase_signature(cached.forest) == _chase_signature(uncached.forest)

    def test_replay_never_skips_a_rule_the_recording_engine_lacked(self):
        """The converse: the recording program lacks ``q(X, Y) -> s(Y)``, so
        its segment under ``p(a)`` never derives ``s(sk_r0_Y(a))``.  A splice
        into the second program would skip the spliced ``q`` node's own
        firings; keyed by fingerprint, the second engine derives them."""
        store = SegmentStore()
        first, database = parse_program("p(X) -> exists Y q(X, Y). p(a).")
        GuardedChaseEngine(skolemize_program(first), database, segment_cache=store).expand(3)
        second, database = parse_program(
            "p(X) -> exists Y q(X, Y). q(X, Y) -> s(Y). p(a)."
        )
        cached = GuardedChaseEngine(skolemize_program(second), database, segment_cache=store)
        cached.expand(3)
        uncached = GuardedChaseEngine(skolemize_program(second), database)
        uncached.expand(3)
        assert cached.forest.has_label(parse_atom("s(sk_r0_Y(a))"))
        assert _chase_signature(cached.forest) == _chase_signature(uncached.forest)


class TestColdContextSensitiveKeys:
    """A context that only materialises during saturation changes nothing.

    ``gate(X)`` is derived (not a database fact), so a fresh engine's lookup
    key for ``start(c)`` has an empty context while the recording key carries
    ``gate(c)``.  Whatever the store then holds, a second fresh engine must
    build the forest the first one and an uncached engine build.
    """

    PROGRAM = """
    start(X) -> gate(X).
    start(X) -> exists Y step(X, Y).
    step(X, Y), gate(X) -> good(Y).
    start(c1).
    start(c2).
    """

    def test_second_engine_equals_first_and_uncached(self):
        program, database = parse_program(self.PROGRAM)
        skolemized = skolemize_program(program)
        store = SegmentStore()

        first = GuardedChaseEngine(skolemized, database, segment_cache=store)
        first.expand(4)

        second = GuardedChaseEngine(skolemized, database, segment_cache=store)
        second.expand(4)
        assert _chase_signature(second.forest) == _chase_signature(first.forest)

        uncached = GuardedChaseEngine(skolemized, database)
        uncached.expand(4)
        assert _chase_signature(second.forest) == _chase_signature(uncached.forest)

    def test_wellfounded_engine_end_to_end_warm(self):
        store = SegmentStore()
        engine_a = WellFoundedEngine(*parse_program(self.PROGRAM), segment_cache=store)
        assert engine_a.holds("? good(Y)")
        engine_b = WellFoundedEngine(*parse_program(self.PROGRAM), segment_cache=store)
        assert engine_b.holds("? good(Y)")


class TestSharedRegistryConcurrency:
    """``SegmentStore.record`` reports whether it kept a segment, so an engine
    pins exactly what the store holds.  (The class name predates the removal
    of the store registry and its lock; a store is not thread-safe.)
    """

    def test_record_returns_the_stored_segment_for_pinning(self):
        store = SegmentStore()
        root = Atom("p", ())
        shape = shape_key(root)
        assert store.record(shape, 2, root, ONE) is True
        assert store.lookup(shape, root).derivations == ONE
        # a rejected recording reports False and leaves the stored segment
        assert store.record(shape, 1, root, TWO) is False
        assert store.lookup(shape, root).derivations == ONE


class TestEdgeAttribution:
    """Segments name each edge's rule as recorded when the edge was placed.

    Here two canonical rules give the same ground instance ``p(a, a) ->
    q(a)`` at one parent, so only one of them places the edge.  Whichever it
    is, the recorded rule must re-derive the edge, and engines over either
    rule order, handed one store, share its segments (same fingerprint)
    without changing the forest.
    """

    RULES = ("p(X, X) -> q(X).", "p(X, Y) -> q(X).")

    def _engine(self, rules, **options):
        return WellFoundedEngine(" ".join(rules) + " p(a, a).", **options)

    def test_cold_and_warm_equal_uncached(self):
        expected = _forest_signature(self._engine(self.RULES))
        store = SegmentStore()
        cold = self._engine(self.RULES, segment_cache=store)
        assert _forest_signature(cold) == expected
        assert cold.segment_cache_stats()["segments_recorded"] > 0
        for rules in (self.RULES, self.RULES[::-1]):
            warm = self._engine(rules, segment_cache=store)
            assert _forest_signature(warm) == expected
            assert warm.segment_cache_stats()["nodes_spliced"] > 0
            assert_edges_attributed(warm._chase)
        assert_edges_attributed(cold._chase)
