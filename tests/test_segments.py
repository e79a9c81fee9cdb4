"""Tests for the chase-segment cache (:mod:`repro.chase.segments`)."""

from __future__ import annotations

import pytest

from repro.bench.generators import paper_example_program
from repro.chase.engine import GuardedChaseEngine, chase_forest
from repro.chase.segments import (
    SegmentStore,
    canonical_atom_shape,
    clear_segment_stores,
    program_fingerprint,
    segment_store_info,
    shared_segment_store,
)
from repro.cli import main
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_program
from repro.lang.program import Database
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, FunctionTerm


@pytest.fixture(autouse=True)
def _fresh_stores():
    """Each test starts and ends with an empty segment-store registry."""
    clear_segment_stores()
    yield
    clear_segment_stores()


def n(name: str) -> FunctionTerm:
    """A labelled null."""
    return FunctionTerm(name, ())


class TestCanonicalAtomShape:
    def test_equal_up_to_null_renaming(self):
        left = Atom("p", (Constant("a"), n("f1"), n("f2")))
        right = Atom("p", (Constant("a"), n("g7"), n("g9")))
        assert canonical_atom_shape(left) == canonical_atom_shape(right)

    def test_null_equality_pattern_distinguishes(self):
        repeated = Atom("p", (n("f1"), n("f1")))
        distinct = Atom("p", (n("f1"), n("f2")))
        assert canonical_atom_shape(repeated) != canonical_atom_shape(distinct)

    def test_constants_are_fixed(self):
        assert canonical_atom_shape(Atom("p", (Constant("a"),))) != canonical_atom_shape(
            Atom("p", (Constant("b"),))
        )

    def test_predicate_distinguishes(self):
        assert canonical_atom_shape(Atom("p", ())) != canonical_atom_shape(Atom("q", ()))


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

    def test_shared_store_is_per_fingerprint(self):
        rules = self._rules("p(X) -> q(X).")
        assert shared_segment_store(rules) is shared_segment_store(list(rules))
        other = self._rules("p(X) -> r(X).")
        assert shared_segment_store(rules) is not shared_segment_store(other)


class TestSegmentStore:
    def test_record_lookup_roundtrip(self):
        store = SegmentStore("fp")
        shape = canonical_atom_shape(Atom("p", (n("f"),)))
        assert store.lookup(shape) is None
        assert store.record(shape, 3, ((0, 0), (1, 1)))
        segment = store.lookup(shape)
        assert segment.relative_depth == 3 and segment.entries == ((0, 0), (1, 1))
        assert store.stats()["hits"] == 1 and store.stats()["misses"] == 1

    def test_only_deeper_recordings_replace(self):
        store = SegmentStore("fp")
        shape = canonical_atom_shape(Atom("p", ()))
        assert store.record(shape, 3, ((0, 0),))
        assert not store.needs(shape, 3)
        assert not store.record(shape, 2, ())
        assert store.lookup(shape).relative_depth == 3
        assert store.needs(shape, 4)

    def test_zero_depth_empty_and_oversized_segments_rejected(self):
        store = SegmentStore("fp", max_segment_nodes=1)
        shape = canonical_atom_shape(Atom("p", ()))
        assert not store.record(shape, 0, ((0, 0),))
        assert not store.record(shape, 2, ())  # "no children" is DB-dependent
        assert not store.record(shape, 2, ((0, 0), (1, 0)))
        assert len(store) == 0

    def test_stale_equal_depth_segment_is_replaced_by_larger(self):
        store = SegmentStore("fp")
        shape = canonical_atom_shape(Atom("p", ()))
        assert store.record(shape, 2, ((0, 0),))
        assert not store.record(shape, 2, ((0, 1),))  # same depth, same size
        assert store.record(shape, 2, ((0, 0), (1, 1)))  # same depth, larger
        assert store.lookup(shape).entries == ((0, 0), (1, 1))

    def test_lru_eviction(self):
        store = SegmentStore("fp", max_segments=2)
        shapes = [canonical_atom_shape(Atom(f"p{i}", ())) for i in range(3)]
        for shape in shapes:
            store.record(shape, 1, ((0, 0),))
        assert len(store) == 2
        assert store.lookup(shapes[0]) is None  # evicted first
        assert store.stats()["evictions"] == 1


def _forest_signature(engine: WellFoundedEngine):
    """Everything structural about an engine's chase segment and model."""
    model = engine.model()
    forest = model.forest()
    labels = forest.labels()
    return (
        labels,
        frozenset(forest.edge_rules()),
        {atom: (forest.depth_of_atom(atom), forest.level_of_atom(atom)) for atom in labels},
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        (model.depth, model.converged, model.iterations),
    )


class TestCachedChaseEquality:
    def test_paper_example_identical_with_and_without_cache(self):
        program, database = paper_example_program(2)
        uncached = WellFoundedEngine(program, database, segment_cache=False)
        cold = WellFoundedEngine(program, database, segment_cache=True)
        warm = WellFoundedEngine(program, database, segment_cache=True)
        expected = _forest_signature(uncached)
        assert _forest_signature(cold) == expected
        assert _forest_signature(warm) == expected

    def test_store_persists_across_engine_instances(self):
        program, database = paper_example_program(1)
        first = WellFoundedEngine(program, database, segment_cache=True)
        first.model()
        assert first.segment_cache_stats()["segments_recorded"] > 0
        second = WellFoundedEngine(program, database, segment_cache=True)
        second.model()
        stats = second.segment_cache_stats()
        assert stats["nodes_spliced"] > 0, "warm engine should splice, not re-derive"
        assert stats["segments_recorded"] == 0, "the store already knew every type"
        assert stats["store"]["hits"] > 0

    def test_store_is_database_independent(self):
        """Same rules, different database: deep (all-null) types still splice."""
        program, database = paper_example_program(0)
        WellFoundedEngine(program, database, segment_cache=True).model()
        _, other_database = paper_example_program(3)
        engine = WellFoundedEngine(program, other_database, segment_cache=True)
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
        WellFoundedEngine(program, poor, segment_cache=True).model()  # p(a) alone: no firing
        WellFoundedEngine(program, rich, segment_cache=True).model()  # derives r(a), must record it
        third = WellFoundedEngine(program, rich, segment_cache=True)
        third.model()
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
        assert segment_store_info()["stores"] == 0


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
        cold = WellFoundedEngine(self.PROGRAM, segment_cache=True)
        warm = WellFoundedEngine(self.PROGRAM, segment_cache=True)
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
        store = shared_segment_store(rules)
        first = chase_forest(rules, database, 6, segment_cache=store)
        second = chase_forest(rules, database, 6, segment_cache=store)
        plain = chase_forest(rules, database, 6)
        assert first.labels() == second.labels() == plain.labels()
        assert set(first.edge_rules()) == set(second.edge_rules()) == set(plain.edge_rules())
        assert store.stats()["hits"] > 0

    def test_splice_respects_depth_bound(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = shared_segment_store(rules)
        chase_forest(rules, database, 10, segment_cache=store)
        shallow = chase_forest(rules, database, 4, segment_cache=store)
        assert shallow.max_depth() <= 4
        assert shallow.labels() == chase_forest(rules, database, 4).labels()

    def test_splice_respects_node_budget(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = shared_segment_store(rules)
        chase_forest(rules, database, 12, segment_cache=store)
        engine = GuardedChaseEngine(rules, database, max_nodes=5, segment_cache=store)
        with pytest.raises(GroundingError):
            engine.expand(12)

    def test_deepening_engine_reuses_own_segments(self):
        rules, database = self._skolemized("e(X) -> exists Y n(X, Y). n(X,Y) -> e(Y). e(c).")
        store = shared_segment_store(rules)
        engine = GuardedChaseEngine(rules, database, segment_cache=store)
        engine.expand(4)
        engine.expand(8)
        assert engine.cache_stats["nodes_spliced"] > 0
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

    def test_flag_defaults_to_enabled(self):
        from repro.cli import build_argument_parser

        args = build_argument_parser().parse_args(["prog.dlp"])
        assert args.segment_cache is True
        args = build_argument_parser().parse_args(["prog.dlp", "--no-segment-cache"])
        assert args.segment_cache is False

    def test_answers_identical_either_way(self, program_file, capsys):
        assert main([program_file, "--query", "? isAuthorOf(john, Y)"]) == 0
        with_cache = capsys.readouterr().out
        assert (
            main([program_file, "--no-segment-cache", "--query", "? isAuthorOf(john, Y)"])
            == 0
        )
        without_cache = capsys.readouterr().out
        assert with_cache == without_cache
        assert "? isAuthorOf(john, Y) : yes" in with_cache

    def test_verbose_prints_cache_stats(self, program_file, capsys):
        assert main([program_file, "--verbose", "--query", "? scientist(john)"]) == 0
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
    """The memoised replay and the validated replay share one placement core.

    ``_replay_memoised`` and ``_instantiate_segment`` both place derivations
    exclusively through ``_place_one_derivation``; this differential pins
    replayed ≡ instantiated ≡ underived forests, with the memo path proven to
    actually run.
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
        store = SegmentStore("unified-splice-test")
        recorder = GuardedChaseEngine(skolemized, database, segment_cache=store)
        recorder.expand(depth)
        return program, database, skolemized, store, recorder, depth

    def test_memoised_equals_validated_equals_underived(self, monkeypatch):
        program, database, skolemized, store, recorder, depth = self._engines()
        expected = _chase_signature(recorder.forest)

        # fast path: the recorder seeded replay memos, so this engine places
        # subtrees through _replay_memoised
        memoised = GuardedChaseEngine(skolemized, database, segment_cache=store)
        memoised.expand(depth)
        assert memoised.cache_stats["nodes_spliced"] > 0

        # validated path: disable the memo lookups so the same splices run
        # through _instantiate_segment's guard-matching replay
        validated = GuardedChaseEngine(skolemized, database, segment_cache=store)
        monkeypatch.setattr(
            store, "replay_lookup", lambda key, root_label: None
        )
        validated.expand(depth)
        assert validated.cache_stats["nodes_spliced"] > 0

        # reference: no cache at all
        underived = GuardedChaseEngine(skolemized, database, segment_cache=False)
        underived.expand(depth)

        assert _chase_signature(memoised.forest) == expected
        assert _chase_signature(validated.forest) == expected
        assert _chase_signature(underived.forest) == expected

    def test_memo_path_actually_taken(self):
        _, database, skolemized, store, recorder, depth = self._engines()
        replayed = GuardedChaseEngine(skolemized, database, segment_cache=store)
        calls = []
        original = replayed._replay_memoised

        def spy(root_id, memo, segment, max_depth):
            result = original(root_id, memo, segment, max_depth)
            calls.append(result is not None)
            return result

        replayed._replay_memoised = spy
        replayed.expand(depth)
        assert any(calls), "expected at least one successful memoised replay"
        assert _chase_signature(replayed.forest) == _chase_signature(recorder.forest)


class TestColdContextSensitiveKeys:
    """A context that only materialises during saturation must still hit.

    ``gate(X)`` is derived (not a database fact), so a fresh engine's lookup
    key for ``start(c)`` has an empty context while the recording key carries
    ``gate(c)`` — before the alias double-keying this was a guaranteed miss
    on every fresh engine over the same program (ROADMAP "Context-sensitive
    key hit-rate").
    """

    PROGRAM = """
    start(X) -> gate(X).
    start(X) -> exists Y step(X, Y).
    step(X, Y), gate(X) -> good(Y).
    start(c1).
    start(c2).
    """

    def test_second_fresh_engine_hits_through_the_alias(self):
        program, database = parse_program(self.PROGRAM)
        skolemized = skolemize_program(program)
        store = SegmentStore("cold-key-test")

        first = GuardedChaseEngine(skolemized, database, segment_cache=store)
        first.expand(4)
        assert first.cache_stats["hits"] == 0  # everything is cold
        assert store.stats()["aliases"] > 0  # cold keys were double-keyed

        second = GuardedChaseEngine(skolemized, database, segment_cache=store)
        second.expand(4)
        assert second.cache_stats["hits"] > 0, "cold key must now hit"
        assert second.cache_stats["nodes_spliced"] > 0
        assert store.stats()["alias_hits"] > 0
        assert _chase_signature(second.forest) == _chase_signature(first.forest)

        uncached = GuardedChaseEngine(skolemized, database, segment_cache=False)
        uncached.expand(4)
        assert _chase_signature(second.forest) == _chase_signature(uncached.forest)

    def test_alias_never_registered_for_incomparable_contexts(self):
        """Aliasing requires lookup context ⊆ recorded context."""
        store = SegmentStore("alias-guard-test")
        store.record(("shape",), 2, ((0, 0),))
        # a directly recorded key is never aliased away
        store.record_alias(("other",), ("missing",))  # target absent: ignored
        assert store.lookup(("other",)) is None
        store.record_alias(("shape",), ("shape",))  # self-alias: ignored
        assert store.stats()["aliases"] == 0

    def test_alias_dropped_when_target_evicted(self):
        store = SegmentStore("alias-evict-test", max_segments=1)
        store.record(("target",), 2, ((0, 0),))
        store.record_alias(("alias",), ("target",))
        assert store.lookup(("alias",)) is not None
        store.record(("other",), 2, ((0, 0),))  # evicts ("target",) (LRU=1)
        assert store.lookup(("alias",)) is None  # lazily dropped
        assert store.stats()["aliases"] == 0

    def test_wellfounded_engine_end_to_end_warm(self):
        engine_a = WellFoundedEngine(*parse_program(self.PROGRAM))
        assert engine_a.holds("? good(Y)")
        engine_b = WellFoundedEngine(*parse_program(self.PROGRAM))
        assert engine_b.holds("? good(Y)")
        stats = engine_b.segment_cache_stats()
        assert stats["hits"] > 0, stats


class TestSharedRegistryConcurrency:
    """The satellite bugfix: every registry mutation — record, alias drops,
    replay memoization — runs under the store lock, and ``replay_record``
    refuses to attach a memo computed from a segment the store has since
    superseded (the compare-and-memoize identity check).  Two engines
    hammering one persistent registry concurrently must build forests
    bit-identical to their uncached references.
    """

    def test_record_returns_the_stored_segment_for_pinning(self):
        from repro.chase.segments import canonical_atom_shape

        store = SegmentStore("pin-fp")
        shape = canonical_atom_shape(Atom("p", ()))
        stored = store.record(shape, 2, ((0, 0),))
        assert stored is store.lookup(shape)
        # a rejected recording returns None, not a stale object
        assert store.record(shape, 1, ((0, 1),)) is None

    def test_replay_memo_from_superseded_segment_is_dropped(self):
        from repro.chase.segments import canonical_atom_shape

        store = SegmentStore("memo-fp")
        shape = canonical_atom_shape(Atom("p", ()))
        first = store.record(shape, 2, ((0, 0),))
        second = store.record(shape, 3, ((0, 0), (1, 1)))
        assert second is not None and second is not first
        # a memo computed against `first` must not attach to `second`
        store.replay_record(shape, Atom("p", ()), ((0, 0),), segment=first)
        assert store.replay_lookup(shape, Atom("p", ())) is None
        store.replay_record(shape, Atom("p", ()), ((0, 0),), segment=second)
        assert store.replay_lookup(shape, Atom("p", ())) == ((0, 0),)

    def test_two_engines_share_one_registry_concurrently(self):
        import threading

        program, _ = parse_program(
            "alarm(X) -> page(X).\npage(X) -> escalate(X).\nescalate(X) -> archive(X).\n"
        )
        skolemized = list(skolemize_program(program))

        def facts(tag: str, count: int) -> list[Atom]:
            return [Atom("alarm", (Constant(f"{tag}{i}"),)) for i in range(count)]

        def signature(forest):
            return sorted(
                (node.depth, node.level, str(node.label), str(node.edge_rule))
                for node in forest.nodes()
            )

        reference = {}
        for tag in ("a", "b"):
            engine = GuardedChaseEngine(skolemized, facts(tag, 6), segment_cache=None)
            engine.expand(4)
            reference[tag] = signature(engine.forest)

        store = SegmentStore("stress-fp")
        errors: list[str] = []
        start = threading.Barrier(2, timeout=20)

        def hammer(tag: str) -> None:
            try:
                start.wait(timeout=20)
                for _ in range(8):
                    engine = GuardedChaseEngine(
                        skolemized, facts(tag, 6), segment_cache=store
                    )
                    engine.expand(4)
                    observed = signature(engine.forest)
                    if observed != reference[tag]:
                        errors.append(f"{tag}: cached forest diverged")
                        return
            except Exception as error:  # pragma: no cover - the regression
                errors.append(f"{tag}: {type(error).__name__}: {error}")

        threads = [threading.Thread(target=hammer, args=(tag,)) for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        # the registry stayed internally consistent and was genuinely shared
        stats = store.stats()
        assert stats["hits"] > 0
        assert len(store) > 0


class TestEdgeAttribution:
    """Segments name each edge's rule as recorded when the edge was placed.

    Here two canonical rules give the same ground instance ``p(a, a) ->
    q(a)`` at one parent, so only one of them places the edge.  Whichever it
    is, the recorded rule must re-derive the edge, and engines over either
    rule order share one store (same fingerprint) without changing the
    forest.
    """

    RULES = ("p(X, X) -> q(X).", "p(X, Y) -> q(X).")

    def _engine(self, rules, **options):
        return WellFoundedEngine(" ".join(rules) + " p(a, a).", **options)

    def test_cold_and_warm_equal_uncached(self):
        expected = _forest_signature(self._engine(self.RULES, segment_cache=False))
        cold = self._engine(self.RULES)
        assert _forest_signature(cold) == expected
        assert cold.segment_cache_stats()["segments_recorded"] > 0
        for rules in (self.RULES, self.RULES[::-1]):
            warm = self._engine(rules)
            assert _forest_signature(warm) == expected
            assert warm.segment_cache_stats()["nodes_spliced"] > 0
            assert_edges_attributed(warm._chase)
        assert_edges_attributed(cold._chase)
