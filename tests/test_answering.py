"""Tests for the one-shot answering helpers (:mod:`repro.core.answering`)."""

from __future__ import annotations

import pytest

from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom, parse_program, parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Variable
from repro.core.answering import (
    answer_query,
    certain_answers,
    clear_engine_cache,
    engine_cache_info,
    holds_under_wfs,
    invalidate_engine,
    shared_engine,
)
from repro.core.engine import WellFoundedEngine

LITERATURE = """
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
isAuthorOf(X, Y), not retracted(Y) -> hasValidPublication(X).
scientist(john).
conferencePaper(pods13).
"""


class TestHoldsUnderWfs:
    def test_example_1_query(self):
        assert holds_under_wfs(LITERATURE, None, "? isAuthorOf(john, Y)")

    def test_negative_query_atoms_use_well_founded_falsity(self):
        assert holds_under_wfs(LITERATURE, None, "? isAuthorOf(john, Y), not retracted(Y)")

    def test_ground_atom_queries(self):
        assert holds_under_wfs(LITERATURE, None, parse_atom("article(pods13)"))
        assert not holds_under_wfs(LITERATURE, None, parse_atom("article(john)"))

    def test_explicit_database_argument(self):
        program, _ = parse_program("scientist(X) -> exists Y isAuthorOf(X, Y).")
        assert holds_under_wfs(program, "scientist(ada).", "? isAuthorOf(ada, Y)")

    def test_engine_options_are_forwarded(self):
        # A tiny max_depth still suffices here because the chase terminates.
        assert holds_under_wfs(
            LITERATURE, None, "? article(pods13)", initial_depth=2, max_depth=4
        )


class TestAnswerQuery:
    def test_certain_answers_are_constant_tuples(self):
        answers = answer_query(LITERATURE, None, "? article(X)")
        assert answers == {(Constant("pods13"),)}

    def test_nulls_are_filtered_unless_requested(self):
        with_nulls = answer_query(
            LITERATURE, None, "? isAuthorOf(john, Y)", constants_only=False
        )
        without_nulls = answer_query(LITERATURE, None, "? isAuthorOf(john, Y)")
        assert without_nulls == set()
        assert len(with_nulls) == 1

    def test_answer_query_accepts_cq_objects(self):
        query = ConjunctiveQuery(
            (Atom("hasValidPublication", (Variable("X"),)),), (Variable("X"),)
        )
        answers = answer_query(LITERATURE, None, query)
        assert answers == {(Constant("john"),)}


class TestEngineCache:
    """The module-level LRU that keeps repeated one-shot calls cheap."""

    def setup_method(self):
        clear_engine_cache()

    def teardown_method(self):
        clear_engine_cache()

    def test_repeated_calls_share_one_engine(self):
        assert holds_under_wfs(LITERATURE, None, "? article(pods13)")
        assert holds_under_wfs(LITERATURE, None, "? isAuthorOf(john, Y)")
        info = engine_cache_info()
        assert info["size"] == 1
        assert info["hits"] == 1 and info["misses"] == 1

    def test_shared_engine_is_identical_object_for_same_inputs(self):
        first = shared_engine(LITERATURE, None)
        second = shared_engine(LITERATURE, None)
        assert first is second

    def test_program_objects_are_keyed_by_identity(self):
        program, database = parse_program(LITERATURE)
        first = shared_engine(program, database)
        assert shared_engine(program, database) is first
        # a structurally equal but distinct program gets its own engine
        other_program, other_database = parse_program(LITERATURE)
        assert shared_engine(other_program, other_database) is not first

    def test_different_engine_options_get_different_engines(self):
        first = shared_engine(LITERATURE, None, max_depth=9)
        second = shared_engine(LITERATURE, None, max_depth=11)
        assert first is not second
        assert engine_cache_info()["size"] == 2

    def test_unkeyable_inputs_bypass_the_cache(self):
        program, _ = parse_program("conferencePaper(X) -> article(X).")
        atoms = [parse_atom("conferencePaper(pods13)")]
        engine = shared_engine(program, atoms)  # plain list: not cacheable
        assert engine_cache_info()["size"] == 0
        assert engine.holds("? article(pods13)")

    def test_eviction_beyond_capacity(self):
        from repro.core import answering

        programs = [parse_program(LITERATURE)[0] for _ in range(answering.ENGINE_CACHE_SIZE + 2)]
        engines = [shared_engine(p, None) for p in programs]
        assert engine_cache_info()["size"] == answering.ENGINE_CACHE_SIZE
        # the oldest entries were evicted, the newest survive
        assert shared_engine(programs[-1], None) is engines[-1]

    def test_mutated_database_is_not_served_stale(self):
        program, _ = parse_program("conferencePaper(X) -> article(X).")
        from repro.lang.program import Database

        database = Database([parse_atom("conferencePaper(pods13)")])
        assert holds_under_wfs(program, database, "? article(pods13)")
        database.add(parse_atom("conferencePaper(icdt19)"))
        # the append changed len(database), so a fresh engine must be built
        assert holds_under_wfs(program, database, "? article(icdt19)")
        # ... and the superseded engine must have been purged, not left to
        # occupy an LRU slot its key can never hit again
        assert engine_cache_info()["size"] == 1

    def test_add_remove_round_trip_is_not_served_stale(self):
        """Removal returns the database to its old `len` — the version-keyed
        cache must still miss, never resurrecting the pre-mutation engine."""
        from repro.lang.program import Database

        program, _ = parse_program("conferencePaper(X) -> article(X).")
        database = Database([parse_atom("conferencePaper(pods13)")])
        assert holds_under_wfs(program, database, "? article(pods13)")
        database.add(parse_atom("conferencePaper(icdt19)"))
        database.remove(parse_atom("conferencePaper(icdt19)"))
        assert len(database) == 1  # same size as when the engine was cached
        assert not holds_under_wfs(program, database, "? article(icdt19)")
        assert engine_cache_info()["size"] == 1

    def test_invalidate_engine_drops_matching_entries(self):
        from repro.lang.program import Database

        program, _ = parse_program("conferencePaper(X) -> article(X).")
        database = Database([parse_atom("conferencePaper(pods13)")])
        other_program, _ = parse_program("scientist(X) -> person(X).")
        shared_engine(program, database)
        shared_engine(other_program, None)
        assert engine_cache_info()["size"] == 2
        assert invalidate_engine(database=database) == 1
        assert engine_cache_info()["size"] == 1
        assert invalidate_engine(program=other_program) == 1
        assert engine_cache_info()["size"] == 0
        assert invalidate_engine() == 0

    def test_stale_engines_are_detected_and_rebuilt_on_hit(self):
        """Mutating the engine's own database copy trips the is_stale guard.

        Text programs hold a private database copy, so the versioned cache
        key cannot observe the mutation — only the hit-path recheck can.
        """
        engine = shared_engine(LITERATURE, None)
        assert not engine.is_stale()
        engine.database.add(parse_atom("conferencePaper(vldb21)"))
        assert engine.is_stale()
        rebuilt = shared_engine(LITERATURE, None)
        assert rebuilt is not engine
        assert not rebuilt.is_stale()
        assert engine_cache_info()["size"] == 1

    def test_rewrite_option_is_forwarded(self):
        program, database = parse_program(LITERATURE)
        assert holds_under_wfs(program, database, "? article(pods13)", rewrite=True)
        engine = shared_engine(program, database)
        assert engine.last_query_stats["mode"] == "magic"


class TestCertainAnswers:
    def test_certain_answers_over_a_precomputed_model(self):
        engine = WellFoundedEngine(LITERATURE)
        query = ConjunctiveQuery((Atom("article", (Variable("X"),)),), (Variable("X"),))
        assert certain_answers(engine.model(), query) == {(Constant("pods13"),)}

    def test_null_answers_are_dropped(self):
        engine = WellFoundedEngine(LITERATURE)
        query = ConjunctiveQuery(
            (Atom("isAuthorOf", (Constant("john"), Variable("Y"))),), (Variable("Y"),)
        )
        assert certain_answers(engine.model(), query) == set()


class TestSharedEngineThreadSafety:
    """The satellite bugfix: version read, staleness recheck and eviction are
    atomic under the cache lock, and a served engine re-verifies freshness
    under its own lock (drop-and-retry on staleness).  Threads hammering
    ``holds_under_wfs`` against concurrent ``Database`` mutations must never
    crash, never observe a torn cache entry, and — once mutations quiesce
    between phases — always serve the *current* database state.
    """

    def _workload(self):
        from repro.lang.program import Database

        program, _ = parse_program("signal(X) -> seen(X).")
        database = Database([parse_atom("signal(s0)")])
        return program, database

    def test_phased_mutations_are_never_served_stale(self):
        self._phased_mutations(rewrite=None)

    def test_phased_mutations_are_never_served_stale_on_the_magic_path(self):
        self._phased_mutations(rewrite=True)

    def _phased_mutations(self, rewrite):
        import threading

        clear_engine_cache()
        program, database = self._workload()
        rounds = 12
        num_threads = 4
        barrier = threading.Barrier(num_threads + 1)
        failures: list[str] = []

        def worker():
            for expected_round in range(rounds):
                barrier.wait(timeout=20)  # mutation for this round is done
                fact = f"seen(r{expected_round})"
                try:
                    if not holds_under_wfs(program, database, f"? {fact}", rewrite=rewrite):
                        failures.append(f"stale answer for {fact}")
                except Exception as error:  # pragma: no cover - the regression
                    failures.append(f"{type(error).__name__}: {error}")
                barrier.wait(timeout=20)  # everyone answered; next mutation may go

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for round_index in range(rounds):
            database.add(parse_atom(f"signal(r{round_index})"))
            barrier.wait(timeout=20)
            barrier.wait(timeout=20)
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures

    def test_unphased_hammer_is_crash_free_and_ends_fresh(self):
        self._unphased_hammer(rewrite=None)

    def test_unphased_hammer_is_crash_free_and_ends_fresh_on_the_magic_path(self):
        self._unphased_hammer(rewrite=True)

    def _unphased_hammer(self, rewrite):
        import threading

        clear_engine_cache()
        program, database = self._workload()
        stop = threading.Event()
        errors: list[str] = []

        def worker():
            while not stop.is_set():
                try:
                    # any boolean is fine mid-mutation; crashes are not
                    holds_under_wfs(program, database, "? seen(s0)", rewrite=rewrite)
                except Exception as error:  # pragma: no cover - the regression
                    errors.append(f"{type(error).__name__}: {error}")
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(60):
            database.add(parse_atom(f"signal(h{i})"))
            if i % 2:
                database.discard(parse_atom(f"signal(h{i - 1})"))
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        # after the dust settles the served model reflects the final state:
        # odd-indexed signals survive, even-indexed ones were discarded by
        # the following odd iteration
        assert holds_under_wfs(program, database, "? seen(h59)", rewrite=rewrite)
        assert not holds_under_wfs(program, database, "? seen(h58)", rewrite=rewrite)
