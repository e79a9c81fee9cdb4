"""Tests for the one-shot answering helpers (:mod:`repro.core.answering`)."""

from __future__ import annotations

from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom, parse_program
from repro.lang.program import Database
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Variable
from repro.core.answering import answer_query, certain_answers, holds_under_wfs
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


class TestFreshOneShotAnswers:
    """The one-shot helpers build a fresh engine per call, over the database
    as it is at the call, so a mutation is never answered from a stale
    engine, and they forward engine options."""

    def test_mutated_database_is_not_served_stale(self):
        program, _ = parse_program("conferencePaper(X) -> article(X).")
        database = Database([parse_atom("conferencePaper(pods13)")])
        assert holds_under_wfs(program, database, "? article(pods13)")
        database.add(parse_atom("conferencePaper(icdt19)"))
        assert holds_under_wfs(program, database, "? article(icdt19)")

    def test_add_remove_round_trip_is_not_served_stale(self):
        """Removal returns the database to its old `len`; the answer must
        still follow the current facts."""
        program, _ = parse_program("conferencePaper(X) -> article(X).")
        database = Database([parse_atom("conferencePaper(pods13)")])
        assert holds_under_wfs(program, database, "? article(pods13)")
        database.add(parse_atom("conferencePaper(icdt19)"))
        assert holds_under_wfs(program, database, "? article(icdt19)")
        database.remove(parse_atom("conferencePaper(icdt19)"))
        assert len(database) == 1
        assert not holds_under_wfs(program, database, "? article(icdt19)")

    def test_rewrite_option_is_forwarded(self, monkeypatch):
        seen = []
        holds = WellFoundedEngine.holds

        def spy(engine, query, rewrite=None):
            answer = holds(engine, query, rewrite=rewrite)
            seen.append(engine.last_query_stats["mode"])
            return answer

        monkeypatch.setattr(WellFoundedEngine, "holds", spy)
        program, database = parse_program(LITERATURE)
        assert holds_under_wfs(program, database, "? article(pods13)", rewrite=True)
        assert seen == ["magic"]


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


class TestSharedDatabaseThreads:
    """Threads calling ``holds_under_wfs`` over one shared ``Database`` while
    another thread mutates it.  Each call builds its own engine (an engine
    is not thread-safe), but the database and the columnar snapshot it
    caches per version are shared.  No call may crash, and — once mutations
    quiesce between phases — every answer must follow the *current*
    database state.
    """

    def _workload(self):
        program, _ = parse_program("signal(X) -> seen(X).")
        database = Database([parse_atom("signal(s0)")])
        return program, database

    def test_phased_mutations_are_never_served_stale(self):
        self._phased_mutations(rewrite=None)

    def test_phased_mutations_are_never_served_stale_on_the_magic_path(self):
        self._phased_mutations(rewrite=True)

    def _phased_mutations(self, rewrite):
        import threading

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
