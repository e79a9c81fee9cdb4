"""One interned EDB snapshot per ``Database`` version.

The columnar magic path of :class:`~repro.core.engine.WellFoundedEngine`
grounds from the :class:`~repro.lp.columnar.EDBSnapshot` its database caches
per version, and :func:`~repro.analysis.analyze` reads the database's cached
``(predicate, arity)`` signature.  These tests pin that sharing changes no
answer and no statistic, that each relation is built once per version and
only on request, and that a stale engine keeps answering from the facts it
was built over.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lang.program as program_module
from repro.analysis import analyze
from repro.bench.generators import chain_reachability_workload, paper_example_program
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_program, parse_query
from repro.lang.program import Database, NormalProgram
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, Variable
from repro.lp.columnar import BACKENDS, ColumnarGrounder, edb_snapshot, make_grounder
from repro.scenarios import build_scenario, scenario_names
from strategies import rewrite_workloads

X, Y = Variable("X"), Variable("Y")

#: ``e`` is binary in the rules and unary in the fact ``e(c)``.
E101_PROGRAM = """
    e(X, Y), r(X) -> r(Y).
    s(X) -> r(X).
    n(X), not r(X) -> u(X).
    s(a). e(a, b). n(a). n(b). n(c). e(c).
"""


def _atom(predicate: str, *names: str) -> Atom:
    return Atom(predicate, tuple(Constant(name) for name in names))


# ---------------------------------------------------------------------------
# A fact whose arity differs from the program's use of its predicate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "query, expected",
    [("? r(b)", True), ("? u(c)", True), ("? r(c)", False), ("? e(c)", True)],
)
def test_magic_path_answers_over_a_fact_of_another_arity(backend, query, expected):
    engine = WellFoundedEngine(E101_PROGRAM, backend=backend)
    assert engine.holds(query, rewrite=True) is expected
    assert engine.last_query_stats["mode"] == "magic"
    assert engine.holds(query, rewrite=False) is expected


def test_a_fact_of_another_arity_counts_as_a_candidate_on_both_backends():
    stats = {}
    for backend in BACKENDS:
        engine = WellFoundedEngine(E101_PROGRAM, backend=backend)
        engine.holds("? r(b)", rewrite=True)
        stats[backend] = _comparable(engine.last_query_stats)
    assert stats["columnar"] == stats["tuple"]
    # s(a), e(a, b), e(c) plus the derived r/magic atoms; e(c) is never covered
    assert stats["tuple"]["covered_facts"] == 2


# ---------------------------------------------------------------------------
# The magic path's statistics do not depend on where the facts come from
# ---------------------------------------------------------------------------

#: selective queries on ``chain_reachability_workload(64, 24)``
CHAIN_QUERIES = (
    "? unreachable(c3_7)",
    "? reach(c3_7)",
    "? node(c5_3), not reach(c5_3)",
    "? reach(c9_2), unreachable(c9_2)",
)


def _comparable(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k not in ("backend", "seconds")}


def _magic_stats(engine: WellFoundedEngine, query: str) -> dict:
    engine.holds(query, rewrite=True)
    assert engine.last_query_stats["mode"] == "magic"
    return _comparable(engine.last_query_stats)


def test_magic_stats_agree_across_backends_and_engines_sharing_a_database():
    program, database = chain_reachability_workload(64, 24)
    first = {q: _magic_stats(WellFoundedEngine(program, database), q) for q in CHAIN_QUERIES}
    second = {q: _magic_stats(WellFoundedEngine(program, database), q) for q in CHAIN_QUERIES}
    oracle = {
        q: _magic_stats(WellFoundedEngine(program, database.copy(), backend="tuple"), q)
        for q in CHAIN_QUERIES
    }
    assert first == second == oracle

    # an engine built before a mutation reports what a fresh engine over
    # its construction-time facts reports
    snapshot = database.copy()
    stale = [WellFoundedEngine(program, database) for _ in CHAIN_QUERIES]
    database.add(_atom("node", "zz"))
    database.add(_atom("edge", "c3_7", "zz"))
    database.discard(_atom("edge", "c5_2", "c5_3"))
    for engine, query in zip(stale, CHAIN_QUERIES):
        assert engine.is_stale()
        assert _magic_stats(engine, query) == first[query]
        assert _magic_stats(WellFoundedEngine(program, snapshot), query) == first[query]

    assert {
        k: first["? unreachable(c3_7)"][k]
        for k in ("candidates", "covered_facts", "magic_atoms", "rounds", "ground_rules")
    } == {
        "candidates": 3235,
        "covered_facts": 9,
        "magic_atoms": 26,
        "rounds": 16,
        "ground_rules": 18,
    }


# ---------------------------------------------------------------------------
# Snapshot lifetime and laziness
# ---------------------------------------------------------------------------


def test_engines_over_one_database_build_each_relation_once():
    program, database = chain_reachability_workload(8, 6)
    assert not WellFoundedEngine(program, database, rewrite=True).holds(
        "? unreachable(c1_3)"
    )
    snapshot = edb_snapshot(database)
    # node/1, edge/2 and source/1: the relevant predicates with facts
    assert snapshot.builds == 3
    indexes = {
        key: dict(snapshot.relation(key).indexes)
        for key in (("node", 1), ("edge", 2), ("source", 1))
    }

    for query in ("? unreachable(c2_4)", "? reach(c7_6)", "? reach(c0_0)"):
        WellFoundedEngine(program, database, rewrite=True).holds(query)
    assert edb_snapshot(database) is snapshot
    assert snapshot.builds == 3
    for key, built in indexes.items():
        kept = snapshot.relation(key).indexes
        assert all(kept[columns] is index for columns, index in built.items())


def test_a_mutation_gives_new_engines_a_new_snapshot():
    program, database = chain_reachability_workload(2, 4)
    before = WellFoundedEngine(program, database, rewrite=True)
    assert before.holds("? reach(c0_4)")
    old = edb_snapshot(database)

    database.add(_atom("edge", "c0_4", "x"))
    database.add(_atom("node", "x"))
    after = WellFoundedEngine(program, database, rewrite=True)
    assert after.holds("? reach(x)")
    new = edb_snapshot(database)
    assert new is not old
    builds = new.builds

    # the engine built before the add answers from its construction-time
    # facts, and does not touch the database's snapshot to do so
    assert before.is_stale()
    assert not before.holds("? reach(x)")
    assert not before.holds("? unreachable(x)")
    assert before.holds("? reach(c0_3)")
    assert edb_snapshot(database) is new and new.builds == builds

    database.discard(_atom("edge", "c0_1", "c0_2"))
    assert not WellFoundedEngine(program, database, rewrite=True).holds("? reach(c0_3)")
    assert after.holds("? reach(c0_2)")
    assert after.last_query_stats["mode"] == "magic"


def test_a_grounder_copies_a_shared_relation_before_writing_it():
    """add_fact/retract_fact/reseed on a base relation the rules never
    write: the grounder copies it, and the snapshot stays as it was."""
    program = NormalProgram(
        [NormalRule(Atom("path", (X, Y)), (Atom("edge", (X, Y)),), ())]
    )
    facts = [_atom("edge", "a", "b"), _atom("edge", "b", "c")]
    for start_run in (False, True):
        database = Database(facts)
        grounder = ColumnarGrounder(program, database)
        oracle = make_grounder(program, facts, backend="tuple")
        shared = edb_snapshot(database).relation(("edge", 2))
        if start_run:
            grounder.run()
            oracle.run()
        for target in (grounder, oracle):
            target.add_fact(_atom("edge", "c", "d"))
            assert target.retract_fact(_atom("edge", "a", "b"))
            assert not target.retract_fact(_atom("edge", "a", "b"))
            target.reseed(_atom("edge", "a", "b"))
            assert target.run()
        assert set(grounder.ground) == set(oracle.ground)
        assert grounder.candidates == len(oracle.index)
        assert len(shared.rows) == 2 and edb_snapshot(database).builds == 1


def test_engines_on_several_threads_share_one_snapshot_safely():
    """Rounds of four threads of fresh engines over one new database each,
    with a shortened switch interval: every statistic matches a
    single-threaded run, and the shared term table stays a bijection (a
    lost update in the interning would map two terms to one id)."""
    program, reference = chain_reachability_workload(16, 8)
    queries = [f"? reach(c{c}_{c % 9})" for c in range(16)] + [
        f"? unreachable(c{c}_3)" for c in range(16)
    ]
    expected = {q: _magic_stats(WellFoundedEngine(program, reference), q) for q in queries}
    errors: list[str] = []

    def worker(database: Database, start: threading.Barrier, offset: int) -> None:
        try:
            start.wait(timeout=30)
            for query in queries[offset:] + queries[:offset]:
                if _magic_stats(WellFoundedEngine(program, database), query) != expected[query]:
                    errors.append(query)
        except Exception as error:  # pragma: no cover - the regression
            errors.append(f"{type(error).__name__}: {error}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            database = reference.copy()
            start = threading.Barrier(4)
            threads = [
                threading.Thread(target=worker, args=(database, start, 8 * i)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            snapshot = edb_snapshot(database)
            assert len(snapshot.term_ids) == len(snapshot.terms)
            assert all(snapshot.terms[i] == term for term, i in snapshot.term_ids.items())
            assert snapshot.builds == 3
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors


# ---------------------------------------------------------------------------
# Engines sharing a database under random mutation
# ---------------------------------------------------------------------------

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def shared_database_runs(draw):
    """A rewrite workload, extra queries and a schedule of engines and mutations."""
    program, database, query = draw(rewrite_workloads())
    predicates = sorted(program.predicates() - {"g"})
    constants = [Constant(f"c{i}") for i in range(3)]
    pool = [Atom("g", (a, b)) for a in constants for b in constants] + [
        Atom(p, (c,)) for p in predicates for c in constants
    ]
    queries = [query] + [
        parse_query(text)
        for p in predicates
        for text in (f"? {p}(X)", f"? g(X, Y), not {p}(X)")
    ]
    step = st.just(("engine", None)) | st.tuples(
        st.sampled_from(["add", "discard"]), st.sampled_from(pool)
    )
    steps = draw(st.lists(step, min_size=1, max_size=8))
    return program, database, queries, [("engine", None)] + steps


def _outcome(engine: WellFoundedEngine, query) -> object:
    try:
        return engine.holds(query, rewrite=True)
    except GroundingError:
        return "budget"


def check_shared_database_run(program, database, queries, steps) -> None:
    """Every engine answers every query as a fresh tuple engine built with it."""
    pairs = []
    for kind, atom in steps:
        if kind == "add":
            database.add(atom)
        elif kind == "discard":
            database.discard(atom)
        else:
            engine = WellFoundedEngine(program, database, max_nodes=30_000)
            reference = WellFoundedEngine(
                program, database.copy(), max_nodes=30_000, backend="tuple"
            )
            pairs.append((engine, reference))
            # the newest engine answers the first query now, the older ones
            # (stale or not) a query they have not answered yet
            for age, (engine, reference) in enumerate(reversed(pairs)):
                query = queries[age % len(queries)]
                assert _outcome(engine, query) == _outcome(reference, query), query
    for engine, reference in pairs:
        for query in queries:
            assert _outcome(engine, query) == _outcome(reference, query), query


@given(run=shared_database_runs())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_engines_sharing_a_database_answer_as_fresh_tuple_engines(run):
    check_shared_database_run(*run)


@pytest.mark.stress
@given(run=shared_database_runs())
@settings(max_examples=5_000, **COMMON_SETTINGS)
def test_engines_sharing_a_database_answer_as_fresh_tuple_engines_deep_sweep(run):
    """The same property at sweep size (``-m stress``)."""
    check_shared_database_run(*run)


# ---------------------------------------------------------------------------
# analyze() over a Database equals analyze() over its atoms
# ---------------------------------------------------------------------------


def _analysis_cases():
    cases = []
    for name in scenario_names():
        bundle = build_scenario(name)
        cases.append(pytest.param(bundle.program, bundle.database, id=f"scenario-{name}"))
    cases.append(pytest.param(*paper_example_program(1), id="paper-example"))
    cases.append(pytest.param(*parse_program(E101_PROGRAM), id="E101"))
    return cases


@pytest.mark.parametrize("program, database", _analysis_cases())
def test_analysis_of_a_database_equals_analysis_of_its_atoms(program, database):
    by_database = analyze(program, database)
    by_atoms = analyze(program, list(database))
    assert by_database.diagnostics == by_atoms.diagnostics
    assert by_database.verdicts == by_atoms.verdicts
    assert by_database.summary == by_atoms.summary
    assert by_database.summary["facts"] == len(database)


def test_analysis_reports_the_database_arity_clash():
    program, database = parse_program(E101_PROGRAM)
    report = analyze(program, database)
    (clash,) = [d for d in report if d.code == "E101"]
    assert clash.message == (
        "predicate e is used with inconsistent arities: arity 1 (database), arity 2 (rule 0)"
    )
    assert clash.rule_index is None
    assert report.verdicts["plan"]["magic_eligible"]


def test_reanalysing_an_unchanged_database_builds_no_signature(monkeypatch):
    builds = []
    real = program_module.atom_signature

    def counting(atoms):
        builds.append(1)
        return real(atoms)

    monkeypatch.setattr(program_module, "atom_signature", counting)
    program, database = chain_reachability_workload(4, 3)
    first = analyze(program, database)
    assert analyze(program, database) == first
    for _ in range(3):
        WellFoundedEngine(program, database, rewrite=True).holds("? reach(c1_3)")
    assert len(builds) == 1

    database.add(_atom("node", "extra"))
    assert analyze(program, database).summary["facts"] == first.summary["facts"] + 1
    assert len(builds) == 2
