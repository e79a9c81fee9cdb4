"""Property tests: view maintenance changes nothing, ever.

Random safe normal programs × random interleaved insert/retract sequences
must leave the maintained `MaterializedEngine` model bit-identical to the
from-scratch oracle (full reground of the current rules + EDB, cold solve)
at *every* step — on every grounding backend, and straight through
budget-exhausted, resumed updates.  This is the view-maintenance counterpart
of :mod:`test_incremental_properties` (rule growth) and
:mod:`test_columnar_properties` (backend choice): the retained from-scratch
rebuild is the reference, the maintained path must be indistinguishable.

The `@pytest.mark.stress` churn test at the bottom runs a long random
add/retract workload over the chain benchmark shape (only with
``-m stress``, like the rest of the stress tier).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import GroundingError
from repro.lang.atoms import Atom, Literal
from repro.lang.queries import ConjunctiveQuery, NormalBCQ, evaluate_query, query_holds
from repro.lang.terms import Constant, Variable
from repro.lp.columnar import BACKENDS, make_grounder
from repro.views import MaterializedEngine

from strategies import ground_atoms, safe_normal_workloads

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Function heads can make the relevant grounding infinite; draws whose
#: *full* fact pool does not saturate within this budget are discarded
#: (grounding is monotone in the EDB, so every interleaving state of a
#: saturating pool saturates too).
MAX_ROUNDS = 8


@st.composite
def update_scripts(draw):
    """A workload plus an interleaved insert/retract script over a fact pool.

    The pool is the workload's EDB plus a few extra random ground atoms, so
    retractions hit both present and absent facts and insertions both new
    and already-derivable ones.
    """
    program, edb = draw(st.shared(safe_normal_workloads(), key="workload"))
    pool = list(dict.fromkeys(edb + draw(st.lists(ground_atoms, max_size=4))))
    assume(pool)
    script = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "retract"]),
                st.integers(min_value=0, max_value=len(pool) - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return program, edb, [(op, pool[i]) for op, i in script]


def _assume_pool_saturates(program, facts):
    """Discard draws whose grounding would not terminate (function heads)."""
    probe = make_grounder(program, facts, backend="tuple")
    assume(probe.run(max_rounds=MAX_ROUNDS, raise_on_budget=False))
    return probe


def _check_step(engine, context):
    maintained = engine.model()
    oracle = engine.scratch_model()
    assert maintained.true_atoms() == oracle.true_atoms(), context
    assert maintained.false_atoms() == oracle.false_atoms(), context
    assert maintained.universe() == oracle.universe(), context


@given(data=update_scripts(), backend=st.sampled_from(BACKENDS))
@settings(max_examples=60, **COMMON_SETTINGS)
def test_maintained_equals_scratch_at_every_step(data, backend):
    """add/retract interleavings are invisible next to from-scratch rebuilds."""
    program, edb, script = data
    _assume_pool_saturates(program, edb + [fact for _, fact in script])
    engine = MaterializedEngine(program, edb, backend=backend, check_termination=False)
    _check_step(engine, "init")
    for step, (op, fact) in enumerate(script):
        if op == "add":
            engine.add_facts([fact])
        else:
            engine.retract_facts([fact])
        _check_step(engine, f"step {step}: {op} {fact}")


@given(data=update_scripts())
@settings(max_examples=30, **COMMON_SETTINGS)
def test_maintained_models_are_backend_invariant(data):
    """The maintained model never depends on the grounding backend."""
    program, edb, script = data
    _assume_pool_saturates(program, edb + [fact for _, fact in script])
    engines = [
        MaterializedEngine(program, edb, backend=backend, check_termination=False)
        for backend in BACKENDS
    ]
    reference = engines[0]
    for step, (op, fact) in enumerate(script):
        for engine in engines:
            if op == "add":
                engine.add_facts([fact])
            else:
                engine.retract_facts([fact])
        for engine, backend in zip(engines[1:], BACKENDS[1:]):
            assert engine.model() == reference.model(), (backend, step)


@given(
    data=update_scripts(),
    budget=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, **COMMON_SETTINGS)
def test_budget_exhausted_updates_resume_losslessly(data, budget):
    """A mid-update budget interruption is invisible once the update finishes.

    Updates run under a tiny per-update round allowance; whenever one
    exhausts it, the allowance is raised and the *query path* resumes the
    staged update.  The final model must still match the oracle at every
    step — nothing staged is lost or double-applied.
    """
    program, edb, script = data
    _assume_pool_saturates(program, edb + [fact for _, fact in script])
    engine = MaterializedEngine(program, edb, check_termination=False)
    for step, (op, fact) in enumerate(script):
        engine.max_rounds_per_update = budget
        try:
            if op == "add":
                engine.add_facts([fact])
            else:
                engine.retract_facts([fact])
        except GroundingError:
            pass
        while True:
            try:
                engine.model()
                break
            except GroundingError:
                engine.max_rounds_per_update += 1
        _check_step(engine, f"step {step}: {op} {fact} (budget {budget})")


@given(data=update_scripts())
@settings(max_examples=30, **COMMON_SETTINGS)
def test_maintained_model_equals_fresh_engine(data):
    """The warm engine is indistinguishable from a cold one on the same EDB."""
    program, edb, script = data
    _assume_pool_saturates(program, edb + [fact for _, fact in script])
    engine = MaterializedEngine(program, edb, check_termination=False)
    current = set(edb)
    for op, fact in script:
        if op == "add":
            engine.add_facts([fact])
            current.add(fact)
        else:
            engine.retract_facts([fact])
            current.discard(fact)
    fresh = MaterializedEngine(program, sorted(current, key=str), check_termination=False)
    assert engine.model() == fresh.model()
    assert engine.edb == fresh.edb


X, Y = Variable("X"), Variable("Y")

#: one open query per workload predicate, plus NBCQs with a negated atom
OPEN_QUERIES = (
    ConjunctiveQuery((Atom("p", (X,)),), (X,)),
    ConjunctiveQuery((Atom("q", (X, Y)),), (X, Y)),
    ConjunctiveQuery((Atom("r", (X,)),), (X,)),
    ConjunctiveQuery((Atom("e", (X, Y)), Atom("p", (Y,))), (X, Y)),
)
NEGATED_QUERIES = (
    NormalBCQ((Atom("e", (X, Y)),), (Atom("p", (X,)),)),
    NormalBCQ((Atom("q", (X, Y)),), (Atom("r", (Y,)),)),
    NormalBCQ((Atom("p", (X,)),), (Atom("q", (X, X)),)),
)
#: a constant no workload mentions: atoms over it lie outside every universe
OUTSIDE = Constant("zz")


def _ground_queries(engine, pool):
    """Ground atoms to ask: the fact pool, a slice of the universe, outsiders."""
    universe = sorted(engine.model().universe(), key=str)[:8]
    outside = [Atom("p", (OUTSIDE,)), Atom("q", (OUTSIDE, Constant("a")))]
    return list(dict.fromkeys([*pool, *universe, *outside]))


def _check_live_answers(engine, pool, context):
    """Every query through the live view equals evaluation on both snapshots.

    The live answers are taken first, so each step's first query is the one
    that refreshes the solver.
    """
    atoms = _ground_queries(engine, pool)
    live = (
        [engine.holds(atom) for atom in atoms],
        [engine.holds(Literal(atom, False)) for atom in atoms],
        [engine.holds(NormalBCQ((atom,))) for atom in atoms],
        [engine.holds(query) for query in NEGATED_QUERIES],
        [engine.answer(query) for query in OPEN_QUERIES],
    )
    for name, model in (("model", engine.model()), ("scratch", engine.scratch_model())):
        expected = (
            [model.is_true(atom) for atom in atoms],
            [model.is_false(atom) for atom in atoms],
            [query_holds(NormalBCQ((atom,)), model) for atom in atoms],
            [query_holds(query, model) for query in NEGATED_QUERIES],
            [
                {
                    answer
                    for answer in evaluate_query(query, model)
                    if all(isinstance(term, Constant) for term in answer)
                }
                for query in OPEN_QUERIES
            ],
        )
        assert live == expected, (context, name)


@given(data=update_scripts(), backend=st.sampled_from(BACKENDS))
@settings(max_examples=40, **COMMON_SETTINGS)
def test_live_queries_equal_snapshot_and_scratch_evaluation(data, backend):
    """holds/answer on live state agree with model() and scratch_model()."""
    program, edb, script = data
    pool = list(dict.fromkeys(edb + [fact for _, fact in script]))
    _assume_pool_saturates(program, pool)
    engine = MaterializedEngine(program, edb, backend=backend, check_termination=False)
    _check_live_answers(engine, pool, "init")
    for step, (op, fact) in enumerate(script):
        if op == "add":
            engine.add_facts([fact])
        else:
            engine.retract_facts([fact])
        _check_live_answers(engine, pool, f"step {step}: {op} {fact}")


def test_staged_update_keeps_reraising_from_live_queries():
    """A budget-exhausted update blocks holds/answer until it can finish."""
    edges = [Atom("e", (Constant(f"n{i}"), Constant(f"n{i + 1}"))) for i in range(6)]
    engine = MaterializedEngine(
        "start(X) -> reach(X).\nreach(X), e(X, Y) -> reach(Y).\n"
        "e(X, Y), not reach(X) -> cut(Y).\nstart(n0)."
    )
    assert engine.holds("? reach(n0)")
    engine.max_rounds_per_update = 1
    with pytest.raises(GroundingError):
        engine.add_facts(edges)
    for _ in range(2):  # still staged: every query re-raises
        with pytest.raises(GroundingError):
            engine.holds("? reach(n3)")
        with pytest.raises(GroundingError):
            engine.answer("? reach(X)")
    engine.max_rounds_per_update = None
    assert engine.holds("? reach(n6)")
    assert engine.answer("? reach(X)") == {(Constant(f"n{i}"),) for i in range(7)}
    assert engine.model() == engine.scratch_model()


def _frozen_sets(model):
    return model.true_atoms(), model.false_atoms(), model.undefined_atoms()


@given(data=update_scripts())
@settings(max_examples=30, **COMMON_SETTINGS)
def test_materialized_snapshots_survive_later_updates(data):
    """A model() snapshot never changes, and stays the scratch model of its time."""
    program, edb, script = data
    _assume_pool_saturates(program, edb + [fact for _, fact in script])
    engine = MaterializedEngine(program, edb, check_termination=False)
    snapshots = []
    for op, fact in script:
        model = engine.model()
        snapshots.append((model, _frozen_sets(model), engine.scratch_model()))
        if op == "add":
            engine.add_facts([fact])
        else:
            engine.retract_facts([fact])
        engine.holds(Atom("p", (OUTSIDE,)))  # refresh through the live path
        engine.model()
    for model, sets, scratch in snapshots:
        assert _frozen_sets(model) == sets
        assert model == scratch


@pytest.mark.stress
def test_churn_workload_stays_identical_to_scratch():
    """Hundreds of random single-fact updates over the chain workload."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    from bench_view_maintenance import RULES, chain_facts

    from repro.lang.atoms import Atom

    from bench_view_maintenance import CHAIN_LENGTH, node

    rng = random.Random(7)
    facts = chain_facts(12)
    engine = MaterializedEngine(RULES, facts)
    # shortcut edges give mid-chain atoms diamond support, so churn exercises
    # the counting fast path as well as plain DRed overdeletion
    shortcuts = [
        Atom("edge", (node(chain, 0), node(chain, CHAIN_LENGTH // 2)))
        for chain in range(12)
    ]
    pool = list(facts) + shortcuts
    present = set(facts)
    for step in range(400):
        fact = rng.choice(pool)
        if fact in present:
            engine.retract_facts([fact])
            present.discard(fact)
        else:
            engine.add_facts([fact])
            present.add(fact)
        if step % 20 == 0:
            _check_step(engine, f"churn step {step}")
    _check_step(engine, "churn end")
    assert engine.total_stats["overdeleted"] > 0
    # deterministic coda: with every chain restored and shortcut-supported,
    # cutting each chain right below the shortcut target must take the
    # counting fast path (two independent supports, acyclic)
    engine.add_facts([fact for fact in pool if fact not in present])
    _check_step(engine, "after restore")
    kept_before = engine.total_stats["counting_kept"]
    engine.retract_facts(
        [
            Atom("edge", (node(chain, CHAIN_LENGTH // 2 - 1), node(chain, CHAIN_LENGTH // 2)))
            for chain in range(12)
        ]
    )
    _check_step(engine, "after shortcut-supported cut")
    assert engine.total_stats["counting_kept"] > kept_before
