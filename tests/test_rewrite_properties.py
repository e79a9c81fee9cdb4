"""Property tests: magic-sets rewriting never changes query answers.

The central contract of :mod:`repro.rewrite` is *bit-identical answers*:
``holds(q, rewrite=True) == holds(q, rewrite=False)`` and likewise for
``answer``, across generated programs and queries — including programs with
negation and with existential recursion, where the engine's conservative
fallback (relevance-pruned unrewritten evaluation) must kick in and still
agree.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.generators import (
    paper_example_program,
    random_guarded_program,
    win_move_game,
)
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom, neg, pos
from repro.lang.queries import NormalBCQ
from repro.lang.terms import Constant, Variable
from repro.lp.grounding import relevant_grounding
from repro.lp.wfs import well_founded_model
from repro.rewrite import ground_magic, rewrite_for_query

X = Variable("X")

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def guarded_workloads(draw):
    """A random guarded Datalog± workload plus a query against it.

    ``existential_prob > 0`` yields Skolemised rules whose query-relevant
    fragments are frequently not weakly acyclic, which is exactly what drives
    the conservative fallback path.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_predicates = draw(st.integers(min_value=1, max_value=3))
    num_rules = draw(st.integers(min_value=2, max_value=5))
    negation_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    existential_prob = draw(st.sampled_from([0.0, 0.0, 0.4]))
    program, database = random_guarded_program(
        num_predicates,
        2,
        num_rules,
        negation_prob=negation_prob,
        existential_prob=existential_prob,
        num_constants=3,
        num_facts=8,
        seed=seed,
    )

    predicates = sorted({f"q{i}" for i in range(num_predicates)})
    predicate = draw(st.sampled_from(predicates))
    shape = draw(st.sampled_from(["ground", "open", "negated", "join"]))
    constant = Constant(f"c{draw(st.integers(min_value=0, max_value=2))}")
    if shape == "ground":
        query = NormalBCQ((Atom(predicate, (constant,)),))
    elif shape == "open":
        query = NormalBCQ((Atom(predicate, (X,)),))
    elif shape == "negated":
        other = draw(st.sampled_from(predicates))
        query = NormalBCQ((Atom(predicate, (X,)),), (Atom(other, (X,)),))
    else:
        other = draw(st.sampled_from(predicates))
        query = NormalBCQ((Atom(predicate, (X,)), Atom(other, (X,))))
    return program, database, query


def _converges(engine) -> bool:
    """Does the classic model converge within the engine's node budget?

    Compare only exact models: a non-converged classic approximation is not
    a ground truth either path is required to match, and neither is a chase
    that exhausts the budget before any approximation exists.
    """
    try:
        return engine.model().converged
    except GroundingError:
        return False


@given(workload=guarded_workloads())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_holds_is_invariant_under_rewriting(workload):
    """``holds`` agrees with and without rewriting, fallback cases included."""
    program, database, query = workload
    engine = WellFoundedEngine(program, database, max_nodes=30_000)
    assume(_converges(engine))
    classic = engine.holds(query)
    rewritten = engine.holds(query, rewrite=True)
    assert rewritten == classic, (
        f"rewrite changed the answer for {query} "
        f"(stats: {engine.last_query_stats})"
    )


@given(workload=guarded_workloads())
@settings(max_examples=25, **COMMON_SETTINGS)
def test_answer_is_invariant_under_rewriting(workload):
    """``answer`` returns identical certain-answer sets with and without rewriting."""
    program, database, query = workload
    assume(not query.negative)
    engine = WellFoundedEngine(program, database, max_nodes=30_000)
    assume(_converges(engine))
    from repro.lang.queries import as_conjunctive_query

    conjunctive = as_conjunctive_query(query)
    assert engine.answer(conjunctive, rewrite=True) == engine.answer(conjunctive)


@given(
    size=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    pick=st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=40, **COMMON_SETTINGS)
def test_ground_slice_preserves_wfs_on_unstratified_programs(size, seed, pick):
    """LP-level property: the magic-restricted grounding agrees with the full
    WFS on the queried atom, for arbitrary (unstratified) win/move games."""
    program = list(win_move_game(size, seed=seed))
    full = relevant_grounding(program)
    atoms = sorted(
        (atom for atom in full.atoms() if atom.predicate == "win"),
        key=lambda atom: atom.sort_key(),
    )
    assume(atoms)
    atom = atoms[pick % len(atoms)]
    plan = rewrite_for_query(program, [pos(atom)])
    assert plan.supported
    grounding = ground_magic(plan, [])
    assert grounding.saturated
    restricted = well_founded_model(grounding.ground)
    reference = well_founded_model(full)
    assert restricted.is_true(atom) == reference.is_true(atom)
    assert restricted.is_false(atom) == reference.is_false(atom)
    assert restricted.is_undefined(atom) == reference.is_undefined(atom)


@given(
    chains=st.integers(min_value=1, max_value=3),
    query=st.sampled_from(["? t(0)", "? q(1)", "? s(0)", "? p(0, 1), not q(1)"]),
)
@settings(max_examples=12, **COMMON_SETTINGS)
def test_fallback_on_existential_recursion_agrees(chains, query):
    """The paper's transfinite example is outside the sound fragment: the
    rewrite path must fall back — and still return the classic answer."""
    program, database = paper_example_program(chains)
    engine = WellFoundedEngine(program, database)
    classic = engine.holds(query)
    rewritten = engine.holds(query, rewrite=True)
    assert engine.last_query_stats["mode"] in ("pruned-chase", "full-chase")
    assert engine.last_query_stats["fallback_reason"]
    assert rewritten == classic
