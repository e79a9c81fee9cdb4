"""Property tests: magic-sets rewriting never changes query answers.

The central contract of :mod:`repro.rewrite` is *bit-identical answers*:
``holds(q, rewrite=True) == holds(q, rewrite=False)`` and likewise for
``answer``, across generated programs and queries — including programs with
negation and with existential recursion, where the engine's conservative
fallback (relevance-pruned unrewritten evaluation) must kick in and still
agree.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.generators import paper_example_program, win_move_game
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import pos
from repro.lang.parser import parse_program, parse_query
from repro.lang.queries import query_literals
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lp.columnar import ColumnarGrounder, make_grounder
from repro.lp.grounding import GroundProgram, relevant_grounding
from repro.lp.wfs import well_founded_model
from repro.rewrite import ground_magic, rewrite_for_query
from repro.rewrite.magic import _strip_magic, is_magic_predicate
from strategies import rewrite_workloads

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


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


@given(workload=rewrite_workloads())
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


@given(workload=rewrite_workloads())
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
    assert engine.last_query_stats["mode"] == "classic"
    assert engine.last_query_stats["rewrite_fallback"]
    assert rewritten == classic


# ---------------------------------------------------------------------------
# The id-space strip of ground_magic against the object-space reference
# ---------------------------------------------------------------------------


def _object_strip(ground: GroundProgram) -> GroundProgram:
    """The strip as ``ground_magic`` once did it, rule object by rule object."""
    stripped = GroundProgram()
    for instance in ground:
        if is_magic_predicate(instance.head.predicate):
            continue
        body = tuple(a for a in instance.body_pos if not is_magic_predicate(a.predicate))
        stripped.add(NormalRule(instance.head, body, instance.body_neg))
    return stripped


def _plan(program, query):
    return rewrite_for_query(skolemize_program(program).rules(), query_literals(query))


def check_strip_matches_object_strip(plan, database) -> None:
    """Same rules in the same order, same atom ids, on both backends' grounders.

    The grounders are built as :func:`ground_magic` builds them, and its
    result is the strip followed by covered database facts.
    """
    relevant = plan.relevant_predicates()
    grounders = {
        "tuple": make_grounder(plan.program, [a for a in database if a.predicate in relevant]),
        "columnar": ColumnarGrounder(plan.program, database, predicates=relevant),
    }
    for backend, grounder in grounders.items():
        grounder.run(max_atoms=30_000, raise_on_budget=False)
        by_ids, by_objects = _strip_magic(grounder.ground), _object_strip(grounder.ground)
        assert list(by_ids) == list(by_objects), backend
        ids, objects = by_ids.index(), by_objects.index()
        assert list(map(ids.atom_of, range(ids.atom_count()))) == list(
            map(objects.atom_of, range(objects.atom_count()))
        ), backend
        result = list(ground_magic(plan, database, max_atoms=30_000, backend=backend).ground)
        assert result[: len(by_ids)] == list(by_ids), backend
        assert all(rule.is_fact() for rule in result[len(by_ids) :]), backend


def test_id_strip_keeps_repeated_body_atoms():
    """``e(a, a), e(a, a) -> s(a)`` keeps both body atoms, as the reference does."""
    program, database = parse_program("e(X, Y), e(Y, X), not b(X) -> s(X). e(a, a). e(a, b).")
    plan = _plan(program, parse_query("? s(X)"))
    assert plan.supported
    check_strip_matches_object_strip(plan, database)


@given(workload=rewrite_workloads())
@settings(max_examples=60, **COMMON_SETTINGS)
def test_id_strip_matches_object_strip(workload):
    program, database, query = workload
    plan = _plan(program, query)
    assume(plan.supported)
    check_strip_matches_object_strip(plan, database)


@pytest.mark.stress
@given(workload=rewrite_workloads())
@settings(max_examples=5_000, **COMMON_SETTINGS)
def test_id_strip_matches_object_strip_deep_sweep(workload):
    """The same comparison at sweep size (``-m stress``)."""
    program, database, query = workload
    plan = _plan(program, query)
    assume(plan.supported)
    check_strip_matches_object_strip(plan, database)
