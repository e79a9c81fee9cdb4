"""Property tests: the grounding backends are indistinguishable, always.

Random safe normal programs (with skolem-style function heads, negation and
mixed EDBs) must ground to *set-identical* programs with identical
well-founded models under every backend at saturation — including when
saturation is reached through a chunked, resumed ``max_rounds`` schedule —
and random guarded Datalog± workloads × deepening schedules × rewrite on/off
must make every engine ``backend=`` indistinguishable from the tuple oracle
on ``holds``/``answer``.  The tuple matcher is the retained reference,
exactly as ``saturation="scan"`` is for the agenda and ``incremental=False``
for the WFS maintenance.  Budget-*interrupted* prefixes are deliberately not
compared round-by-round: the tuple matcher's rounds observe mid-round
emissions while the columnar rounds are snapshot-consistent, so a budget may
cut the backends at different (individually sound, resumable) prefixes — see
:mod:`repro.lp.columnar`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lp.columnar import BACKENDS, make_grounder
from repro.lp.wfs import well_founded_model

from strategies import guarded_workloads, safe_normal_workloads

NEW_BACKENDS = [b for b in BACKENDS if b != "tuple"]

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Function heads can make the relevant grounding infinite; oracle runs are
#: bounded by this round budget and non-saturating draws are discarded.
MAX_ROUNDS = 8
#: Snapshot rounds can trail the oracle's live-index rounds by chained
#: derivations, so the resumed backends get headroom beyond MAX_ROUNDS.
MAX_ROUNDS_SLACK = 3 * MAX_ROUNDS


def _saturated_oracle(program, edb):
    oracle = make_grounder(program, edb, backend="tuple")
    assume(oracle.run(max_rounds=MAX_ROUNDS, raise_on_budget=False))
    return oracle


@given(workload=safe_normal_workloads())
@settings(max_examples=80, **COMMON_SETTINGS)
def test_backends_ground_identically(workload):
    """Same rules (modulo order), same candidate atoms, same model."""
    program, edb = workload
    oracle = _saturated_oracle(program, edb)
    model = well_founded_model(oracle.ground)
    for backend in NEW_BACKENDS:
        grounder = make_grounder(program, edb, backend=backend)
        assert grounder.run(max_rounds=MAX_ROUNDS_SLACK, raise_on_budget=False), backend
        assert set(grounder.ground) == set(oracle.ground), backend
        assert grounder.ground.atoms() == oracle.ground.atoms(), backend
        assert well_founded_model(grounder.ground) == model, backend


@given(
    workload=safe_normal_workloads(),
    chunk=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, **COMMON_SETTINGS)
def test_chunked_budget_resume_reaches_the_same_fixpoint(workload, chunk):
    """Saturation through interrupted/resumed budgets is state-independent.

    Every backend is driven to saturation in ``chunk``-round budget slices;
    the interrupted prefixes are each backend's own business, but the per-call
    deltas must partition its final rule list and the fixpoints of all
    backends must be set-identical to the uninterrupted oracle's.
    """
    program, edb = workload
    oracle = _saturated_oracle(program, edb)
    for backend in NEW_BACKENDS:
        grounder = make_grounder(program, edb, backend=backend)
        deltas = []
        budget = chunk
        while not grounder.run(max_rounds=budget, raise_on_budget=False):
            deltas.append(grounder.delta_rules())
            assert budget <= MAX_ROUNDS_SLACK, backend
            budget += chunk
        deltas.append(grounder.delta_rules())
        assert grounder.saturated, backend
        assert [r for d in deltas for r in d] == list(grounder.ground.rules()), backend
        assert set(grounder.ground) == set(oracle.ground), backend
        assert grounder.ground.atoms() == oracle.ground.atoms(), backend


def _answers(engine: WellFoundedEngine, queries, rewrite: bool):
    out = []
    for query in queries:
        try:
            out.append(engine.holds(query, rewrite=rewrite))
        except GroundingError:
            out.append("grounding-budget")
    try:
        out.append(engine.answer("? q0(X)", rewrite=rewrite))
    except GroundingError:
        out.append("grounding-budget")
    return out


@given(
    workload=guarded_workloads(),
    backend=st.sampled_from(NEW_BACKENDS),
    rewrite=st.booleans(),
    initial_depth=st.integers(min_value=1, max_value=3),
    depth_step=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, **COMMON_SETTINGS)
def test_engine_backends_answer_identically(
    workload, backend, rewrite, initial_depth, depth_step
):
    """holds/answer agree with the tuple oracle for any schedule × rewrite."""
    program, database = workload
    queries = ["? q0(X)", "? q0(c0)", "? g(c0, c1), not q0(c0)"]
    options = dict(
        initial_depth=initial_depth,
        depth_step=depth_step,
        max_depth=initial_depth + 2 * depth_step,
        max_nodes=1_500,
        strict=False,
    )
    oracle = WellFoundedEngine(program, database, **options)
    expected = _answers(oracle, queries, rewrite)
    engine = WellFoundedEngine(program, database, backend=backend, **options)
    assert _answers(engine, queries, rewrite) == expected
    stats = engine.last_query_stats
    assert stats is None or stats.get("backend") == backend
