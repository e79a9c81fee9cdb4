"""Property tests over the scenario corpus: random workloads × random traces.

Hypothesis samples registered scenarios with random parameters and drives
warm engines through *fresh* random trace interleavings (not just the bundled
ones).  The invariants:

* the maintained :class:`repro.views.MaterializedEngine` equals its
  from-scratch oracle at every checkpoint of every interleaving;
* recording a trace and replaying the recording verifies clean, on any
  backend;
* a budget-interrupted replay resumed with the same target and report is
  indistinguishable from an uninterrupted run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lp.columnar import BACKENDS
from repro.scenarios import (
    MaterializedTarget,
    ReplayInterrupted,
    build_target,
    record_trace,
    replay_trace,
)
from repro.views import MaterializedEngine

from strategies import scenario_bundles, scenario_traces

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=20, **COMMON_SETTINGS)
@given(data=scenario_traces())
def test_random_interleavings_never_diverge_from_the_oracle(data):
    bundle, trace = data
    report = replay_trace(trace, build_target(bundle), check=True)
    assert report.ok, (bundle.name, report.divergences)
    assert report.checks > 0


@settings(max_examples=15, **COMMON_SETTINGS)
@given(
    data=scenario_traces(),
    backend=st.sampled_from(BACKENDS),
)
def test_recorded_traces_self_verify_on_any_backend(data, backend):
    bundle, trace = data
    recorded, recording_report = record_trace(trace, build_target(bundle))
    assert recording_report.ok
    replayed = replay_trace(recorded, build_target(bundle, backend=backend))
    assert replayed.ok, (bundle.name, backend, replayed.divergences)
    queries = sum(1 for event in trace if event.kind == "query")
    assert replayed.expects == queries


@settings(max_examples=10, **COMMON_SETTINGS)
@given(
    data=scenario_traces(),
    rounds_budget=st.integers(min_value=1, max_value=3),
)
def test_budget_interrupted_replay_resumes_losslessly(data, rounds_budget):
    """Starving the engine mid-trace loses nothing once the budget is lifted."""
    bundle, trace = data
    reference = replay_trace(trace, build_target(bundle), check=True)
    assert reference.ok

    engine = MaterializedEngine(bundle.program, bundle.database, backend="columnar")
    engine.max_rounds_per_update = rounds_budget
    target = MaterializedTarget(engine)
    events = list(trace)
    report = None
    remaining = events
    interruptions = 0
    while True:
        try:
            report = replay_trace(remaining, target, check=True, report=report)
            break
        except ReplayInterrupted as error:
            interruptions += 1
            report = error.report
            remaining = remaining[error.index:]
            # lift the budget after a few starved attempts so the loop always
            # terminates; before that, re-trying resumes the staged update
            if interruptions >= 3:
                engine.max_rounds_per_update = None

    assert report.ok, (bundle.name, report.divergences)
    assert [r.detail for r in report.records if r.kind == "query"] == [
        r.detail for r in reference.records if r.kind == "query"
    ]
    assert report.checks == reference.checks


@settings(max_examples=15, **COMMON_SETTINGS)
@given(bundle=scenario_bundles())
def test_bundled_traces_replay_clean(bundle):
    report = replay_trace(bundle.trace, build_target(bundle), check=True)
    assert report.ok, (bundle.name, report.divergences)
