"""Property tests: parallel scheduling changes nothing, ever.

Random ground programs — and random chunked growth schedules over them —
must make every ``workers > 1`` configuration indistinguishable from the
serial loop, which remains the differential oracle: identical true/false/
undefined sets, identical iteration counts, identical resolve/reuse stats.
Random guarded Datalog± workloads pin the same invariant end-to-end through
:class:`~repro.core.engine.WellFoundedEngine`.  This is the parallel
counterpart of :mod:`test_incremental_properties`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lp.grounding import GroundProgram
from repro.lp.wfs import IncrementalWFS, well_founded_model

from strategies import ground_programs, guarded_workloads

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def model_signature(model):
    return (
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        model.iterations,
    )


@st.composite
def chunked_ground_programs(draw):
    """A random ground program plus a random partition of it into chunks."""
    program = draw(ground_programs())
    rules = list(program.rules())
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(rules)),
                min_size=0,
                max_size=3,
            )
        )
    )
    chunks = []
    start = 0
    for boundary in boundaries + [len(rules)]:
        chunks.append(rules[start:boundary])
        start = boundary
    return chunks


@given(program=ground_programs(), workers=st.sampled_from([2, 3, 8]))
@settings(max_examples=120, **COMMON_SETTINGS)
def test_scratch_parallel_equals_serial(program, workers):
    serial = well_founded_model(program)
    parallel = well_founded_model(program, workers=workers, executor="thread")
    assert model_signature(parallel) == model_signature(serial)


@given(chunks=chunked_ground_programs(), workers=st.sampled_from([2, 4]))
@settings(max_examples=60, **COMMON_SETTINGS)
def test_incremental_parallel_tracks_serial_growth(chunks, workers):
    serial_program, parallel_program = GroundProgram(), GroundProgram()
    serial_state = IncrementalWFS(serial_program)
    parallel_state = IncrementalWFS(
        parallel_program, workers=workers, executor="thread"
    )
    for chunk in chunks:
        serial_program.update(chunk)
        parallel_program.update(chunk)
        assert model_signature(parallel_state.model()) == model_signature(
            serial_state.model()
        )
        assert parallel_state.last_resolved == serial_state.last_resolved
        assert parallel_state.last_reused == serial_state.last_reused
        assert parallel_state.last_changed_atoms == serial_state.last_changed_atoms


#: chase-node budget of the engine-level property: a drawn program whose
#: chase runs away exhausts it within seconds, where the engine default
#: (500k nodes) takes minutes per engine
ENGINE_MAX_NODES = 20_000


def engine_observables(engine):
    try:
        model = engine.model()
    except GroundingError:
        return "node-budget-exceeded"
    return (
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        model.converged,
    )


@given(workload=guarded_workloads())
@settings(max_examples=25, **COMMON_SETTINGS)
def test_engine_parallel_equals_serial(workload):
    program, database = workload
    serial = WellFoundedEngine(program, database, workers=1, max_nodes=ENGINE_MAX_NODES)
    parallel = WellFoundedEngine(
        program, database, workers=4, max_nodes=ENGINE_MAX_NODES
    )
    assert engine_observables(parallel) == engine_observables(serial)
