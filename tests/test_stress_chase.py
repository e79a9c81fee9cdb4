"""Slow stress tests for agenda-based chase saturation (``-m stress`` only).

These runs push the chain and ontology workload generators to chase depth
≥ 32, inject node-budget exhaustion in the middle of saturation, and check
the resumability contract hardened in this PR:

* an interrupted saturation pass re-raises on retry (never reports a
  partially expanded forest as converged — the ROADMAP budget-retry bug);
* raising ``max_nodes`` resumes from the partial forest and lands on exactly
  the state a fresh, unbudgeted engine computes — under both saturation
  modes.

The module is marked ``stress`` and auto-skipped by ``tests/conftest.py``
unless the marker is selected; CI runs it in the scheduled /
workflow-dispatch ``stress`` job so tier-1 stays fast.
"""

from __future__ import annotations

import pytest

from repro.bench.generators import (
    chain_reachability_workload,
    employment_workload,
    university_ontology,
)
from repro.chase.engine import GuardedChaseEngine
from repro.core.engine import WellFoundedEngine
from repro.dl.translate import translate_ontology
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.program import Database, DatalogPMProgram
from repro.lang.rules import NTGD
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant, Variable

pytestmark = pytest.mark.stress

#: Depth floor demanded by the issue: stress runs must deepen beyond the
#: regimes tier-1 exercises.
DEPTH = 48


def existential_descent(roots: int) -> tuple[DatalogPMProgram, Database]:
    """An ontology-style unbounded existential descent with negation.

    ``e(X) -> ∃Y n(X, Y)``, ``n(X, Y) -> e(Y)`` drives every root to the
    depth bound (the Skolem nulls nest *linearly*, so label comparisons stay
    cheap even at large depths); the ``live``/``stop`` pair keeps all three
    truth values alive, as in the paper's running examples.
    """
    x, y = Variable("X"), Variable("Y")
    program = DatalogPMProgram(
        [
            NTGD((Atom("e", (x,)),), Atom("n", (x, y)), label="spawn"),
            NTGD((Atom("n", (x, y)),), Atom("e", (y,)), label="descend"),
            NTGD((Atom("n", (x, y)),), Atom("live", (x,)), (Atom("stop", (y,)),), label="live"),
            NTGD((Atom("e", (x,)),), Atom("stop", (x,)), (Atom("live", (x,)),), label="stopper"),
        ]
    )
    database = Database([Atom("e", (Constant(f"c{i}"),)) for i in range(roots)])
    return program, database


def model_fingerprint(model):
    return (
        model.true_atoms(),
        model.false_atoms(),
        model.undefined_atoms(),
        model.converged,
    )


@pytest.mark.parametrize("saturation", ["agenda", "scan"])
def test_deep_chain_budget_exhaustion_is_resumable(saturation):
    """Chain workload at depth ≥ 32, budget blown mid-saturation, resumed."""
    # The chain program is function-free, so model() would take the finite
    # plan; the budget contract under test is the chase plan's.
    program, database = chain_reachability_workload(8, DEPTH)
    sizing = WellFoundedEngine(program, database, initial_depth=DEPTH, max_depth=DEPTH)
    reference = sizing._chase_model()
    saturated_nodes = len(reference.forest())

    engine = WellFoundedEngine(
        program,
        database,
        initial_depth=DEPTH,
        max_depth=DEPTH,
        max_nodes=saturated_nodes // 2,  # exhausts in the middle of saturation
        saturation=saturation,
    )
    with pytest.raises(GroundingError):
        engine._chase_model()
    # the ROADMAP retry bug: this used to return converged=True
    with pytest.raises(GroundingError):
        engine._chase_model()
    engine.max_nodes = saturated_nodes + 10
    resumed = engine._chase_model()
    assert model_fingerprint(resumed) == model_fingerprint(reference)
    assert len(resumed.forest()) == saturated_nodes


@pytest.mark.parametrize("saturation", ["agenda", "scan"])
def test_deep_existential_descent_budget_exhaustion_is_resumable(saturation):
    """Ontology-style existential descent at depth ≥ 32 with mid-chase failure."""
    program, database = existential_descent(12)
    reference_engine = GuardedChaseEngine(skolemize_program(program), database)
    reference_engine.expand(DEPTH)
    reference = reference_engine.forest

    engine = GuardedChaseEngine(
        skolemize_program(program),
        database,
        max_nodes=len(reference) // 2,
        saturation=saturation,
    )
    with pytest.raises(GroundingError):
        engine.expand(DEPTH)
    with pytest.raises(GroundingError):
        engine.expand(DEPTH)  # retry with the same budget re-raises
    partial = len(engine.forest)
    assert 0 < partial <= len(reference) // 2
    engine.max_nodes = len(reference) + 10
    engine.expand(DEPTH)
    assert len(engine.forest) == len(reference)
    assert engine.forest.labels() == reference.labels()
    assert frozenset(engine.forest.edge_rules()) == frozenset(reference.edge_rules())
    levels = {a: reference.level_of_atom(a) for a in reference.labels()}
    assert {a: engine.forest.level_of_atom(a) for a in engine.forest.labels()} == levels


def test_ontology_workloads_deepen_beyond_32():
    """The DL-translated generators agree across saturation modes at depth ≥ 32."""
    for program, database in (
        employment_workload(128, seed=7),
        translate_ontology(university_ontology(8, 24, seed=7)),
    ):
        agenda = WellFoundedEngine(program, database, initial_depth=33, max_depth=37)
        scan = WellFoundedEngine(
            program, database, initial_depth=33, max_depth=37, saturation="scan"
        ).model()
        # both ontologies terminate: model() is the finite plan, and the
        # agenda chase deepened beyond 32 is the chase plan's model
        assert model_fingerprint(agenda._chase_model()) == model_fingerprint(scan)
        assert model_fingerprint(agenda.model()) == model_fingerprint(scan)


def test_repeated_budget_cycling_converges():
    """Exhaust → raise → exhaust deeper → raise: saturation always lands on
    the unique fixpoint no matter how often it is interrupted."""
    program, database = existential_descent(4)
    reference_engine = GuardedChaseEngine(skolemize_program(program), database)
    reference_engine.expand(DEPTH)
    reference = reference_engine.forest

    engine = GuardedChaseEngine(
        skolemize_program(program), database, max_nodes=20
    )
    for budget in (40, 80, 160, len(reference) + 10):
        try:
            engine.expand(DEPTH)
        except GroundingError:
            pass
        else:
            break
        engine.max_nodes = budget
    engine.expand(DEPTH)
    assert engine.forest.labels() == reference.labels()
    assert len(engine.forest) == len(reference)
