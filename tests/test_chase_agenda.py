"""Differential tests: agenda saturation ≡ the retained breadth-first scan.

The agenda-driven loop of :class:`repro.chase.engine.GuardedChaseEngine`
(``saturation="agenda"``, the default) must reach the *bit-identical* least
fixpoint as the historical round-based re-scan, kept as
``saturation="scan"`` / ``_expand_one_round_scan``.  "Bit-identical" is asserted
through a canonical forest signature — each node identified by its root label
and the ground edge rules along its path (node ids are insertion-order
artefacts), carrying its label, tree depth and canonical level — so two
forests agree exactly on labels, parents, rules and levels iff their
signatures are equal.

The suites cover the paper's running examples, hand-built guarded programs
exercising the watched-side-atom machinery, iterative deepening, budget
exhaustion, and randomised agenda orderings.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import (
    chain_reachability_workload,
    win_move_datalog_pm,
)
from repro.chase.engine import GuardedChaseEngine
from repro.chase.forest import ChaseForest
from repro.exceptions import GroundingError
from repro.lang.parser import parse_program
from repro.lang.skolem import skolemize_program

#: Example 4 of the paper (kept inline: ``conftest`` is ambiguous between the
#: tests/ and benchmarks/ directories when pytest runs from the repo root).
PAPER_EXAMPLE_TEXT = """
r(X,Y,Z) -> exists W r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
r(0,0,1).
p(0,0).
"""


def forest_signature(forest: ChaseForest) -> frozenset:
    """Canonical, insertion-order-independent identity of a chase forest."""
    entries = []
    for node in forest.nodes():
        path = []
        current = node
        while current.parent is not None:
            path.append(current.edge_rule)
            current = forest.node(current.parent)
        entries.append(
            (current.label, tuple(reversed(path)), node.label, node.depth, node.level)
        )
    signature = frozenset(entries)
    # distinct nodes must have distinct (root, path) identities
    assert len(signature) == len(forest)
    return signature


def build(program_text_or_pieces, depth, *, saturation, agenda_order=None, schedule=None):
    """Expand a forest for a workload in the given saturation mode."""
    if isinstance(program_text_or_pieces, str):
        program, database = parse_program(program_text_or_pieces)
    else:
        program, database = program_text_or_pieces
    engine = GuardedChaseEngine(
        skolemize_program(program),
        database,
        saturation=saturation,
        agenda_order=agenda_order,
    )
    for step in schedule or ():
        engine.expand(step)
    engine.expand(depth)
    return engine


LITERATURE = """
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
isAuthorOf(X, Y) -> author(X).
scientist(john).
conferencePaper(pods13).
"""

#: A program where a rule's side atom is derived *after* the guard-hosting
#: node exists: p(a) arrives first, the side atom s(a) only exists once the
#: chain c -> d -> s fires.  The agenda must wake the blocked (node, rule)
#: pair through its watched-atom waiter.
LATE_SIDE_ATOM = """
p(X), s(X) -> exists Y q(X, Y).
c(X) -> d(X).
d(X) -> s(X).
p(a).
c(a).
p(b).
"""

#: Nullary side atom: firing is blocked on a propositional flag derived later.
NULLARY_SIDE = """
p(X), flag -> q(X).
trigger(X) -> flag.
p(a).
trigger(t).
"""

#: Side atom with a rule constant: probe(c) must label the forest for the
#: gated rule to fire anywhere.
CONSTANT_SIDE = """
p(X), probe(c) -> q(X).
seed(X) -> probe(X).
p(a).
p(b).
seed(c).
"""

WORKLOADS = {
    "paper_example": (PAPER_EXAMPLE_TEXT, 7),
    "literature": (LITERATURE, 6),
    "late_side_atom": (LATE_SIDE_ATOM, 6),
    "nullary_side": (NULLARY_SIDE, 5),
    "constant_side": (CONSTANT_SIDE, 5),
    "win_move": (win_move_datalog_pm(24, seed=3), 5),
    "chains": (chain_reachability_workload(3, 6), 9),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_agenda_forest_is_bit_identical_to_scan(name):
    workload, depth = WORKLOADS[name]
    scan = build(workload, depth, saturation="scan")
    agenda = build(workload, depth, saturation="agenda")
    assert forest_signature(agenda.forest) == forest_signature(scan.forest)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_agenda_deepening_matches_one_shot_scan(name):
    """Incremental deepening (the engine's real usage) agrees with one shot."""
    workload, depth = WORKLOADS[name]
    scan = build(workload, depth, saturation="scan")
    agenda = build(workload, depth, saturation="agenda", schedule=[1, 2, 4])
    assert forest_signature(agenda.forest) == forest_signature(scan.forest)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_agenda_order_does_not_change_the_forest(name, seed):
    workload, depth = WORKLOADS[name]
    reference = forest_signature(build(workload, depth, saturation="scan").forest)
    rng = random.Random(seed)
    shuffled = build(
        workload, depth, saturation="agenda", agenda_order=lambda n: rng.randrange(n)
    )
    assert forest_signature(shuffled.forest) == reference


def test_late_side_atom_actually_fires_through_the_waiter():
    """The q-child exists for p(a) (whose side atom arrives late) and not for
    p(b) (whose side atom never arrives) — pinning the waiter semantics."""
    engine = build(LATE_SIDE_ATOM, 6, saturation="agenda")
    labels = {str(a) for a in engine.atoms()}
    assert any(l.startswith("q(a") for l in labels)
    assert not any(l.startswith("q(b") for l in labels)


def test_frontier_nodes_are_reprocessed_when_the_bound_rises():
    program, database = parse_program(
        """
        next(X, Y) -> exists Z next(Y, Z).
        next(a, b).
        """
    )
    engine = GuardedChaseEngine(skolemize_program(program), database)
    engine.expand(2)
    frontier_before = {n.label for n in engine.frontier_nodes()}
    assert frontier_before
    engine.expand(4)
    # every former frontier node now has children
    for node in engine.forest.nodes():
        if node.label in frontier_before and node.depth == 2:
            assert node.children


@pytest.mark.parametrize("saturation", ["agenda", "scan"])
def test_budget_exhaustion_is_mode_independent(saturation):
    program, database = parse_program(
        """
        next(X, Y) -> exists Z next(Y, Z).
        next(a, b).
        """
    )
    engine = GuardedChaseEngine(
        skolemize_program(program), database, max_nodes=4, saturation=saturation
    )
    with pytest.raises(GroundingError):
        engine.expand(40)


def test_scan_mode_is_exposed_on_the_convenience_wrapper():
    from repro.chase.engine import chase_forest

    program, database = parse_program(LITERATURE)
    scan = chase_forest(skolemize_program(program), database, 5, saturation="scan")
    agenda = chase_forest(skolemize_program(program), database, 5)
    assert forest_signature(scan) == forest_signature(agenda)


def test_invalid_saturation_mode_is_rejected():
    program, database = parse_program(LITERATURE)
    with pytest.raises(ValueError):
        GuardedChaseEngine(skolemize_program(program), database, saturation="eager")
