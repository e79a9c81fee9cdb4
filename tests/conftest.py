"""Shared fixtures for the test-suite.

The most frequently used fixture is the paper's running example (Example 4 /
6 / 9), both as a Datalog± program text and as a pre-built
:class:`~repro.core.engine.WellFoundedEngine`.
"""

from __future__ import annotations

import pytest

from repro import WellFoundedEngine, parse_normal_program, relevant_grounding
from repro.bench.generators import paper_example_program

#: The text of Example 4 of the paper (facts included).
PAPER_EXAMPLE_TEXT = """
r(X,Y,Z) -> exists W r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
r(0,0,1).
p(0,0).
"""

#: The classical win/move game on a small fixed graph (a -> b -> a, b -> c, c -> d).
WIN_MOVE_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
move(X, Y), not win(Y) -> win(X).
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "stress: long-running stress tests (deselected unless run with -m stress)",
    )


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 fast: stress-marked tests only run when asked for.

    ``pytest -m stress`` (the CI ``stress`` job) selects them explicitly; any
    marker expression mentioning ``stress`` disables the auto-skip so
    combinations like ``-m "stress and not slow"`` behave as written.
    """
    if "stress" in (config.getoption("-m") or ""):
        return
    skip_stress = pytest.mark.skip(reason="stress tests run only with -m stress")
    for item in items:
        if "stress" in item.keywords:
            item.add_marker(skip_stress)


@pytest.fixture(scope="session")
def paper_example_engine() -> WellFoundedEngine:
    """An engine over the paper's Example 4, with its model already computed."""
    engine = WellFoundedEngine(PAPER_EXAMPLE_TEXT)
    engine.model()
    return engine


@pytest.fixture(scope="session")
def paper_example_pieces():
    """The Example 4 program and database built through the Python API."""
    return paper_example_program()


@pytest.fixture()
def win_move_ground():
    """The win/move game, already grounded for the LP substrate."""
    program = parse_normal_program(WIN_MOVE_TEXT)
    return relevant_grounding(program)
