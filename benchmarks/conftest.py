"""Shared configuration for the benchmark suite.

The ``bench_*.py`` modules reproduce the paper experiments E1–E7 and time the
single-layer optimisations.  They are ordinary pytest files using the
``benchmark`` fixture of pytest-benchmark; run them with::

    pytest benchmarks/bench_*.py --benchmark-only

CI runs their checks without timing (``--benchmark-disable``).  Each module
can also be executed directly (``python benchmarks/bench_xxx.py``) to print
the full result table of its experiment, including derived numbers such as
the empirical scaling exponent.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # Group benchmarks by their experiment for a readable report.
    config.addinivalue_line("markers", "experiment(id): the paper experiment (E1–E7) an item belongs to")
