"""Measurement harness shared by the benchmark suite.

* :func:`time_call` — robust wall-clock timing (median of several repeats);
* :func:`fit_powerlaw_exponent` — least-squares slope on a log–log scale, used
  to report the *empirical* growth exponent of a scaling series (experiment
  E2 gates it against the paper's PTIME data-complexity claim).

The harness depends only on the standard library, so benchmarks run anywhere
the library runs.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Sequence

__all__ = ["time_call", "fit_powerlaw_exponent"]


def time_call(fn: Callable[[], object], *, repeats: int = 3) -> float:
    """Median wall-clock time (seconds) of calling ``fn()`` *repeats* times."""
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def fit_powerlaw_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``.

    For a series that scales as ``time ≈ c · size^k`` the returned value
    approximates ``k``; a value around 1 means linear scaling, around 2
    quadratic, and so on.  Degenerate inputs (fewer than two points, zero
    times) return ``float('nan')``.
    """
    pairs = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len(pairs) < 2:
        return float("nan")
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    denominator = sum((x - mean_x) ** 2 for x, _ in pairs)
    if denominator == 0:
        return float("nan")
    return sum((x - mean_x) * (y - mean_y) for x, y in pairs) / denominator
