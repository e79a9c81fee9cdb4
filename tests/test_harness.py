"""Tests for the measurement harness (:mod:`repro.bench.harness`)."""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import fit_powerlaw_exponent, time_call


class TestTiming:
    def test_time_call_returns_a_positive_duration(self):
        elapsed = time_call(lambda: sum(range(1000)), repeats=3)
        assert elapsed >= 0


class TestPowerlawFit:
    def test_linear_series_has_slope_one(self):
        sizes = [100, 200, 400, 800]
        times = [0.01 * s for s in sizes]
        assert fit_powerlaw_exponent(sizes, times) == pytest.approx(1.0, abs=0.01)

    def test_quadratic_series_has_slope_two(self):
        sizes = [10, 20, 40, 80]
        times = [0.001 * s * s for s in sizes]
        assert fit_powerlaw_exponent(sizes, times) == pytest.approx(2.0, abs=0.01)

    def test_degenerate_series_gives_nan(self):
        assert math.isnan(fit_powerlaw_exponent([1], [0.1]))
        assert math.isnan(fit_powerlaw_exponent([1, 2], [0.0, 0.0]))
