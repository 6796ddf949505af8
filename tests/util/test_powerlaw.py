"""Unit tests for repro.util.powerlaw."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.powerlaw import PowerLawFit, ccdf_points, fit_power_law, is_bursty


def _pareto_sample(alpha: float, theta: float, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return theta * (1.0 - rng.random(n)) ** (-1.0 / alpha)


class TestFitPowerLaw:
    def test_recovers_known_exponent(self):
        samples = _pareto_sample(alpha=1.5, theta=10.0, n=20000)
        fit = fit_power_law(samples, theta=10.0)
        assert fit.alpha == pytest.approx(1.5, rel=0.1)
        assert fit.theta == 10.0
        assert fit.n_tail == 20000

    def test_threshold_scan_finds_reasonable_alpha(self):
        samples = _pareto_sample(alpha=1.44, theta=20.0, n=10000, seed=2)
        fit = fit_power_law(samples)
        assert 1.2 < fit.alpha < 1.8

    def test_exponential_sample_is_not_heavy_tailed(self):
        rng = np.random.default_rng(5)
        samples = rng.exponential(scale=10.0, size=20000)
        fit = fit_power_law(samples)
        # An exponential tail fitted as Pareto yields a large alpha.
        assert fit.alpha > 2.0

    def test_model_ccdf(self):
        fit = PowerLawFit(alpha=2.0, theta=1.0, n_tail=100, ks_distance=0.01)
        assert fit.ccdf(0.5) == 1.0
        assert fit.ccdf(10.0) == pytest.approx(0.01)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0])

    def test_non_positive_values_ignored(self):
        samples = np.concatenate([_pareto_sample(1.5, 1.0, 5000), [-1.0, 0.0]])
        fit = fit_power_law(samples, theta=1.0)
        assert fit.n_tail == 5000

    def test_fixed_threshold_requires_tail(self):
        with pytest.raises(ValueError):
            fit_power_law(_pareto_sample(1.5, 1.0, 100), theta=1e9)


class TestCcdfPoints:
    def test_shape_and_monotonicity(self):
        xs, ps = ccdf_points([3.0, 1.0, 2.0, 4.0])
        assert list(xs) == [1.0, 2.0, 3.0, 4.0]
        assert ps[0] == 1.0
        assert np.all(np.diff(ps) < 0)

    def test_empty(self):
        with pytest.raises(ValueError):
            ccdf_points([])


class TestIsBursty:
    def test_pareto_is_bursty(self):
        samples = _pareto_sample(alpha=1.2, theta=1.0, n=5000)
        assert is_bursty(samples)

    def test_constant_is_not_bursty(self):
        assert not is_bursty([5.0] * 100)

    def test_exponential_is_not_bursty(self):
        rng = np.random.default_rng(0)
        assert not is_bursty(rng.exponential(1.0, size=5000))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            is_bursty([1.0])
