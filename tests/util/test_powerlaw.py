"""Unit tests for repro.util.powerlaw."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

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


def _scan_reference(samples, n_candidates: int = 50, min_tail: int = 10):
    """The mask-per-candidate scan the one-sort fit replaced:
    ``(alpha, theta, n_tail, ks_distance)``, or None when no candidate
    fits."""
    values = np.asarray([float(x) for x in samples if x > 0], dtype=float)
    if values.size < min_tail:
        return None
    candidates = np.unique(np.quantile(values, np.linspace(0.0, 0.95,
                                                           n_candidates)))
    best = None
    for candidate in candidates:
        if candidate <= 0:
            continue
        tail = values[values >= candidate]
        if tail.size < min_tail:
            continue
        mean_log = float(np.log(tail / candidate).mean())
        if mean_log <= 0:
            continue
        alpha = 1.0 / mean_log
        ordered = np.sort(tail)
        n = ordered.size
        empirical = 1.0 - np.arange(n, dtype=float) / n
        ks = float(np.max(np.abs(empirical - (ordered / candidate) ** -alpha)))
        if best is None or ks < best[3]:
            best = (alpha, float(candidate), int(n), ks)
    return best


@st.composite
def inter_operation_samples(draw):
    """Heavy- and light-tailed samples, some rounded into ties, some with
    non-positive values, as arrays or plain lists."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 3000))
    kind = draw(st.sampled_from(["pareto", "lognormal", "exponential",
                                 "constant"]))
    if kind == "pareto":
        values = draw(st.floats(0.01, 100.0)) * (1.0 - rng.random(n)) ** (
            -1.0 / draw(st.floats(0.3, 3.0)))
    elif kind == "lognormal":
        values = rng.lognormal(draw(st.floats(-3, 5)), draw(st.floats(0.1, 3)), n)
    elif kind == "exponential":
        values = rng.exponential(draw(st.floats(0.01, 1000.0)), n)
    else:
        values = np.full(n, draw(st.floats(0.5, 50.0)))
    decimals = draw(st.sampled_from([None, 0, 2]))
    if decimals is not None:
        values = np.round(values, decimals)
    if draw(st.booleans()):
        values[rng.random(n) < 0.05] = draw(st.sampled_from([0.0, -1.0]))
    return values if draw(st.booleans()) else values.tolist()


class TestOneSortScan:
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(inter_operation_samples())
    def test_matches_the_mask_per_candidate_scan(self, samples):
        expected = _scan_reference(samples)
        if expected is None:
            with pytest.raises(ValueError):
                fit_power_law(samples)
            return
        fit = fit_power_law(samples)
        alpha, theta, n_tail, ks = expected
        assert fit.theta == theta and fit.n_tail == n_tail
        assert fit.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)
        assert fit.ks_distance == pytest.approx(ks, rel=1e-12, abs=1e-300)
        assert all(type(value) is float
                   for value in (fit.alpha, fit.theta, fit.ks_distance))

    def test_accepts_iterables(self):
        samples = _pareto_sample(alpha=1.5, theta=2.0, n=500, seed=3)
        fit = fit_power_law(samples)
        assert fit_power_law(iter(samples.tolist())) == fit
        assert fit_power_law(x for x in samples) == fit
        xs, ps = ccdf_points(iter(samples.tolist()))
        assert np.array_equal(xs, np.sort(samples))
        assert is_bursty(iter(samples.tolist())) == is_bursty(samples)
        assert type(is_bursty(samples)) is bool
