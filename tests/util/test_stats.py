"""Unit tests for repro.util.stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.stats import (
    BoxplotSummary,
    EmpiricalCDF,
    autocorrelation,
    boxplot_summary,
    pearson_correlation,
    percentile,
    tail_fraction_beyond,
)


class TestEmpiricalCDF:
    def test_basic_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == pytest.approx(0.25)
        assert cdf(2.5) == pytest.approx(0.5)
        assert cdf(4.0) == 1.0
        assert cdf(100.0) == 1.0

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_quantile_and_median(self):
        cdf = EmpiricalCDF(range(1, 101))
        assert cdf.median() == pytest.approx(50.5)
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 100.0
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_points_monotonic(self):
        cdf = EmpiricalCDF([3.0, 1.0, 2.0])
        xs, ys = cdf.points()
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ys) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_evaluate_vectorised(self):
        cdf = EmpiricalCDF([1, 2, 3, 4])
        values = cdf.evaluate([0, 2, 5])
        assert list(values) == pytest.approx([0.0, 0.5, 1.0])

    def test_len_and_mean(self):
        cdf = EmpiricalCDF([2.0, 4.0])
        assert len(cdf) == 2
        assert cdf.mean() == pytest.approx(3.0)


class TestPercentile:
    def test_median_of_range(self):
        assert percentile(range(1, 11), 50) == pytest.approx(5.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        acf = autocorrelation([1.0, 2.0, 3.0, 4.0, 5.0])
        assert acf[0] == pytest.approx(1.0)

    def test_periodic_signal_has_positive_acf_at_period(self):
        t = np.arange(200)
        series = np.sin(2 * np.pi * t / 24.0)
        acf = autocorrelation(series, max_lag=48)
        assert acf[24] > 0.8
        assert acf[12] < -0.8

    def test_white_noise_is_mostly_inside_bounds(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=500)
        acf = autocorrelation(series, max_lag=50)
        bound = 2.0 / np.sqrt(series.size)
        outside = np.sum(np.abs(acf[1:]) > bound)
        assert outside <= 8  # ~5 % expected, allow slack

    def test_constant_series(self):
        acf = autocorrelation([5.0] * 10, max_lag=3)
        assert acf[0] == 1.0
        assert np.all(acf[1:] == 0.0)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0])

class TestBoxplot:
    def test_summary_values(self):
        summary = boxplot_summary(range(1, 101))
        assert isinstance(summary, BoxplotSummary)
        assert summary.minimum == 1
        assert summary.maximum == 100
        assert summary.median == pytest.approx(50.5)
        assert summary.iqr == pytest.approx(summary.q3 - summary.q1)
        assert summary.spread_ratio == pytest.approx(100.0)

    def test_spread_ratio_with_zero_min(self):
        summary = boxplot_summary([0.0, 1.0, 2.0])
        assert summary.spread_ratio == float("inf")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            boxplot_summary([])


class TestPearson:
    def test_perfect_correlation(self):
        xs = [1, 2, 3, 4]
        ys = [2, 4, 6, 8]
        assert pearson_correlation(xs, ys) == pytest.approx(1.0)

    def test_anticorrelation(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])


class TestTailFraction:
    def test_long_tail_detected(self):
        samples = [1.0] * 90 + [100.0] * 10
        assert tail_fraction_beyond(samples, 10.0) == pytest.approx(0.10)

    def test_no_tail(self):
        assert tail_fraction_beyond([1.0, 1.1, 0.9], 10.0) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tail_fraction_beyond([], 10.0)
