"""Unit tests for repro.util.timebin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.timebin import (
    TimeBinner,
    bin_count_series,
    bin_sum_series,
    bin_unique_series,
)


class TestTimeBinner:
    def test_bin_count(self):
        binner = TimeBinner(start=0.0, end=3600.0, width=600.0)
        assert binner.n_bins == 6

    def test_partial_last_bin(self):
        binner = TimeBinner(start=0.0, end=1000.0, width=600.0)
        assert binner.n_bins == 2

    def test_index_of(self):
        binner = TimeBinner(start=100.0, end=400.0, width=100.0)
        assert binner.index_of(100.0) == 0
        assert binner.index_of(199.9) == 0
        assert binner.index_of(200.0) == 1
        assert binner.index_of(399.9) == 2
        assert binner.index_of(400.0) is None
        assert binner.index_of(50.0) is None

    def test_edges(self):
        binner = TimeBinner(start=0.0, end=300.0, width=100.0)
        assert list(binner.edges()) == [0.0, 100.0, 200.0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeBinner(start=0.0, end=10.0, width=0.0)
        with pytest.raises(ValueError):
            TimeBinner(start=10.0, end=10.0, width=1.0)


class TestSeriesBuilders:
    def test_count_series(self):
        binner = TimeBinner(start=0.0, end=30.0, width=10.0)
        counts = bin_count_series(binner, [1.0, 2.0, 11.0, 29.0, 35.0])
        assert list(counts) == [2.0, 1.0, 1.0]

    def test_sum_series(self):
        binner = TimeBinner(start=0.0, end=20.0, width=10.0)
        sums = bin_sum_series(binner, np.array([1.0, 2.0, 15.0, 25.0]),
                              np.array([5.0, 5.0, 1.0, 99.0]))
        assert list(sums) == [10.0, 1.0]

    def test_unique_series_counts_each_key_once(self):
        binner = TimeBinner(start=0.0, end=20.0, width=10.0)
        uniques = bin_unique_series(binner, np.array([1.0, 2.0, 3.0, 12.0]),
                                    np.array([7, 7, 8, 7]))
        assert list(uniques) == [2.0, 1.0]

    def test_unique_series_keeps_float_keys_apart(self):
        # 1.2 and 1.7 are two keys; truncating them to int64 would merge
        # them, so float keys are refused.
        binner = TimeBinner(start=0.0, end=10.0, width=10.0)
        with pytest.raises(TypeError):
            bin_unique_series(binner, np.array([1.0, 2.0, 3.0]),
                              np.array([1.2, 1.7, 1.2]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, np.bool_])
    def test_unique_series_integer_keys(self, dtype):
        binner = TimeBinner(start=0.0, end=30.0, width=10.0)
        ts = np.array([1.0, 2.0, 3.0, 12.0, 13.0, 25.0, 40.0])
        keys = np.array([1, 0, 1, 0, 0, 1, 1]).astype(dtype)
        if dtype is np.uint64:
            keys = keys + np.uint64(2**63)  # values above the int64 range
        uniques = bin_unique_series(binner, ts, keys)
        assert list(uniques) == [2.0, 1.0, 1.0]
