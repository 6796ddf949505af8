"""Unit tests for repro.util.timebin."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.trace.dataset import TraceDataset
from repro.util.timebin import (
    TimeBinner,
    bin_count_series,
    bin_index_column,
    bin_sum_series,
    bin_unique_series,
    binned_counts,
    binned_sums,
    binned_unique,
)
from tests.conftest import make_storage


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


def _bin_indices(binner: TimeBinner, timestamps: np.ndarray):
    """The floor-division definition of a bin: (in-range mask, index of each
    in-range timestamp)."""
    in_range = (timestamps >= binner.start) & (timestamps < binner.end)
    return in_range, ((timestamps[in_range] - binner.start)
                      // binner.width).astype(np.intp)


@st.composite
def binned_timestamps(draw):
    """A binner and timestamps on, just off and between its bin edges, some
    outside ``[start, end)``."""
    start = draw(st.floats(-1e10, 2e9, allow_nan=False))
    width = draw(st.sampled_from([1.0, 60.0, 3600.0, 0.1])
                 | st.floats(1e-3, 1e5))
    n_bins = draw(st.integers(1, 500))
    binner = TimeBinner(start=start, end=start + n_bins * width, width=width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = rng.integers(-3, n_bins + 3, size=draw(st.integers(0, 300)))
    edges = start + k * width
    ts = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        edges + rng.random(k.size) * width,
        [binner.start, binner.end, np.nextafter(binner.end, -np.inf)]])
    return binner, rng.permutation(ts)


class TestBinIndexColumn:
    @settings(max_examples=200, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(binned_timestamps())
    def test_matches_floor_division(self, case):
        binner, ts = case
        column = bin_index_column(binner, ts)
        in_range, indices = _bin_indices(binner, ts)
        assert column.dtype == np.int32
        assert np.array_equal(column >= 0, in_range)
        assert np.array_equal(column[in_range], indices)
        assert np.all(column[~in_range] == -1)

    @settings(max_examples=50, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(binned_timestamps())
    def test_dataset_column_matches_floor_division(self, case):
        binner, ts = case
        dataset = TraceDataset(storage=[
            dataclasses.replace(make_storage(), timestamp=float(t)) for t in ts])
        in_range, indices = _bin_indices(binner,
                                         dataset.storage_column("timestamp"))
        column = dataset.storage_bins(binner)
        assert np.array_equal(column[in_range], indices)
        assert np.all(column[~in_range] == -1)

    def test_masked_reducers_match_the_series_helpers(self):
        rng = np.random.default_rng(4)
        binner = TimeBinner(start=10.0, end=7210.0, width=600.0)
        ts = rng.uniform(0.0, 8000.0, 500)
        values = rng.integers(0, 10**6, 500)
        keys = rng.integers(0, 20, 500)
        mask = rng.random(500) < 0.5
        bins = bin_index_column(binner, ts)
        assert np.array_equal(binned_counts(binner, bins, mask),
                              bin_count_series(binner, ts[mask]))
        assert np.array_equal(binned_sums(binner, bins, values, mask),
                              bin_sum_series(binner, ts[mask], values[mask]))
        assert np.array_equal(binned_unique(binner, bins, keys, mask),
                              bin_unique_series(binner, ts[mask], keys[mask]))
