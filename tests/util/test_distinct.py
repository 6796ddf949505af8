"""Property tests pinning repro.util.distinct to np.unique (sort and
presence-table paths alike)."""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.report import format_report
from repro.util.distinct import (
    DENSE_SPAN_FACTOR,
    _distinct_dense,
    distinct,
    distinct_pairs,
)

NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]

INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64, np.bool_]


def _assert_same(result: np.ndarray, expected: np.ndarray) -> None:
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    np.testing.assert_array_equal(result, expected)


def _pair_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.unique(np.stack([a, b], axis=1), axis=0)


@st.composite
def keyed_arrays(draw, max_side: int = 40):
    """Integer/bool arrays of any width, 1-D or 2-D, some non-contiguous."""
    dtype = np.dtype(draw(st.sampled_from(INTEGER_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                  max_side=max_side))
    values = draw(hnp.arrays(dtype, shape))
    if values.ndim == 2 and draw(st.booleans()):
        values = values.T  # Fortran-ordered view
    if draw(st.booleans()):
        values = values[..., ::2]  # strided view
    return values


class TestDistinct:
    @settings(max_examples=150, deadline=None)
    @given(keyed_arrays())
    def test_matches_np_unique(self, values):
        _assert_same(distinct(values), np.unique(values))

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_empty_and_single(self, dtype):
        for values in (np.empty(0, dtype=dtype), np.ones(1, dtype=dtype),
                       np.ones((0, 3), dtype=dtype)):
            _assert_same(distinct(values), np.unique(values))

    def test_extreme_values(self):
        cases = [
            np.array([2**64 - 1, 2**63, 0, 2**63, 2**63 - 1], dtype=np.uint64),
            np.array([-2**63, 2**63 - 1, -1, 0, -2**63], dtype=np.int64),
            np.array([-128, 127, -1, 127], dtype=np.int8),
        ]
        for values in cases:
            _assert_same(distinct(values), np.unique(values))

    @pytest.mark.parametrize("values", [np.array([1.5, 1.5]),
                                        np.array(["a"], dtype=object)])
    def test_rejects_non_integer(self, values):
        with pytest.raises(TypeError):
            distinct(values)


@st.composite
def key_pool(draw, dtype: np.dtype) -> np.ndarray:
    """A few keys: anywhere in the dtype's range, or within 8 of each other.

    Narrow pools take the packed-key path at any offset (uint64 keys above
    2**63 included); wide ones mostly take the ``lexsort`` fallback.
    """
    size = draw(st.integers(1, 6))
    if dtype.kind != "b" and draw(st.booleans()):
        info = np.iinfo(dtype)
        low = draw(st.integers(int(info.min), int(info.max) - 7))
        keys = st.lists(st.integers(low, low + 7), min_size=size,
                        max_size=size)
        return np.array(draw(keys), dtype=dtype)
    return draw(hnp.arrays(dtype, size))


@st.composite
def pair_columns(draw):
    """Two equal-length key columns with independent integer dtypes."""
    n = draw(st.integers(0, 60))
    columns = []
    for _ in range(2):
        # Drawing from a small pool makes repeated pairs common.
        pool = draw(key_pool(np.dtype(draw(st.sampled_from(INTEGER_DTYPES)))))
        columns.append(pool[draw(hnp.arrays(np.intp, n, elements=st.integers(
            0, pool.size - 1)))])
    a, b = columns
    if np.result_type(a, b).kind not in "biu":  # e.g. int64 with uint64
        a = a.astype(np.int64)
        b = b.astype(np.int64)
    return a, b


class TestDistinctPairs:
    @settings(max_examples=150, deadline=None)
    @given(pair_columns())
    def test_matches_axis0_unique(self, columns):
        a, b = columns
        _assert_same(distinct_pairs(a, b), _pair_reference(a, b))

    @pytest.mark.parametrize("a, b", [
        # (range of a) * (range of b) overflows int64: lexsort fallback.
        (np.array([-2**63, 2**63 - 1, 0, -2**63], dtype=np.int64),
         np.array([5, -7, 5, 5], dtype=np.int64)),
        (np.array([0, 2**64 - 1, 0, 2**63], dtype=np.uint64),
         np.array([1, 0, 1, 2**64 - 1], dtype=np.uint64)),
        # b alone spans 2**63 values: the span itself exceeds int64.
        (np.array([3, 3, 3], dtype=np.int64),
         np.array([0, 2**63 - 1, 0], dtype=np.uint64).astype(np.int64)),
        (np.array([1, 1, 1], dtype=np.uint64),
         np.array([2**63, 0, 2**63], dtype=np.uint64)),
        # Narrow ranges above 2**63 pack after an unsigned offset.
        (np.array([2**63 + 5, 2**63 + 1, 2**63 + 5], dtype=np.uint64),
         np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)),
        # Packed just below the bound, offsets far from zero.
        (np.array([2**40, 2**40 + 3, 2**40], dtype=np.int64),
         np.array([-2**20, 2**20, -2**20], dtype=np.int64)),
    ])
    def test_wide_ranges(self, a, b):
        _assert_same(distinct_pairs(a, b), _pair_reference(a, b))

    def test_empty(self):
        a = np.empty(0, dtype=np.int32)
        _assert_same(distinct_pairs(a, a), _pair_reference(a, a))

    def test_rejects_float_pairs(self):
        with pytest.raises(TypeError):
            distinct_pairs(np.array([1, 2]), np.array([0.5, 0.5]))
        with pytest.raises(TypeError):  # int64 with uint64 promotes to float
            distinct_pairs(np.array([1], dtype=np.int64),
                           np.array([1], dtype=np.uint64))


def test_report_takes_no_hash_table_unique(simulated_dataset, monkeypatch):
    """``format_report`` makes no row-wise or flag-less integer np.unique call.

    Such calls take NumPy's hash-table path; the analysis code routes them
    through :mod:`repro.util.distinct`.  Calls made from inside NumPy (e.g.
    by ``np.percentile``) and calls with a ``return_*`` flag are allowed.
    """
    original = np.unique
    signature = inspect.signature(original)
    offenders: list[str] = []
    repro_calls = []

    def guarded(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__", "").startswith("repro"):
            repro_calls.append(caller.f_code.co_name)
            bound = signature.bind(*args, **kwargs).arguments
            flagged = any(bound.get(flag) for flag in
                          ("return_index", "return_inverse", "return_counts"))
            values = np.asarray(bound["ar"])
            where = f"{caller.f_code.co_filename}:{caller.f_lineno}"
            if bound.get("axis") is not None:
                offenders.append(f"{where} uses axis=")
            elif values.dtype.kind in "biu" and not flagged:
                offenders.append(f"{where} on {values.dtype} keys")
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)
    assert format_report(simulated_dataset)
    assert repro_calls, "the guard saw no np.unique call from repro"
    assert offenders == []


@st.composite
def spanned_keys(draw):
    """Integer keys of any width and sign whose span lies on either side of
    the dense threshold, placed anywhere in the dtype's range (extremes
    included)."""
    dtype = np.dtype(draw(st.sampled_from(INTEGER_DTYPES[:-1])))
    info = np.iinfo(dtype)
    n = draw(st.integers(2, 120))
    span = draw(st.integers(0, min(int(info.max) - int(info.min),
                                   2 * DENSE_SPAN_FACTOR * n)))
    low = draw(st.sampled_from([int(info.min), int(info.max) - span])
               | st.integers(int(info.min), int(info.max) - span))
    offsets = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    if draw(st.booleans()):  # both ends of the span present
        offsets[:2] = [0, span]
    return np.array([low + offset for offset in offsets], dtype=dtype)


class TestDenseDistinct:
    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(spanned_keys())
    def test_matches_np_unique(self, values):
        _assert_same(distinct(values), np.unique(values))

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(spanned_keys())
    def test_presence_table_matches_np_unique(self, values):
        # The dense kernel itself, whichever side of the threshold.
        low, high = int(values.min()), int(values.max())
        _assert_same(_distinct_dense(values, low, high), np.unique(values))

    def test_takes_the_dense_path_below_the_threshold(self, monkeypatch):
        values = np.array([-128, 127] * 40, dtype=np.int8)
        monkeypatch.setattr(np, "sort", None)  # the sort path would fail
        _assert_same(distinct(values), np.array([-128, 127], dtype=np.int8))
