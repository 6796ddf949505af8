"""Fixed-width time binning for the paper's time-series figures.

Figures 2a, 5, 6, 14 and 15 all reduce the trace to per-hour (or per-minute)
counts or byte sums.  :class:`TimeBinner` maps timestamps to bins, and
:func:`bin_index_column` gives the bin of every event of a column as one
``int32`` array (``-1`` outside the range).  A
:class:`~repro.trace.dataset.TraceDataset` keeps that column per stream and
binner (``storage_bins``, ``rpc_bins``, ``session_bins``), so the figures
that bin one stream the same way share it and count subsets of it through
masks (:func:`binned_counts`, :func:`binned_sums`, :func:`binned_unique`).
The ``bin_*_series`` helpers are the same reductions over a timestamp
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.util.distinct import distinct_pairs

__all__ = [
    "TimeBinner",
    "bin_index_column",
    "binned_counts",
    "binned_sums",
    "binned_unique",
    "bin_count_series",
    "bin_sum_series",
    "bin_unique_series",
]


@dataclass(frozen=True)
class TimeBinner:
    """Maps timestamps to consecutive fixed-width bins.

    Parameters
    ----------
    start:
        Timestamp (seconds) of the left edge of bin 0.
    end:
        Exclusive right edge of the last bin; timestamps outside
        ``[start, end)`` are ignored by the helpers below.
    width:
        Bin width in seconds (3600 for hourly series, 60 for per-minute).
    """

    start: float
    end: float
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("bin width must be positive")
        if self.end <= self.start:
            raise ValueError("end must be greater than start")

    @property
    def n_bins(self) -> int:
        """Number of bins covering ``[start, end)``."""
        return int(np.ceil((self.end - self.start) / self.width))

    def index_of(self, timestamp: float) -> int | None:
        """Bin index of ``timestamp``, or None when outside the range."""
        if timestamp < self.start or timestamp >= self.end:
            return None
        return int((timestamp - self.start) // self.width)

    def edges(self) -> np.ndarray:
        """Left edges of all bins."""
        return self.start + self.width * np.arange(self.n_bins, dtype=float)


def bin_index_column(binner: TimeBinner, timestamps: np.ndarray) -> np.ndarray:
    """Bin index of every timestamp, ``-1`` outside ``[start, end)``.

    ``int32`` (``int64`` only past 2**31 bins).  Every in-range index is
    exactly ``(timestamp - start) // width``, as :meth:`TimeBinner.index_of`
    takes it, without paying for a floor division on every row: for a
    non-negative offset, truncating the rounded quotient ``offset / width``
    is that floor except where the rounding reached the next integer, and
    then the rounded quotient is integral.  Only those rows (events on or
    just below a bin edge) take the floor division.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    in_range = (timestamps >= binner.start) & (timestamps < binner.end)
    offsets = timestamps[in_range] - binner.start
    quotients = offsets / binner.width
    dtype = np.int32 if binner.n_bins < 2**31 else np.int64
    indices = quotients.astype(dtype)
    edge = indices == quotients
    indices[edge] = offsets[edge] // binner.width
    column = np.full(timestamps.shape, -1, dtype=dtype)
    column[in_range] = indices
    return column


def _kept(bins: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Rows of a bin column that are in range (and selected by ``mask``)."""
    keep = bins >= 0
    return keep if mask is None else keep & mask


def binned_counts(binner: TimeBinner, bins: np.ndarray,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Number of events per bin, from a :func:`bin_index_column` column
    (only the rows ``mask`` selects, when given)."""
    return np.bincount(bins[_kept(bins, mask)],
                       minlength=binner.n_bins).astype(float)


def binned_sums(binner: TimeBinner, bins: np.ndarray, values: np.ndarray,
                mask: np.ndarray | None = None) -> np.ndarray:
    """Sum of event values per bin, from a :func:`bin_index_column` column
    (only the rows ``mask`` selects, when given)."""
    keep = _kept(bins, mask)
    return np.bincount(bins[keep], weights=np.asarray(values)[keep],
                       minlength=binner.n_bins).astype(float)


def binned_unique(binner: TimeBinner, bins: np.ndarray, keys: np.ndarray,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Number of distinct integer keys per bin, from a
    :func:`bin_index_column` column (only the rows ``mask`` selects).

    Used for the online/active users-per-hour series of Fig. 6, where each
    user should be counted once per hour regardless of how many requests the
    user issued in that hour.  The keys are deduplicated per bin with
    :func:`~repro.util.distinct.distinct_pairs` over ``(bin, key)`` pairs;
    non-integer keys raise ``TypeError`` (casting them would merge keys).
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "biu":
        raise TypeError(f"per-bin distinct counts take integer keys, "
                        f"not {keys.dtype}")
    keep = _kept(bins, mask)
    keys = keys[keep]
    if keys.size == 0:
        return np.zeros(binner.n_bins, dtype=float)
    # Casting to int64 is injective on every integer width (uint64 wraps
    # one-to-one), so distinct pairs are counted exactly.
    pairs = distinct_pairs(bins[keep], keys.astype(np.int64, copy=False))
    return np.bincount(pairs[:, 0], minlength=binner.n_bins).astype(float)


def bin_count_series(binner: TimeBinner, timestamps: Iterable[float]) -> np.ndarray:
    """Number of events per bin (vectorised ``np.bincount``)."""
    ts = timestamps if isinstance(timestamps, np.ndarray) else list(timestamps)
    return binned_counts(binner, bin_index_column(binner, ts))


def bin_sum_series(binner: TimeBinner, timestamps: np.ndarray,
                   values: np.ndarray) -> np.ndarray:
    """Sum of event values per bin."""
    return binned_sums(binner, bin_index_column(binner, timestamps), values)


def bin_unique_series(binner: TimeBinner, timestamps: np.ndarray,
                      keys: np.ndarray) -> np.ndarray:
    """Number of distinct integer keys seen per bin (see
    :func:`binned_unique`); non-integer keys raise ``TypeError``."""
    return binned_unique(binner, bin_index_column(binner, timestamps), keys)
