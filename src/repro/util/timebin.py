"""Fixed-width time binning for the paper's time-series figures.

Figures 2a, 5, 6, 14 and 15 all reduce the trace to per-hour (or per-minute)
counts or byte sums.  :class:`TimeBinner` provides a reusable, allocation-free
way to build those series from timestamp and value columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.util.distinct import distinct_pairs

__all__ = ["TimeBinner", "bin_count_series", "bin_sum_series", "bin_unique_series"]


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


def _bin_indices(binner: TimeBinner, timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``index_of``: (in-range mask, bin index per in-range event)."""
    in_range = (timestamps >= binner.start) & (timestamps < binner.end)
    indices = ((timestamps[in_range] - binner.start) // binner.width).astype(np.intp)
    return in_range, indices


def bin_count_series(binner: TimeBinner, timestamps: Iterable[float]) -> np.ndarray:
    """Number of events per bin (vectorised ``np.bincount``)."""
    ts = np.asarray(timestamps if isinstance(timestamps, np.ndarray)
                    else list(timestamps), dtype=float)
    _, indices = _bin_indices(binner, ts)
    return np.bincount(indices, minlength=binner.n_bins).astype(float)


def bin_sum_series(binner: TimeBinner, timestamps: np.ndarray,
                   values: np.ndarray) -> np.ndarray:
    """Sum of event values per bin."""
    in_range, indices = _bin_indices(binner, np.asarray(timestamps, dtype=float))
    return np.bincount(indices, weights=np.asarray(values, dtype=float)[in_range],
                       minlength=binner.n_bins).astype(float)


def bin_unique_series(binner: TimeBinner, timestamps: np.ndarray,
                      keys: np.ndarray) -> np.ndarray:
    """Number of distinct integer keys seen per bin.

    Used for the online/active users-per-hour series of Fig. 6, where each
    user should be counted once per hour regardless of how many requests the
    user issued in that hour.  The keys are deduplicated per bin with
    :func:`~repro.util.distinct.distinct_pairs` over ``(bin, key)`` pairs;
    non-integer keys raise ``TypeError`` (casting them would merge keys).
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "biu":
        raise TypeError(f"bin_unique_series takes integer keys, not {keys.dtype}")
    in_range, indices = _bin_indices(binner, np.asarray(timestamps, dtype=float))
    keys = keys[in_range]
    if keys.size == 0:
        return np.zeros(binner.n_bins, dtype=float)
    # Casting to int64 is injective on every integer width (uint64 wraps
    # one-to-one), so distinct pairs are counted exactly.
    bins = distinct_pairs(indices, keys.astype(np.int64, copy=False))[:, 0]
    return np.bincount(bins, minlength=binner.n_bins).astype(float)
