"""Statistical primitives: empirical CDFs, autocorrelation, boxplots.

These are the building blocks of most figures in the paper: CDFs of file
sizes, session lengths and RPC service times; the autocorrelation function of
the hourly R/W ratio (Fig. 2c); and the boxplot of the same ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EmpiricalCDF",
    "percentile",
    "autocorrelation",
    "boxplot_summary",
    "BoxplotSummary",
    "pearson_correlation",
    "tail_fraction_beyond",
]


class EmpiricalCDF:
    """Empirical cumulative distribution function of a 1-D sample.

    The CDF is right-continuous: ``cdf(x)`` is the fraction of samples that
    are ``<= x``.  Quantiles are computed by linear interpolation of the
    order statistics, matching ``numpy.percentile`` defaults.
    """

    def __init__(self, samples: Iterable[float]):
        values = np.asarray(sorted(float(x) for x in samples), dtype=float)
        if values.size == 0:
            raise ValueError("EmpiricalCDF requires at least one sample")
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Sorted copy of the underlying sample."""
        return self._values.copy()

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self._values.size)

    def __len__(self) -> int:
        return self.n

    def __call__(self, x: float) -> float:
        """Fraction of samples less than or equal to ``x``."""
        return float(np.searchsorted(self._values, x, side="right")) / self.n

    def evaluate(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`__call__` over ``xs``."""
        xs_arr = np.asarray(xs, dtype=float)
        return np.searchsorted(self._values, xs_arr, side="right") / self.n

    def quantile(self, q: float) -> float:
        """Value below which a fraction ``q`` of the sample lies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return float(np.quantile(self._values, q))

    def median(self) -> float:
        """Median of the sample."""
        return self.quantile(0.5)

    def mean(self) -> float:
        """Mean of the sample."""
        return float(self._values.mean())

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, F(x))`` arrays suitable for plotting a CDF curve."""
        ys = np.arange(1, self.n + 1, dtype=float) / self.n
        return self._values.copy(), ys


def percentile(samples: Iterable[float], q: float) -> float:
    """Percentile (``q`` in [0, 100]) of ``samples``."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("percentile of empty sample is undefined")
    return float(np.percentile(values, q))


def autocorrelation(series: Sequence[float], max_lag: int | None = None) -> np.ndarray:
    """Sample autocorrelation function (ACF) of ``series``.

    Returns the ACF for lags ``0 .. max_lag`` (inclusive), normalised so that
    lag 0 equals 1.  Used to reproduce the R/W-ratio autocorrelation analysis
    of Fig. 2c: for an uncorrelated series the ACF is approximately normal
    with variance ``1/N``, giving 95 % confidence bounds of ``±2/sqrt(N)``.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError("autocorrelation requires at least two samples")
    if max_lag is None:
        max_lag = x.size - 1
    max_lag = min(max_lag, x.size - 1)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        # Constant series: define ACF as 1 at lag 0 and 0 elsewhere.
        acf = np.zeros(max_lag + 1)
        acf[0] = 1.0
        return acf
    acf = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        acf[lag] = float(np.dot(x[: x.size - lag], x[lag:])) / denom
    return acf


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number boxplot summary plus the mean, as used in Fig. 2c."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q3 - self.q1

    @property
    def spread_ratio(self) -> float:
        """Max/min ratio — the paper notes up to 8x within a day for R/W."""
        if self.minimum <= 0:
            return float("inf")
        return self.maximum / self.minimum


def boxplot_summary(samples: Iterable[float]) -> BoxplotSummary:
    """Compute the :class:`BoxplotSummary` of ``samples``."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("boxplot of empty sample is undefined")
    return BoxplotSummary(
        minimum=float(values.min()),
        q1=float(np.percentile(values, 25)),
        median=float(np.percentile(values, 50)),
        q3=float(np.percentile(values, 75)),
        maximum=float(values.max()),
        mean=float(values.mean()),
    )


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length sequences.

    Used in Fig. 10 to quantify the correlation between the number of files
    and directories within a volume (the paper reports 0.998).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("sequences must have equal length")
    if x.size < 2:
        raise ValueError("correlation requires at least two points")
    if np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def tail_fraction_beyond(samples: Iterable[float], multiple_of_median: float) -> float:
    """Fraction of samples larger than ``multiple_of_median`` x the median.

    The paper characterises RPC long tails as the share of service times
    "very far from the median value" (7 %-22 % across RPCs); this helper
    makes that notion concrete and testable.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("tail fraction of empty sample is undefined")
    med = float(np.median(values))
    if med == 0.0:
        return float(np.mean(values > 0.0))
    return float(np.mean(values > multiple_of_median * med))
