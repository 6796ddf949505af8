"""Power-law (Pareto tail) fitting for inter-operation times (Fig. 9).

The paper approximates the empirical distribution of per-user inter-operation
times with ``P(X >= x) ~ x^{-alpha}`` for ``x > theta`` and ``1 < alpha < 2``
(alpha = 1.54, theta = 41.37 for uploads; alpha = 1.44, theta = 19.51 for
unlinks), concluding that user operations are bursty and non-Poisson.

We implement the standard continuous maximum-likelihood (Hill) estimator for
the tail exponent given a threshold, a simple Kolmogorov-Smirnov scan to
choose the threshold (Clauset, Shalizi & Newman, SIAM Review 2009), and a
CCDF helper for plotting.

The scan sorts the sample once: the tail of every candidate threshold is a
suffix of the sorted sample, found by binary search, so no candidate masks,
copies or sorts it again.

Rounding note: each candidate's exponent is ``1 / mean(log(x / theta))``
over its suffix.  Every term is non-negative, so the only rounding that
depends on the implementation is the order of the summation (the sorted
suffix here, sample order in a mask-based scan): ``alpha`` and
``ks_distance`` move by a few ulps, and ``theta`` and ``n_tail`` do not.
Summing ``log(x)`` once and subtracting ``n log(theta)`` per candidate
would save the per-candidate logarithm, but it cancels when the tail hugs
``theta`` and no longer reproduces the scan to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "ccdf_points", "is_bursty"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting a Pareto tail to a sample.

    Attributes
    ----------
    alpha:
        Tail exponent of the CCDF, i.e. ``P(X >= x) ~ x^-alpha``.  Note that
        the probability-density exponent is ``alpha + 1``.
    theta:
        Threshold above which the power law holds (``x_min``).
    n_tail:
        Number of samples in the fitted tail.
    ks_distance:
        Kolmogorov-Smirnov distance between the empirical and fitted tail
        CCDFs (smaller is better).
    """

    alpha: float
    theta: float
    n_tail: int
    ks_distance: float

    def ccdf(self, x: float) -> float:
        """Model CCDF ``P(X >= x)`` conditional on ``X >= theta``."""
        if x < self.theta:
            return 1.0
        return float((x / self.theta) ** (-self.alpha))


def _positive_sorted(samples) -> np.ndarray:
    """The sample's positive values as a sorted float64 array."""
    values = np.asarray(samples if isinstance(samples, np.ndarray)
                        else list(samples), dtype=float).ravel()
    return np.sort(values[values > 0])


def _tail_fit(tail: np.ndarray, theta: float) -> PowerLawFit:
    """Continuous MLE of the CCDF exponent for a sorted tail ``>= theta``,
    with the KS distance between its empirical CCDF and the Pareto model.

    ``alpha`` is ``inf`` when every tail sample equals ``theta``.
    """
    n = tail.size
    ratios = tail / theta
    mean_log = float(np.log(ratios).mean())
    alpha = 1.0 / mean_log if mean_log > 0 else float("inf")
    empirical = 1.0 - np.arange(n, dtype=float) / n
    ks = float(np.max(np.abs(empirical - ratios ** (-alpha))))
    return PowerLawFit(alpha=alpha, theta=theta, n_tail=int(n), ks_distance=ks)


def fit_power_law(samples: Iterable[float], theta: float | None = None,
                  n_candidates: int = 50, min_tail: int = 10) -> PowerLawFit:
    """Fit a Pareto tail to a positive sample.

    Parameters
    ----------
    samples:
        Observations (e.g. inter-operation times in seconds), as an array or
        any iterable of numbers.  Non-positive values are discarded,
        mirroring the paper's log-log treatment.
    theta:
        Fixed threshold.  When omitted, candidate thresholds are scanned over
        quantiles of the sample and the one minimising the KS distance is
        selected (Clauset-style model selection, simplified).
    n_candidates:
        Number of candidate thresholds scanned when ``theta`` is None.
    min_tail:
        Minimum number of tail samples required for a candidate threshold.
    """
    values = _positive_sorted(samples)
    if values.size < min_tail:
        raise ValueError(f"need at least {min_tail} positive samples to fit a tail")

    if theta is not None:
        start = int(np.searchsorted(values, theta, side="left"))
        if values.size - start < 2:
            raise ValueError("threshold leaves fewer than two tail samples")
        return _tail_fit(values[start:], float(theta))

    quantiles = np.linspace(0.0, 0.95, n_candidates)
    candidates = np.unique(np.quantile(values, quantiles))
    # The tail of each candidate is a suffix of the one sorted sample.
    starts = np.searchsorted(values, candidates, side="left")
    best: PowerLawFit | None = None
    for candidate, start in zip(candidates.tolist(), starts.tolist()):
        if candidate <= 0 or values.size - start < min_tail:
            continue
        fit = _tail_fit(values[start:], candidate)
        if not math.isfinite(fit.alpha):
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError("could not fit a power-law tail to the sample")
    return best


def ccdf_points(samples: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CCDF ``(x, P(X >= x))`` suitable for log-log plotting."""
    values = _positive_sorted(samples)
    if values.size == 0:
        raise ValueError("CCDF of empty sample is undefined")
    probs = 1.0 - np.arange(values.size, dtype=float) / values.size
    return values, probs


def is_bursty(samples: Iterable[float], cv_threshold: float = 1.5) -> bool:
    """Heuristic burstiness check based on the coefficient of variation.

    A Poisson process has exponential inter-arrival times with a coefficient
    of variation of 1; per the paper, user inter-operation times exhibit much
    higher variance.  We flag a sample as bursty when its CV exceeds
    ``cv_threshold``.
    """
    values = np.asarray(samples if isinstance(samples, np.ndarray)
                        else list(samples), dtype=float).ravel()
    values = values[values >= 0]
    if values.size < 2:
        raise ValueError("burstiness check requires at least two samples")
    mean = values.mean()
    if mean == 0:
        return False
    return bool(values.std() / mean > cv_threshold)
