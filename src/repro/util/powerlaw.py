"""Power-law (Pareto tail) fitting for inter-operation times (Fig. 9).

The paper approximates the empirical distribution of per-user inter-operation
times with ``P(X >= x) ~ x^{-alpha}`` for ``x > theta`` and ``1 < alpha < 2``
(alpha = 1.54, theta = 41.37 for uploads; alpha = 1.44, theta = 19.51 for
unlinks), concluding that user operations are bursty and non-Poisson.

We implement the standard continuous maximum-likelihood (Hill) estimator for
the tail exponent given a threshold, a simple Kolmogorov-Smirnov scan to
choose the threshold, and a CCDF helper for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _mle_alpha(tail: np.ndarray, theta: float) -> float:
    """Continuous MLE of the CCDF exponent for samples ``>= theta``."""
    logs = np.log(tail / theta)
    mean_log = float(logs.mean())
    if mean_log <= 0:
        return float("inf")
    return 1.0 / mean_log


def _ks_distance(tail: np.ndarray, theta: float, alpha: float) -> float:
    """KS distance between the empirical tail CCDF and the Pareto model."""
    sorted_tail = np.sort(tail)
    n = sorted_tail.size
    empirical = 1.0 - np.arange(n, dtype=float) / n
    model = (sorted_tail / theta) ** (-alpha)
    return float(np.max(np.abs(empirical - model)))


def fit_power_law(samples: Iterable[float], theta: float | None = None,
                  n_candidates: int = 50, min_tail: int = 10) -> PowerLawFit:
    """Fit a Pareto tail to a positive sample.

    Parameters
    ----------
    samples:
        Observations (e.g. inter-operation times in seconds).  Non-positive
        values are discarded, mirroring the paper's log-log treatment.
    theta:
        Fixed threshold.  When omitted, candidate thresholds are scanned over
        quantiles of the sample and the one minimising the KS distance is
        selected (Clauset-style model selection, simplified).
    n_candidates:
        Number of candidate thresholds scanned when ``theta`` is None.
    min_tail:
        Minimum number of tail samples required for a candidate threshold.
    """
    values = np.asarray([float(x) for x in samples if x > 0], dtype=float)
    if values.size < min_tail:
        raise ValueError(f"need at least {min_tail} positive samples to fit a tail")

    if theta is not None:
        tail = values[values >= theta]
        if tail.size < 2:
            raise ValueError("threshold leaves fewer than two tail samples")
        alpha = _mle_alpha(tail, theta)
        return PowerLawFit(alpha=alpha, theta=float(theta), n_tail=int(tail.size),
                           ks_distance=_ks_distance(tail, theta, alpha))

    quantiles = np.linspace(0.0, 0.95, n_candidates)
    candidates = np.unique(np.quantile(values, quantiles))
    best: PowerLawFit | None = None
    for candidate in candidates:
        if candidate <= 0:
            continue
        tail = values[values >= candidate]
        if tail.size < min_tail:
            continue
        alpha = _mle_alpha(tail, float(candidate))
        if not np.isfinite(alpha):
            continue
        ks = _ks_distance(tail, float(candidate), alpha)
        fit = PowerLawFit(alpha=alpha, theta=float(candidate),
                          n_tail=int(tail.size), ks_distance=ks)
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError("could not fit a power-law tail to the sample")
    return best


def ccdf_points(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CCDF ``(x, P(X >= x))`` suitable for log-log plotting."""
    values = np.sort(np.asarray([float(x) for x in samples if x > 0], dtype=float))
    if values.size == 0:
        raise ValueError("CCDF of empty sample is undefined")
    probs = 1.0 - np.arange(values.size, dtype=float) / values.size
    return values, probs


def is_bursty(samples: Sequence[float], cv_threshold: float = 1.5) -> bool:
    """Heuristic burstiness check based on the coefficient of variation.

    A Poisson process has exponential inter-arrival times with a coefficient
    of variation of 1; per the paper, user inter-operation times exhibit much
    higher variance.  We flag a sample as bursty when its CV exceeds
    ``cv_threshold``.
    """
    values = np.asarray([float(x) for x in samples if x >= 0], dtype=float)
    if values.size < 2:
        raise ValueError("burstiness check requires at least two samples")
    mean = values.mean()
    if mean == 0:
        return False
    return bool(values.std() / mean > cv_threshold)
