"""DDoS / abuse detection (Section 5.4, Fig. 5).

The paper found three DDoS attacks during the measurement month by looking at
the per-hour time series of request rates per request type: under attack the
session and authentication activity jumped 5-15x over the usual level and the
API storage activity up to 245x, because a single compromised account was
shared across thousands of desktop clients to distribute illegal content.

:func:`detect_anomalies` reproduces that detection: it builds per-hour rate
series per request family (rpc / session / auth / storage), establishes a
robust baseline (median of the same hour-of-day across the trace) and flags
hours whose rate exceeds ``threshold`` times the baseline.  Consecutive
flagged hours are merged into :class:`AttackWindow` episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import SESSION_EVENT_CODE, TraceDataset
from repro.trace.records import SessionEvent
from repro.util.timebin import TimeBinner, binned_counts
from repro.util.units import HOUR

__all__ = [
    "RequestRateSeries",
    "request_rate_series",
    "AttackWindow",
    "detect_anomalies",
    "attack_amplification",
]


@dataclass(frozen=True)
class RequestRateSeries:
    """Per-hour request counts per request family (Fig. 5)."""

    bin_edges: np.ndarray
    rpc: np.ndarray
    session: np.ndarray
    auth: np.ndarray
    storage: np.ndarray
    bin_width: float

    def series(self, family: str) -> np.ndarray:
        """One of the four series by name."""
        try:
            return getattr(self, family)
        except AttributeError:
            raise KeyError(f"unknown request family {family!r}") from None


#: Session-stream event codes counted by the session and auth families.
_FAMILY_EVENTS = {
    "session": [SESSION_EVENT_CODE[SessionEvent.CONNECT],
                SESSION_EVENT_CODE[SessionEvent.DISCONNECT]],
    "auth": [SESSION_EVENT_CODE[SessionEvent.AUTH_REQUEST],
             SESSION_EVENT_CODE[SessionEvent.AUTH_OK],
             SESSION_EVENT_CODE[SessionEvent.AUTH_FAIL]],
}


def _family_series(dataset: TraceDataset, family: str,
                   binner: TimeBinner) -> np.ndarray:
    """Requests per bin of one family, counted over the stream's cached
    bin-index column."""
    if family == "rpc":
        return binned_counts(binner, dataset.rpc_bins(binner))
    if family == "storage":
        return binned_counts(binner, dataset.storage_bins(binner))
    if family in _FAMILY_EVENTS:
        events = np.isin(dataset.session_column("event"), _FAMILY_EVENTS[family])
        return binned_counts(binner, dataset.session_bins(binner), events)
    raise KeyError(f"unknown request family {family!r}")


def request_rate_series(dataset: TraceDataset,
                        bin_width: float = HOUR) -> RequestRateSeries:
    """Build the per-hour request-rate series of Fig. 5 (attacks included)."""
    binner = dataset.span_binner(bin_width)
    families = {family: _family_series(dataset, family, binner)
                for family in ("rpc", "session", "auth", "storage")}
    return RequestRateSeries(bin_edges=binner.edges(), bin_width=bin_width,
                             **families)


@dataclass(frozen=True)
class AttackWindow:
    """A detected anomalous window."""

    start: float
    end: float
    peak_rate: float
    baseline_rate: float
    family: str

    @property
    def amplification(self) -> float:
        """Peak rate relative to the baseline."""
        if self.baseline_rate <= 0:
            return float("inf")
        return self.peak_rate / self.baseline_rate

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.end - self.start


def _hour_of_day_baseline(series: np.ndarray, bins_per_day: int) -> np.ndarray:
    """Median rate per position-in-day, broadcast back over the series.

    The median takes the positive rates of a position, or all of them when
    none is positive, and is at least 1.  All positions are reduced at once:
    the series is laid out one day per row (NaN-padded), the kept rates are
    sorted down each column (NaN last), and the median is the mean of the
    two middle ones, as ``np.median`` takes it.
    """
    n = series.size
    days = -(-n // bins_per_day)
    table = np.full(days * bins_per_day, np.nan)
    table[:n] = series
    table = table.reshape(days, bins_per_day)
    positive = table > 0
    kept = np.where(positive | ~positive.any(axis=0), table, np.nan)
    ordered = np.sort(kept, axis=0)
    count = np.count_nonzero(~np.isnan(kept), axis=0)
    # Positions a short trace never reaches have no rates: they read a
    # NaN here and are cut off below.
    position = np.arange(bins_per_day)
    low = ordered[(count - 1) // 2, position]
    high = ordered[count // 2, position]
    per_position = np.maximum((low + high) / 2, 1.0)
    return np.tile(per_position, days)[:n]


def detect_anomalies(dataset: TraceDataset, family: str = "storage",
                     threshold: float = 4.0,
                     bin_width: float = HOUR) -> list[AttackWindow]:
    """Detect anomalous activity windows in one request family.

    ``threshold`` is the multiple of the hour-of-day baseline above which an
    hour is flagged; consecutive flagged hours are merged into one window.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1")
    binner = dataset.span_binner(bin_width)
    series = _family_series(dataset, family, binner)
    edges = binner.edges()
    bins_per_day = max(1, int(round(86400 / bin_width)))
    baseline = _hour_of_day_baseline(series, bins_per_day)
    flagged = series > threshold * baseline

    windows: list[AttackWindow] = []
    i = 0
    while i < flagged.size:
        if not flagged[i]:
            i += 1
            continue
        j = i
        while j + 1 < flagged.size and flagged[j + 1]:
            j += 1
        segment = slice(i, j + 1)
        windows.append(AttackWindow(
            start=float(edges[i]),
            end=float(edges[j] + bin_width),
            peak_rate=float(series[segment].max()),
            baseline_rate=float(baseline[segment].mean()),
            family=family,
        ))
        i = j + 1
    return windows


def attack_amplification(dataset: TraceDataset,
                         bin_width: float = HOUR) -> dict[str, float]:
    """Peak-over-typical amplification per request family.

    Uses the ground-truth attack labels carried by the synthetic trace when
    present (records with ``caused_by_attack``); reproduces the "activity
    under attack was 5-245x higher than usual" style of statement.
    """
    rates_all = request_rate_series(dataset, bin_width=bin_width)
    legit = dataset.without_attack_traffic()
    rates_legit = request_rate_series(legit, bin_width=bin_width)
    result: dict[str, float] = {}
    for family in ("session", "auth", "storage"):
        all_series = rates_all.series(family)
        legit_series = rates_legit.series(family)
        typical = float(np.median(legit_series[legit_series > 0])) if np.any(
            legit_series > 0) else 1.0
        result[family] = float(all_series.max()) / max(typical, 1.0)
    return result
