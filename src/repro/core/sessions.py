"""Authentication activity and session behaviour (Section 7.3, Figs. 15/16).

* **Fig. 15** — per-hour time series of API session-management operations and
  authentication-service requests: clear daily/weekly patterns (50-60 %
  higher during the day, Mondays ~15 % above weekends), and 2.76 % of
  authentication requests fail.
* **Fig. 16** — session lengths and per-session storage operations: 97 % of
  sessions are shorter than 8 hours, ~32 % are shorter than one second
  (NAT/firewall resets); only 5.57 % of sessions are *active* (perform any
  data management), active sessions are much longer than cold ones, and 20 %
  of the active sessions account for ~96.7 % of all storage operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import SESSION_EVENT_CODE, TraceDataset
from repro.trace.records import SessionEvent
from repro.util.stats import EmpiricalCDF
from repro.util.timebin import binned_counts
from repro.util.units import HOUR

__all__ = [
    "AuthActivitySeries",
    "auth_activity",
    "SessionAnalysis",
    "session_analysis",
]


@dataclass(frozen=True)
class AuthActivitySeries:
    """Hourly session-management and authentication request counts (Fig. 15)."""

    bin_edges: np.ndarray
    session_requests: np.ndarray
    auth_requests: np.ndarray
    auth_failures: int
    auth_total: int
    bin_width: float

    @property
    def auth_failure_ratio(self) -> float:
        """Observed fraction of failed authentication requests (paper: 2.76 %)."""
        return self.auth_failures / self.auth_total if self.auth_total else 0.0

    def day_night_ratio(self) -> float:
        """Mean daytime (9-17h) rate over mean night-time (0-6h) rate."""
        bins_per_day = max(1, int(round(86400 / self.bin_width)))
        day_idx = [i for i in range(self.auth_requests.size)
                   if 9 <= (i % bins_per_day) * (self.bin_width / HOUR) < 17]
        night_idx = [i for i in range(self.auth_requests.size)
                     if (i % bins_per_day) * (self.bin_width / HOUR) < 6]
        day = self.auth_requests[day_idx].mean() if day_idx else 0.0
        night = self.auth_requests[night_idx].mean() if night_idx else 0.0
        if night == 0:
            return float("inf") if day > 0 else 1.0
        return float(day / night)


def auth_activity(dataset: TraceDataset, bin_width: float = HOUR,
                  include_attacks: bool = True) -> AuthActivitySeries:
    """Build the Fig. 15 authentication/session activity series."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    binner = dataset.span_binner(bin_width)
    # Columnar fast path: event-code masks over the cached bin column.
    bins = source.session_bins(binner)
    event_codes = source.session_column("event")
    connectish = np.isin(event_codes, [SESSION_EVENT_CODE[SessionEvent.CONNECT],
                                       SESSION_EVENT_CODE[SessionEvent.DISCONNECT]])
    requests = event_codes == SESSION_EVENT_CODE[SessionEvent.AUTH_REQUEST]
    failures = int(np.sum(event_codes == SESSION_EVENT_CODE[SessionEvent.AUTH_FAIL]))
    return AuthActivitySeries(
        bin_edges=binner.edges(),
        session_requests=binned_counts(binner, bins, connectish),
        auth_requests=binned_counts(binner, bins, requests),
        auth_failures=failures,
        auth_total=int(np.sum(requests)),
        bin_width=bin_width,
    )


@dataclass(frozen=True)
class SessionAnalysis:
    """Session lengths and per-session storage activity (Fig. 16)."""

    lengths: np.ndarray
    storage_operations: np.ndarray

    @property
    def n_sessions(self) -> int:
        """Number of completed sessions observed."""
        return int(self.lengths.size)

    @property
    def active_sessions(self) -> int:
        """Sessions that performed at least one storage operation."""
        return int(np.sum(self.storage_operations > 0))

    @property
    def active_share(self) -> float:
        """Fraction of sessions that are active (paper: 5.57 %)."""
        return self.active_sessions / self.n_sessions if self.n_sessions else 0.0

    def length_cdf(self, active_only: bool = False) -> EmpiricalCDF:
        """CDF of session lengths (all sessions or active sessions only)."""
        if active_only:
            lengths = self.lengths[self.storage_operations > 0]
        else:
            lengths = self.lengths
        if lengths.size == 0:
            raise ValueError("no sessions to analyse")
        return EmpiricalCDF(lengths)

    def share_shorter_than(self, seconds: float) -> float:
        """Fraction of sessions shorter than ``seconds``."""
        if self.lengths.size == 0:
            return 0.0
        return float(np.mean(self.lengths < seconds))

    def median_length(self, active_only: bool = False) -> float:
        """Median session length."""
        return self.length_cdf(active_only=active_only).median()

    def top_sessions_share(self, top_fraction: float = 0.2) -> float:
        """Share of storage operations performed by the busiest sessions.

        The paper reports that the top 20 % of active sessions account for
        96.7 % of all data-management operations.
        """
        active = np.sort(self.storage_operations[self.storage_operations > 0])[::-1]
        if active.size == 0:
            return 0.0
        k = max(1, int(round(top_fraction * active.size)))
        return float(active[:k].sum() / active.sum())


def session_analysis(dataset: TraceDataset,
                     include_attacks: bool = False) -> SessionAnalysis:
    """Build the Fig. 16 session-length / operations-per-session analysis."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: DISCONNECT records carry the session metadata.
    disconnect = (source.session_column("event")
                  == SESSION_EVENT_CODE[SessionEvent.DISCONNECT])
    lengths = np.maximum(source.session_column("session_length")[disconnect], 0.0)
    operations = source.session_column("storage_operations")[disconnect].astype(float)
    return SessionAnalysis(lengths=lengths, storage_operations=operations)
