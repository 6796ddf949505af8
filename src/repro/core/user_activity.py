"""Online vs active users and operation frequencies (Section 6.1, Figs. 6/7a).

* A user is **online** in a given hour when their desktop client exhibits any
  interaction with the server (including maintenance/notification traffic);
  a user is **active** when they perform data-management operations.  Active
  users are a small minority — 3.5 % to 16.25 % of the online users at any
  moment — which shows that the actual storage workload is light compared to
  the potential of the user population.
* The most frequent API operations are data-management ones (downloads,
  uploads, deletions); session start-up operations (ListVolumes, ...) are not
  dominant because the U1 client does not poll during idle periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation

#: Codes of the data-management operations (the paper's "active user" test).
_DATA_MANAGEMENT_CODES = np.asarray(
    [OPERATION_CODE[op] for op in ApiOperation if op.is_data_management],
    dtype=np.int16)
from repro.util.timebin import binned_unique
from repro.util.units import HOUR

__all__ = [
    "OnlineActiveSeries",
    "online_active_users",
    "operation_counts",
    "OperationCountReport",
]


@dataclass(frozen=True)
class OnlineActiveSeries:
    """Per-hour counts of online and active users (Fig. 6)."""

    bin_edges: np.ndarray
    online: np.ndarray
    active: np.ndarray
    bin_width: float

    def active_share(self) -> np.ndarray:
        """Fraction of online users that are active, per hour."""
        online = np.maximum(self.online, 1.0)
        return self.active / online

    def active_share_range(self) -> tuple[float, float]:
        """Min/max active share over hours with at least one online user.

        The paper reports a range of 3.49 % to 16.25 %.
        """
        mask = self.online > 0
        if not np.any(mask):
            return 0.0, 0.0
        shares = self.active[mask] / self.online[mask]
        return float(shares.min()), float(shares.max())


def online_active_users(dataset: TraceDataset, bin_width: float = HOUR,
                        include_attacks: bool = False) -> OnlineActiveSeries:
    """Compute the Fig. 6 online/active users-per-hour series."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    binner = dataset.span_binner(bin_width)
    # Columnar fast path: concatenate the session and storage bin columns
    # and deduplicate (bin, user) pairs vectorised.
    storage_bins = source.storage_bins(binner)
    storage_users = source.storage_column("user_id")
    online = binned_unique(
        binner, np.concatenate([source.session_bins(binner), storage_bins]),
        np.concatenate([source.session_column("user_id"), storage_users]))
    management = np.isin(source.storage_column("operation"), _DATA_MANAGEMENT_CODES)
    active = binned_unique(binner, storage_bins, storage_users, management)
    return OnlineActiveSeries(bin_edges=binner.edges(), online=online,
                              active=active, bin_width=bin_width)


@dataclass(frozen=True)
class OperationCountReport:
    """Absolute number of operations per API type (Fig. 7a)."""

    counts: dict[ApiOperation, int]

    def total(self) -> int:
        """Total number of operations."""
        return sum(self.counts.values())

    def most_common(self, n: int | None = None) -> list[tuple[ApiOperation, int]]:
        """Operations sorted by decreasing frequency."""
        ordered = sorted(self.counts.items(), key=lambda item: item[1], reverse=True)
        return ordered if n is None else ordered[:n]

    def share(self, operation: ApiOperation) -> float:
        """Share of one operation among all operations."""
        total = self.total()
        return self.counts.get(operation, 0) / total if total else 0.0


def operation_counts(dataset: TraceDataset,
                     include_attacks: bool = False,
                     include_sessions: bool = True) -> OperationCountReport:
    """Count operations per API type (Fig. 7a).

    ``include_sessions`` adds OpenSession/CloseSession pseudo-operations
    derived from the session stream, as the paper's figure does.
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: one bincount over the operation-code column.
    operations = list(ApiOperation)
    code_counts = np.bincount(source.storage_column("operation"),
                              minlength=len(operations))
    counts: dict[ApiOperation, int] = {
        operations[code]: int(count)
        for code, count in enumerate(code_counts) if count
    }
    if include_sessions:
        from repro.trace.dataset import SESSION_EVENT_CODE
        from repro.trace.records import SessionEvent
        events = source.session_column("event")
        opens = int(np.sum(events == SESSION_EVENT_CODE[SessionEvent.CONNECT]))
        closes = int(np.sum(events == SESSION_EVENT_CODE[SessionEvent.DISCONNECT]))
        if opens:
            counts[ApiOperation.OPEN_SESSION] = opens
        if closes:
            counts[ApiOperation.CLOSE_SESSION] = closes
    return OperationCountReport(counts=counts)
