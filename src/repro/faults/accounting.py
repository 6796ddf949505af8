"""Fault counters, in the :class:`~repro.backend.datastore.StorageAccounting`
mold: one plain dataclass per replay shard, merged field by field into
``U1Cluster.last_replay_stats["fault_counters"]``.  The request counters
are column sums (:meth:`FaultAccounting.add_dispositions`) over what a
replay shard recorded, or over the offline simulator's faulted residue."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["DISPOSITION_KINDS", "FaultAccounting"]

#: A request's final ``error_kind`` by disposition code: served (""), then
#: each failure, counted by the :class:`FaultAccounting` field of its name.
DISPOSITION_KINDS = ("", "service_unavailable", "shard_read_only",
                     "storage_node_down")


@dataclass
class FaultAccounting:
    """Counters of one replay's (or one offline pass's) fault exposure."""

    #: Requests whose *first* attempt hit an injected fault.
    requests_faulted: int = 0
    #: Faulted requests that ultimately failed (user-visible errors).
    requests_failed: int = 0
    #: Faulted requests a mitigation (retry escape, replica failover)
    #: ultimately served.
    requests_recovered: int = 0
    #: Retry attempts issued by the retry mitigation.
    retries: int = 0
    #: Client-perceived backoff the retry mitigation spent (never shifts
    #: the replay clock — the replay is open-loop).
    backoff_seconds: float = 0.0

    # Final user-visible errors by kind (matches the trace ``error_kind``
    # column values).
    service_unavailable: int = 0
    shard_read_only: int = 0
    storage_node_down: int = 0
    #: Session opens rejected while an AuthOutage window was active.
    auth_outage_failures: int = 0

    #: Transfer requests served by a surviving replica of a down node.
    failover_requests: int = 0

    #: RPCs executed by a degraded process inside its window, and the extra
    #: service seconds the degradation added on top of the healthy draw.
    degraded_rpcs: int = 0
    degraded_extra_seconds: float = 0.0

    def add_dispositions(self, dispositions) -> None:
        """Add the counters of :class:`~repro.faults.runtime.Dispositions`
        in the order the requests were served: ``backoff_seconds`` adds up
        one request at a time, every other counter is a column sum."""
        error, retries = dispositions.error, dispositions.retries
        failover = dispositions.failover
        by_code = np.bincount(error, minlength=len(DISPOSITION_KINDS))
        failed = len(error) - int(by_code[0])
        recovered = int(np.count_nonzero((error == 0)
                                         & ((retries > 0) | failover)))
        self.requests_faulted += failed + recovered
        self.requests_failed += failed
        self.requests_recovered += recovered
        self.retries += int(retries.sum())
        for backoff in dispositions.backoff[retries > 0].tolist():
            self.backoff_seconds += backoff
        for code, kind in enumerate(DISPOSITION_KINDS[1:], start=1):
            setattr(self, kind, getattr(self, kind) + int(by_code[code]))
        self.failover_requests += int(np.count_nonzero(failover))

    def merge(self, other: "FaultAccounting") -> None:
        """Fold another shard's counters into this one (all additive)."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> dict:
        """Plain-dict view for ``last_replay_stats`` / JSON payloads."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @property
    def user_visible_errors(self) -> int:
        """Failed requests plus rejected session opens."""
        return self.requests_failed + self.auth_outage_failures
