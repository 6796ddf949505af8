"""Offline mitigation simulator: fault policies replayed over trace columns.

A request's fault fate is a pure function of trace-visible request identity
(timestamp bits, user, session, operation class, content hash, shard).  A
:class:`FaultTrace` decodes the faulted baseline trace once into
:class:`~repro.faults.runtime.RequestColumns`; per fault schedule,
:meth:`~repro.faults.runtime.FaultSchedule.faulted_rows` masks them in one
vectorised pass, and :func:`simulate_mitigation` resolves only that
residue under a :class:`~repro.faults.mitigation.MitigationPolicy` — no
backend, no RPC sampling, no trace sink (see :mod:`repro.faults.sweep`).
Every other request is served as recorded under any policy.

Equivalence contract (pinned by ``tests/faults/test_simulator.py``): a live
replay shard runs the same procedure on its requests before dispatch — the
same mask, residue resolution
(:meth:`~repro.faults.runtime.FaultInjector.resolve`) and counting
(:meth:`~repro.faults.accounting.FaultAccounting.add_dispositions`) — and
both policy kinds (``none`` and ``retry``) run live too, so the two sides
match counter for counter on the same request rows.  Two rules bound it:

* the trace must be the **mitigation-free** (``kind="none"``) replay of the
  same fault plan: a fault-hit request fails before dispatch and leaves
  exactly one storage row, so the baseline row set is the complete request
  log whatever policy is re-evaluated offline, and the rows a live replay
  records and counts;
* the offline ``degraded_rpcs``/``degraded_extra_seconds`` are those of the
  mitigation-free replay under every policy (the inflation is inverted from
  the baseline trace's recorded service times).  A live *retry* replay can
  differ from them in these two counters: its recovered requests run RPCs
  the baseline trace never recorded, and their latency draws shift the
  replay shard's sequential stream, so later RPCs on a degraded worker draw
  other service times.  Every other counter stays equal (the flapping
  fixture of the tests pins exactly this split), and on a plan without
  degraded-process windows the two sides are equal throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.faults.accounting import FaultAccounting
from repro.faults.mitigation import MitigationPolicy
from repro.faults.runtime import FaultInjector, FaultSchedule, RequestColumns
from repro.trace.dataset import SESSION_EVENT_CODE, TraceDataset
from repro.trace.records import SessionEvent

__all__ = ["FaultTrace", "MitigationOutcome", "simulate_mitigation"]

#: Client-visible cost of one failed attempt, in seconds (the latency
#: model's stand-in for the request timeout).
TIMEOUT_SECONDS = 0.5

_AUTH_REQUEST = SESSION_EVENT_CODE[SessionEvent.AUTH_REQUEST]
_AUTH_FAIL = SESSION_EVENT_CODE[SessionEvent.AUTH_FAIL]


@dataclass
class MitigationOutcome:
    """What one mitigation policy would have made of the faulted timeline."""

    policy: MitigationPolicy
    accounting: FaultAccounting
    #: Storage requests plus authentication attempts.
    n_requests: int
    #: User-visible errors (final request failures + auth-outage denials)
    #: over ``n_requests``.
    error_rate: float
    #: Request-latency percentiles under the policy (sum of a request's RPC
    #: service times; failed attempts cost the client timeout).
    p50_latency: float
    p99_latency: float
    p999_latency: float
    #: Percentile over the same percentile of the fault-free latency
    #: baseline (degradation inverted, faults ignored); 1.0 = no inflation.
    p99_inflation: float
    p999_inflation: float
    #: Retries per request.
    ops_overhead: float
    #: linkguardian-style scalar: errors dominate, then tail inflation,
    #: then the cost of extra attempts.
    penalty: float
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "policy": self.policy.name,
            "kind": self.policy.kind,
            "description": self.policy.description,
            "n_requests": self.n_requests,
            "error_rate": self.error_rate,
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "p999_latency": self.p999_latency,
            "p99_inflation": self.p99_inflation,
            "p999_inflation": self.p999_inflation,
            "ops_overhead": self.ops_overhead,
            "penalty": self.penalty,
            "seconds": self.seconds,
            "fault_counters": self.accounting.as_dict(),
        }


@dataclass(eq=False, repr=False)
class FaultTrace:
    """The faulted trace decoded once into flat request identities.

    Holds the storage requests' :class:`~repro.faults.runtime.RequestColumns`,
    the as-traced request latencies (RPC service-time sums grouped by
    ``(session, timestamp)``), and the session stream's authentication
    events.  Schedule-dependent derivations (first-attempt fault rows,
    degraded-RPC inversion, auth-outage counts, healthy tail) are memoised
    for the last schedule seen, so a sweep pays them once, not once per
    policy.
    """

    requests: RequestColumns
    latency: np.ndarray
    auth_requests: int
    auth_fail_ts: np.ndarray
    rpc_ts: np.ndarray
    rpc_workers: np.ndarray | None
    rpc_service: np.ndarray
    rpc_request: np.ndarray
    #: ``(schedule, stats)``: holding the schedule and comparing with
    #: ``is`` means a new schedule can never inherit a freed one's stats.
    _schedule_stats: tuple | None = field(default=None, init=False)

    @property
    def n_requests(self) -> int:
        return len(self.requests.ts)

    @classmethod
    def from_dataset(cls, dataset: TraceDataset,
                     processes_per_machine: int | None = None,
                     machine_names: list[str] | None = None) -> "FaultTrace":
        """Decode the columns one mitigation sweep needs.

        ``processes_per_machine``/``machine_names`` (from the replaying
        cluster's config) map each RPC row's ``(server, process)`` back to
        the fleet-wide worker index the degraded-process windows are keyed
        on; leave them ``None`` for plans without degraded faults.
        """
        ts = dataset.storage_column("timestamp")
        sessions = dataset.storage_column("session_id")
        requests = RequestColumns.of(
            ts, dataset.storage_column("user_id"), sessions,
            dataset.storage_column("operation"),
            *dataset.storage_codes("content_hash"),
            dataset.storage_column("shard_id"))

        rpc_ts = dataset.rpc_column("timestamp")
        rpc_service = dataset.rpc_column("service_time")
        rpc_request = _request_rows(sessions, ts,
                                    dataset.rpc_column("session_id"), rpc_ts)
        served = rpc_request >= 0
        # bincount adds in RPC-row order, as a per-row ``+=`` would; it
        # returns int64 when no RPC row is served, hence the cast.
        latency = np.bincount(rpc_request[served],
                              weights=rpc_service[served],
                              minlength=len(ts)).astype(np.float64, copy=False)

        rpc_workers = None
        if processes_per_machine is not None and machine_names is not None:
            machine_index = {name: i for i, name in enumerate(machine_names)}
            server_codes, server_cats = dataset.rpc_codes("server")
            cat_to_machine = np.array(
                [machine_index.get(name, -1) for name in server_cats],
                dtype=np.int64)
            rpc_workers = (cat_to_machine[server_codes] * processes_per_machine
                           + dataset.rpc_column("process"))

        event = dataset.session_column("event")
        session_ts = dataset.session_column("timestamp")
        return cls(
            requests=requests, latency=latency,
            auth_requests=int(np.count_nonzero(event == _AUTH_REQUEST)),
            auth_fail_ts=session_ts[event == _AUTH_FAIL],
            rpc_ts=rpc_ts, rpc_workers=rpc_workers,
            rpc_service=rpc_service, rpc_request=rpc_request)

    def schedule_stats(self, schedule: FaultSchedule) -> "_ScheduleStats":
        """Schedule-dependent derivations, computed once per schedule."""
        memo = self._schedule_stats
        if memo is None or memo[0] is not schedule:
            memo = self._schedule_stats = (schedule,
                                           _ScheduleStats(self, schedule))
        return memo[1]


def _request_rows(sessions: np.ndarray, ts: np.ndarray,
                  rpc_sessions: np.ndarray, rpc_ts: np.ndarray) -> np.ndarray:
    """The storage row of each RPC row's request, -1 where there is none.

    Every RPC row carries its request's dispatch timestamp and session, so
    a request is keyed by ``(session, timestamp)``; the first storage row
    with a key owns it.
    """
    n = len(ts)
    keys_ts = np.concatenate((ts, rpc_ts))
    keys_session = np.concatenate((sessions, rpc_sessions))
    # Stable sort by key: within one key the storage rows come first, in
    # row order, ahead of the key's RPC rows.
    order = np.lexsort((keys_session, keys_ts))
    keys_ts = keys_ts[order]
    keys_session = keys_session[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = ((keys_ts[1:] != keys_ts[:-1])
                | (keys_session[1:] != keys_session[:-1]))
    owner = order[head]
    owner[owner >= n] = -1  # a key no storage row carries
    owner_sorted = owner[np.cumsum(head) - 1]
    is_rpc = order >= n
    rpc_request = np.empty(len(rpc_ts), dtype=np.int64)
    rpc_request[order[is_rpc] - n] = owner_sorted[is_rpc]
    return rpc_request


class _ScheduleStats:
    """Per-(trace, schedule) derivations shared across a sweep's policies."""

    __slots__ = ("auth_outage_failures", "degraded_rpcs",
                 "degraded_extra_seconds", "fault_rows", "healthy_p99",
                 "healthy_p999", "clean_fill")

    def __init__(self, trace: FaultTrace, schedule: FaultSchedule):
        self.auth_outage_failures = int(np.count_nonzero(
            schedule.auth_outage(trace.auth_fail_ts)))

        # Invert degraded-process inflation from the recorded service times:
        # the live worker multiplied the drawn time by ``inflation``, so the
        # healthy draw is ``recorded / inflation`` and the counted extra is
        # their difference — the same quantity, up to float re-association,
        # that the live ``degraded_extra_seconds`` accumulated.
        self.degraded_rpcs = 0
        self.degraded_extra_seconds = 0.0
        healthy = trace.latency.copy()
        if schedule.degraded:
            if trace.rpc_workers is None:
                raise ValueError(
                    "schedule has degraded-process windows; decode the trace "
                    "with the cluster's processes_per_machine/machine_names "
                    "so RPC rows can be mapped back to workers")
            inflation = schedule.degraded_inflation(trace.rpc_workers,
                                                    trace.rpc_ts)
            hits = np.flatnonzero(inflation > 1.0)
            extra = trace.rpc_service[hits] * (1.0 - 1.0 / inflation[hits])
            self.degraded_rpcs = len(hits)
            self.degraded_extra_seconds = float(extra.sum())
            # Unbuffered, in row order: the same subtractions, in the same
            # order, as one ``healthy[row] -= extra`` per hit.
            rows = trace.rpc_request[hits]
            served = rows >= 0
            np.subtract.at(healthy, rows[served], extra[served])

        # The fault-free latency baseline: degradation inverted, and rows
        # the baseline replay failed (they carry no RPCs, hence zero
        # latency) backfilled with the clean median so the percentile floor
        # is a served request, not a fault artifact.
        served = healthy[healthy > 0.0]
        self.clean_fill = float(np.median(served)) if len(served) else 0.0
        healthy[healthy <= 0.0] = self.clean_fill
        self.healthy_p99 = _pct(healthy, 99)
        self.healthy_p999 = _pct(healthy, 99.9)

        # Only rows whose first attempt a fault hits can move under any
        # policy: a clean first attempt changes no counter and keeps the
        # recorded latency.
        self.fault_rows = schedule.faulted_rows(trace.requests)


def simulate_mitigation(trace: FaultTrace, schedule: FaultSchedule,
                        policy: MitigationPolicy) -> MitigationOutcome:
    """Re-resolve every first-attempt-faulted request under ``policy``,
    offline."""
    started = time.perf_counter()
    policy.validate()
    stats = trace.schedule_stats(schedule)
    injector = FaultInjector(schedule, policy)
    resolved = injector.resolve(trace.requests, stats.fault_rows)
    acc = injector.accounting
    acc.auth_outage_failures = stats.auth_outage_failures
    acc.degraded_rpcs = stats.degraded_rpcs
    acc.degraded_extra_seconds = stats.degraded_extra_seconds
    acc.add_dispositions(resolved)

    latency = trace.latency.copy()
    for row, error, retries in zip(resolved.rows.tolist(),
                                   resolved.error.tolist(),
                                   resolved.retries.tolist()):
        if error:
            latency[row] = (retries + 1) * TIMEOUT_SECONDS \
                + policy.total_backoff(retries)
        elif retries:
            latency[row] = retries * TIMEOUT_SECONDS \
                + policy.total_backoff(retries) + stats.clean_fill

    n_requests = trace.n_requests + trace.auth_requests
    errors = acc.user_visible_errors
    error_rate = errors / n_requests if n_requests else 0.0
    p50, p99, p999 = (_pct(latency, 50), _pct(latency, 99),
                      _pct(latency, 99.9))
    hp99, hp999 = stats.healthy_p99, stats.healthy_p999
    p99_inflation = p99 / hp99 if hp99 > 0 else 1.0
    p999_inflation = p999 / hp999 if hp999 > 0 else 1.0
    ops_overhead = (acc.retries / trace.n_requests
                    if trace.n_requests else 0.0)
    penalty = (1000.0 * error_rate
               + 10.0 * max(0.0, p999_inflation - 1.0)
               + ops_overhead)
    return MitigationOutcome(
        policy=policy, accounting=acc, n_requests=n_requests,
        error_rate=error_rate, p50_latency=p50, p99_latency=p99,
        p999_latency=p999, p99_inflation=p99_inflation,
        p999_inflation=p999_inflation, ops_overhead=ops_overhead,
        penalty=penalty, seconds=time.perf_counter() - started)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
