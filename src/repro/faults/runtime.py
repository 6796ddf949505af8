"""Compiled fault schedules and the fault procedure live and offline share.

The planning pass compiles a :class:`~repro.faults.spec.FaultPlan` once
(:func:`compile_plan`) into an immutable, picklable :class:`FaultSchedule`
keyed on the *global* trace clock; every replay shard receives the same
schedule, so sharded and fused replays see bit-identical fault exposure.

Determinism is hash-based, never RNG-stream-based: the per-attempt failure
decision of a lossy link is a splitmix-style hash of ``(plan seed, request
identity, attempt index)``, and content-to-storage-node placement is
``crc32(content_hash) % n_nodes``, so a request's fault fate is a pure
function of its :class:`RequestColumns` row, known before dispatch.  One
procedure resolves the fates, mask then residue, for a replay shard before
dispatch and for the offline simulator (:mod:`repro.faults.simulator`):
:meth:`FaultSchedule.faulted_rows` masks the columns in one vectorised
pass, :meth:`FaultInjector.resolve` runs :func:`request_disposition` on
the rows it hits only, and
:meth:`~repro.faults.accounting.FaultAccounting.add_dispositions` counts
them.  Retry attempt ``k`` is re-evaluated at ``timestamp +
cumulative_backoff``; the replay stays open-loop — backoff is accounted,
never added to the replay clock.  The mask must stay equal to
``attempt_outcome(..., attempt=0) is not None`` row for row:
``tests/faults/test_runtime.py::TestFirstAttemptMask`` enforces that.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.backend.errors import is_retryable_kind
from repro.faults.accounting import DISPOSITION_KINDS, FaultAccounting
from repro.faults.mitigation import MitigationPolicy
from repro.faults.spec import (
    AuthOutage,
    DegradedProcess,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
)
from repro.trace.dataset import OPERATION_CODE
from repro.trace.records import MUTATING_OPERATIONS

__all__ = ["FAILOVER", "Dispositions", "FaultInjector", "FaultSchedule",
           "RequestColumns", "compile_plan", "content_node",
           "request_disposition"]

#: Sentinel outcome: the request hit a down storage node but a surviving
#: replica served it (counted, not failed).
FAILOVER = "failover"

_MASK64 = (1 << 64) - 1
_LOSSY_TAG = 0xA1
_PACK_DOUBLE = struct.Struct("<d").pack


def _mix64(*values: int) -> int:
    """Splitmix64-style avalanche over a tuple of integers."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = ((h ^ (v & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def _mix64_columns(h: int, *columns: np.ndarray) -> np.ndarray:
    """:func:`_mix64` continued from state ``h`` over uint64 columns.

    ``_mix64_columns(_mix64(a, b), c, d)[i] == _mix64(a, b, c[i], d)``
    for a column ``c`` and a ``np.uint64`` scalar ``d`` (only the first
    argument must be a column); uint64 array arithmetic wraps exactly like
    the ``& _MASK64`` of the scalar version.
    """
    out = np.full(len(columns[0]), h, dtype=np.uint64)
    for column in columns:
        out ^= column
        out *= np.uint64(0xBF58476D1CE4E5B9)
        out ^= out >> np.uint64(27)
        out *= np.uint64(0x94D049BB133111EB)
        out ^= out >> np.uint64(31)
    return out


def _float_bits(ts: float) -> int:
    """The IEEE-754 bits of a timestamp (exact, unlike any rounding)."""
    return int.from_bytes(_PACK_DOUBLE(ts), "little")


def content_node(content_hash: str, n_nodes: int) -> int:
    """Deterministic content-to-storage-node placement.

    ``crc32`` rather than ``hash()``: Python string hashing is salted per
    process, which would break both cross-process shard determinism and
    offline recomputation.
    """
    return zlib.crc32(content_hash.encode()) % n_nodes


#: Per operation code: whether it mutates, whether it moves contents.
_MUTATING_BY_CODE = np.array([op in MUTATING_OPERATIONS
                              for op in OPERATION_CODE])
_TRANSFER_BY_CODE = np.array([op.is_transfer for op in OPERATION_CODE])


class RequestColumns(NamedTuple):
    """The request identity a fault decision reads, one row per request;
    ``hash_codes`` index ``hash_categories``, -1 off the transfer path."""

    ts: np.ndarray
    users: np.ndarray
    sessions: np.ndarray
    mutating: np.ndarray
    hash_codes: np.ndarray
    hash_categories: list
    shards: np.ndarray

    @classmethod
    def of(cls, ts, users, sessions, operations, hash_codes, hash_categories,
           shards) -> "RequestColumns":
        """Columns from trace-coded operations and factorised hashes."""
        return cls(np.asarray(ts, dtype=np.float64), users, sessions,
                   _MUTATING_BY_CODE[operations],
                   np.where(_TRANSFER_BY_CODE[operations], hash_codes, -1),
                   list(hash_categories) or [""], shards)


@dataclass(frozen=True)
class FaultSchedule:
    """A compiled, immutable fault timeline (shared by every shard).

    All window tuples carry absolute ``[start, end)`` bounds.
    ``envelope`` is the ``(min start, max end)`` over every window: no
    request outside it can be faulted, so one float comparison there skips
    all fault work on the request path.
    """

    seed: int = 0
    #: worker index -> ((start, end, inflation), ...).
    degraded: dict = field(default_factory=dict)
    #: ((start, end, failure_rate), ...).
    lossy: tuple = ()
    #: ((start, end, shard_id), ...).
    read_only: tuple = ()
    #: ((start, end, node_index, n_nodes, failover), ...).
    storage_down: tuple = ()
    #: ((start, end), ...).
    auth: tuple = ()
    envelope: tuple = (float("inf"), float("-inf"))

    @property
    def active(self) -> bool:
        """Whether the schedule contains any fault window at all."""
        return self.envelope[0] < self.envelope[1]

    def iter_windows(self):
        """Every compiled fault window as ``(kind, start, end, detail)``.

        A flat, deterministic iteration (kind order fixed, windows in
        compiled order) used by the run-event log to record fault-window
        transitions; ``detail`` is a JSON-able dict of the window's
        kind-specific fields.
        """
        for worker_id in sorted(self.degraded):
            for start, end, inflation in self.degraded[worker_id]:
                yield ("degraded", start, end,
                       {"worker": worker_id, "inflation": inflation})
        for start, end, rate in self.lossy:
            yield ("lossy", start, end, {"failure_rate": rate})
        for start, end, shard_id in self.read_only:
            yield ("read-only", start, end, {"metadata_shard": shard_id})
        for start, end, node_index, n_nodes, failover in self.storage_down:
            yield ("storage-down", start, end,
                   {"node": node_index, "n_nodes": n_nodes,
                    "failover": bool(failover)})
        for start, end in self.auth:
            yield ("auth-outage", start, end, {})

    def degraded_inflation(self, workers: np.ndarray,
                           ts: np.ndarray) -> np.ndarray:
        """Each RPC's degraded-process inflation from its worker index and
        timestamp columns: the inflation of the first window of its
        worker's (in compiled order) that covers it, 1.0 where none does
        (every window's inflation exceeds 1.0)."""
        inflation = np.ones(len(ts))
        for worker, windows in self.degraded.items():
            free = workers == worker
            for start, end, factor in windows:
                hit = free & (ts >= start) & (ts < end)
                inflation[hit] = factor
                free &= ~hit
        return inflation

    def auth_outage(self, ts: np.ndarray) -> np.ndarray:
        """Which instants of ``ts`` an auth outage covers, as one mask."""
        covered = np.zeros(len(ts), dtype=bool)
        for start, end in self.auth:
            covered |= (ts >= start) & (ts < end)
        return covered

    def attempt_outcome(self, effective_ts: float, ts_bits: int,
                        user_id: int, session_id: int, mutating: bool,
                        transfer_hash: str, shard_id: int,
                        attempt: int) -> str | None:
        """The fate of one request attempt: ``None`` (clean), an
        ``error_kind`` string, or :data:`FAILOVER`.

        Precedence per attempt: lossy link, then shard read-only, then
        storage-node outage.  ``effective_ts`` is the attempt's (possibly
        backoff-shifted) instant; ``ts_bits``/``attempt`` salt the lossy
        hash so the request identity stays that of the original request.
        """
        for i, (start, end, rate) in enumerate(self.lossy):
            if start <= effective_ts < end and _mix64(
                    self.seed, _LOSSY_TAG + i, user_id, session_id,
                    ts_bits, attempt) < rate * 2.0 ** 64:
                return "service_unavailable"
        if mutating:
            for start, end, ro_shard in self.read_only:
                if ro_shard == shard_id and start <= effective_ts < end:
                    return "shard_read_only"
        if transfer_hash:
            for start, end, node, n_nodes, failover in self.storage_down:
                if start <= effective_ts < end and \
                        content_node(transfer_hash, n_nodes) == node:
                    return FAILOVER if failover else "storage_node_down"
        return None

    def first_attempt_faulted(self, ts: np.ndarray, user_ids: np.ndarray,
                              session_ids: np.ndarray, mutating: np.ndarray,
                              hash_codes: np.ndarray, hash_categories: list,
                              shard_ids: np.ndarray) -> np.ndarray:
        """Which requests a fault hits on their first attempt, as one mask.

        The vector twin of ``attempt_outcome(ts, _float_bits(ts), user_id,
        session_id, mutating, transfer_hash, shard_id, 0) is not None``
        over equal-length request columns; :data:`FAILOVER` counts as hit.
        ``hash_codes`` index ``hash_categories`` (the factorised transfer
        hashes); a negative code or an empty category means no transfer
        hash.  It is exact, not approximate: the lossy draw is the same
        splitmix64 hash in wrapping uint64 arithmetic, compared against the
        integer ``ceil(rate * 2**64)`` that the scalar float comparison
        implies.
        """
        ts = np.asarray(ts, dtype=np.float64)
        hit = np.zeros(len(ts), dtype=bool)
        for i, (start, end, rate) in enumerate(self.lossy):
            rows = np.flatnonzero((ts >= start) & (ts < end))
            limit = math.ceil(rate * 2.0 ** 64)
            if not len(rows) or limit <= 0:
                continue
            if limit > _MASK64:
                hit[rows] = True
                continue
            # int64 ids viewed as uint64 are the ``v & _MASK64`` of _mix64.
            draw = _mix64_columns(
                _mix64(self.seed, _LOSSY_TAG + i),
                user_ids[rows].astype(np.int64).view(np.uint64),
                session_ids[rows].astype(np.int64).view(np.uint64),
                ts[rows].view(np.uint64), np.uint64(0))
            hit[rows[draw < np.uint64(limit)]] = True
        for start, end, ro_shard in self.read_only:
            hit |= (mutating & (shard_ids == ro_shard)
                    & (ts >= start) & (ts < end))
        for start, end, node, n_nodes, _failover in self.storage_down:
            rows = np.flatnonzero((ts >= start) & (ts < end)
                                  & (hash_codes >= 0))
            # content_node once per distinct hash, gathered per row.
            codes, inverse = np.unique(hash_codes[rows], return_inverse=True)
            placed = np.array(
                [bool(hash_categories[code])
                 and content_node(hash_categories[code], n_nodes) == node
                 for code in codes.tolist()], dtype=bool)
            hit[rows[placed[inverse]]] = True
        return hit

    def faulted_rows(self, requests: RequestColumns) -> np.ndarray:
        """The rows (ascending) of ``requests`` whose first attempt a fault
        hits: the envelope first, then :meth:`first_attempt_faulted`."""
        lo, hi = self.envelope
        rows = np.flatnonzero((requests.ts >= lo) & (requests.ts < hi))
        return rows[self.first_attempt_faulted(
            requests.ts[rows], requests.users[rows], requests.sessions[rows],
            requests.mutating[rows], requests.hash_codes[rows],
            requests.hash_categories, requests.shards[rows])]


def compile_plan(plan: FaultPlan, n_processes: int | None = None,
                 n_shards: int | None = None) -> FaultSchedule:
    """Compile a declarative plan into the flat schedule the shards consume.

    Runs once, in the planning pass, against the global clock; validation
    happens here so a bad plan fails before any worker forks.
    """
    plan.validate(n_processes=n_processes, n_shards=n_shards)
    degraded: dict[int, list] = {}
    lossy, read_only, storage_down, auth = [], [], [], []
    lo, hi = float("inf"), float("-inf")
    for fault in plan.faults:
        lo = min(lo, fault.start)
        hi = max(hi, fault.end)
        if isinstance(fault, DegradedProcess):
            degraded.setdefault(fault.process_index, []).append(
                (fault.start, fault.end, fault.inflation))
        elif isinstance(fault, LossyLink):
            lossy.append((fault.start, fault.end, fault.failure_rate))
        elif isinstance(fault, ReadOnlyShard):
            read_only.append((fault.start, fault.end, fault.shard_id))
        elif isinstance(fault, StorageNodeOutage):
            storage_down.append((fault.start, fault.end, fault.node_index,
                                 fault.n_nodes, fault.failover))
        else:  # AuthOutage (validate() rejected everything else)
            auth.append((fault.start, fault.end))
    return FaultSchedule(
        seed=plan.seed,
        degraded={worker: tuple(sorted(windows))
                  for worker, windows in degraded.items()},
        lossy=tuple(sorted(lossy)),
        read_only=tuple(sorted(read_only)),
        storage_down=tuple(sorted(storage_down)),
        auth=tuple(sorted(auth)),
        envelope=(lo, hi))


def request_disposition(schedule: FaultSchedule,
                        policy: MitigationPolicy,
                        ts: float, user_id: int, session_id: int,
                        mutating: bool, transfer_hash: str,
                        shard_id: int) -> tuple[str, int, float, bool]:
    """Resolve one request under a (possibly retrying) mitigation.

    Returns ``(error_kind, retries, backoff_seconds, failover)`` —
    ``error_kind`` is "" when the request is ultimately served.  This is
    the decision procedure of :meth:`FaultInjector.resolve`, live and
    offline; keep it free of any state beyond its arguments.
    """
    ts_bits = _float_bits(ts)
    outcome = schedule.attempt_outcome(ts, ts_bits, user_id, session_id,
                                       mutating, transfer_hash, shard_id, 0)
    if outcome is None:
        return "", 0, 0.0, False
    if outcome == FAILOVER:
        return "", 0, 0.0, True
    retries = 0
    backoff = 0.0
    if policy.kind == "retry":
        while retries < policy.max_retries and is_retryable_kind(outcome):
            backoff += policy.backoff(retries)
            retries += 1
            outcome = schedule.attempt_outcome(
                ts + backoff, ts_bits, user_id, session_id, mutating,
                transfer_hash, shard_id, retries)
            if outcome is None:
                return "", retries, backoff, False
            if outcome == FAILOVER:
                return "", retries, backoff, True
    return outcome, retries, backoff, False


class Dispositions(NamedTuple):
    """:func:`request_disposition` of some request ``rows`` as columns
    (``error`` indexes :data:`~repro.faults.accounting.DISPOSITION_KINDS`)."""

    rows: np.ndarray
    error: np.ndarray
    retries: np.ndarray
    backoff: np.ndarray
    failover: np.ndarray


class FaultInjector:
    """A fault schedule under one mitigation policy, and the counters of
    one replay shard (or one offline pass) under it."""

    __slots__ = ("schedule", "policy", "accounting")

    def __init__(self, schedule: FaultSchedule, policy: MitigationPolicy):
        self.schedule = schedule
        self.policy = policy
        self.accounting = FaultAccounting()

    def resolve(self, requests: RequestColumns,
                rows: np.ndarray) -> Dispositions:
        """The dispositions of ``requests`` at ``rows`` (the residue
        :meth:`FaultSchedule.faulted_rows` leaves) under the policy."""
        categories = requests.hash_categories
        fates = [request_disposition(
                     self.schedule, self.policy, ts, user, session, mutating,
                     categories[code] if code >= 0 else "", shard)
                 for ts, user, session, mutating, code, shard in zip(
                     *(column[rows].tolist() for column in (
                         requests.ts, requests.users, requests.sessions,
                         requests.mutating, requests.hash_codes,
                         requests.shards)))]
        kinds, retries, backoff, failover = zip(*fates) if fates else [()] * 4
        return Dispositions(
            np.asarray(rows, dtype=np.int64),
            np.array([DISPOSITION_KINDS.index(kind) for kind in kinds],
                     dtype=np.int64),
            np.array(retries, dtype=np.int64),
            np.array(backoff, dtype=np.float64),
            np.array(failover, dtype=bool))
