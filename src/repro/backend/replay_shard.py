"""Sharded workload replay: partitioned mini-clusters with a deterministic merge.

The production measurement the paper draws from is inherently parallel: many
API machines log independently and the logfiles are merged afterwards.  This
module gives the simulator the same shape.  A replay is partitioned into
``n_shards`` *logical replay shards*: every shard owns a disjoint slice of
the users, its own metadata store, object store, authentication service,
notification bus and a disjoint slice of the API server processes, so shards
share no mutable state and can run concurrently.

Plan members (users and slices of DDoS episodes) map to shards by
deterministic **longest-processing-time assignment** (:func:`lpt_assignment`,
via :func:`partition_members`) keyed on each member's *planned* operation
count: members are placed heaviest-first onto the least-loaded shard, so one
DDoS-heavy user no longer drags six neighbours onto the critical-path shard
the way the historical ``user_id % n_shards`` round-robin did.  A shard
left with fewer sessions than it has API processes (a heavy member with a
couple of sessions, alone on its shard) then takes the lightest members of
shards that can spare them, so the load balancer can reach every process.
The assignment depends only on the plan's weights and session counts —
never on the worker count — preserving the bit-identical-for-any-``n_jobs``
guarantee.

Every shard *generates* its own workload: the pipeline hands each worker a
:class:`PlannedShardWorkload` (a slice of the global
:class:`~repro.workload.plan.WorkloadPlan`), and the worker materializes its
members' session scripts from their per-user RNG streams into one typed
:class:`~repro.workload.events.ScriptTable` before replaying them — the
generate phase parallelises with the replay instead of running sequentially
in the parent.  Results return as
:class:`~repro.trace.dataset.ColumnBlock` NumPy columns (buffer-pickled
arrays, factorised strings) instead of per-event row tuples, so the parent's
merge is pure array work and every merged column arrives pre-seeded.

Sharding is a *model* change, not only an execution change: state that
production keeps globally consistent becomes per-shard.  The visible
consequence is file-level deduplication (Section 3.3) — a content uploaded
by users in two different replay shards is stored once per shard instead of
once per cluster, so with the default ``replay_shards=8`` the object-store
dedup hit rate and stored-byte totals sit a few percent below the
single-store model (the Fig. 4 dedup *analyses* are unaffected: they are
computed from content hashes in the trace, not from object-store state).
Set ``replay_shards=1`` to recover the exact single-store semantics.

Determinism is the headline guarantee.  The shard count is a *configuration*
knob (``ClusterConfig.replay_shards``), not the worker count: ``n_jobs`` only
decides how many OS processes execute the shards, never what they compute.
Each shard draws from an :class:`~repro.util.rngpool.RngPool` stream spawned
from the root seed and keyed by the shard id, uploadjob garbage collection
runs per shard against the shard's own store, and the per-shard sorted row
blocks are merged with a stable, block-ordered merge
(:meth:`~repro.trace.dataset.TraceDataset.from_sorted_blocks`).  The replayed
trace is therefore bit-identical for any ``n_jobs`` — including the
in-process sequential fallback used for ``n_jobs=1`` and on platforms
without ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.backend.api_server import (
    ApiServerProcess,
    SessionRegistry,
    SessionSpans,
)
from repro.backend.auth import AuthenticationService
from repro.backend.datastore import ObjectStore, StorageAccounting
from repro.backend.gateway import LoadBalancer, ProcessAddress
from repro.backend.latency import ServiceTimeModel
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.notifications import NotificationBus
from repro.backend.rpc_server import RpcContext, RpcWorker
from repro.backend.tracing import TraceSink
from repro.faults.accounting import DISPOSITION_KINDS, FaultAccounting
from repro.faults.runtime import Dispositions, FaultInjector, RequestColumns
from repro.trace.dataset import (
    OPERATION_CODE,
    RPC_CODE,
    SESSION_EVENT_CODE,
    ColumnBlock,
)
from repro.trace.records import (
    DATA_MANAGEMENT_OPERATIONS,
    ApiOperation,
    NodeKind,
    RpcName,
    SessionEvent,
    VolumeType,
)
from repro.util import telemetry
from repro.util.gctools import cyclic_gc_paused
from repro.util.rngpool import RngPool
from repro.workload.events import ScriptTable

__all__ = [
    "PlannedShardWorkload",
    "ProcessTotals",
    "ReplayShard",
    "ShardOutcome",
    "UploadJobCollector",
    "fork_available",
    "lpt_assignment",
    "partition_members",
    "process_slices",
    "run_shards_supervised",
    "usable_cpus",
    "workload_planned_ops",
]


_AUTHENTICATE_CODE = OPERATION_CODE[ApiOperation.AUTHENTICATE]
_DOWNLOAD_CODE = OPERATION_CODE[ApiOperation.DOWNLOAD]
_GET_NODE_CODE = RPC_CODE[RpcName.GET_NODE]
_DATA_MANAGEMENT_CODES = [OPERATION_CODE[operation]
                          for operation in DATA_MANAGEMENT_OPERATIONS]
(_AUTH_REQUEST, _AUTH_OK, _AUTH_FAIL, _CONNECT, _DISCONNECT) = (
    SESSION_EVENT_CODE[event] for event in (
        SessionEvent.AUTH_REQUEST, SessionEvent.AUTH_OK,
        SessionEvent.AUTH_FAIL, SessionEvent.CONNECT,
        SessionEvent.DISCONNECT))
#: A GC sweep's request fields after ``user_id`` (``REQUEST_FIELDS`` order):
#: session 0, no API operation, no event fields, not an attack.
_GC_REQUEST = (0, None, 0, 0, None, None, 0, "", "", False, False)
#: Event columns a session open's request row fills with zeros (it reads
#: only ``operation``, as ``AUTHENTICATE``).
_ZERO_FILLED = ("node_id", "volume_id", "volume_type", "node_kind",
                "size_bytes", "is_update")


def _members(values) -> np.ndarray:
    """Object array mapping a code (position) to its value."""
    table = np.empty(len(values), dtype=object)
    table[:] = list(values)
    return table


#: Trace code -> enum member, for the dispatch rows.
_OPERATIONS = _members(ApiOperation)
_VOLUME_TYPES = _members(VolumeType)
_NODE_KINDS = _members(NodeKind)


def _decoded(stored, index: np.ndarray | None = None) -> list:
    """A factorised string column's values (at ``index``, if given)."""
    codes, categories = stored
    return _members(categories)[codes if index is None
                                else codes[index]].tolist()


def fork_available() -> bool:
    """Whether this platform can run replay shards in forked workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1




def lpt_assignment(weights: list[tuple[int, float]], n_shards: int,
                   sessions: dict[int, int] | None = None,
                   min_sessions: int = 0) -> dict[int, int]:
    """Deterministic longest-processing-time mapping ``key -> shard``.

    ``weights`` holds ``(key, weight)`` pairs (keys are plan member
    indices).  Keys are placed heaviest-first onto the currently
    least-loaded shard; ties break on the smaller weight-sorted position and
    the smaller shard id, so the mapping is a pure function of the weights —
    independent of input order, worker count or machine.  LPT is the classic
    4/3-approximation of makespan scheduling: a single flood user ends up
    alone on one shard instead of pinning six unlucky ``user_id % n_shards``
    neighbours to the critical path.

    A heavy member alone on its shard may own only a couple of sessions,
    too few to reach every API process of that shard.  Given each key's
    session count (``sessions``), every shard left with fewer than
    ``min_sessions`` sessions then takes the lightest members of shards that
    keep at least ``min_sessions`` without them, until it has enough.
    """
    import heapq

    order = sorted(weights, key=lambda item: (-item[1], item[0]))
    loads = [(0.0, shard_id) for shard_id in range(n_shards)]
    heapq.heapify(loads)
    assignment: dict[int, int] = {}
    for key, weight in order:
        load, shard_id = heapq.heappop(loads)
        assignment[key] = shard_id
        heapq.heappush(loads, (load + weight, shard_id))
    if sessions is None or min_sessions <= 0:
        return assignment
    counts = [0] * n_shards
    for key, shard_id in assignment.items():
        counts[shard_id] += sessions.get(key, 0)
    for shard_id in range(n_shards):
        for key, _ in reversed(order):
            if counts[shard_id] >= min_sessions:
                break
            donor, n = assignment[key], sessions.get(key, 0)
            if n and donor != shard_id and counts[donor] - n >= min_sessions:
                assignment[key] = shard_id
                counts[donor] -= n
                counts[shard_id] += n
    return assignment


def process_slices(config) -> list[list[tuple[int, ProcessAddress]]]:
    """Each replay shard's slice of the fleet as ``(index, address)`` pairs.

    ``index`` is the address's position in
    :meth:`~repro.backend.cluster.ClusterConfig.process_addresses`.
    Ownership is round-robin, so each shard's slice spans machines and the
    first slice is the largest.
    """
    addresses = config.process_addresses()
    n_shards = config.effective_replay_shards()
    return [[(i, addresses[i]) for i in range(k, len(addresses), n_shards)]
            for k in range(n_shards)]


def partition_members(plan, n_shards: int,
                      min_sessions: int = 0) -> list[list[int]]:
    """LPT-partition a workload plan's members into per-shard index lists.

    Keyed on the planned per-member operation and session counts, so the
    partition is a pure function of the plan, never of the worker count.
    ``min_sessions`` is :func:`lpt_assignment`'s floor.
    """
    sessions = [len(p.sessions) for p in plan.users]
    sessions.extend(p.n_sessions for p in plan.attacks)
    assignment = lpt_assignment(plan.member_weights(), n_shards,
                                dict(enumerate(sessions)), min_sessions)
    members: list[list[int]] = [[] for _ in range(n_shards)]
    for index in range(plan.n_members):
        members[assignment[index]].append(index)
    return members


# ---------------------------------------------------------------------------
# Shard workloads: a plan slice each worker materializes
# ---------------------------------------------------------------------------

@dataclass
class PlannedShardWorkload:
    """A shard's slice of the global workload plan.

    ``members`` are plan member indices; the shard worker materializes them
    from their per-user RNG streams (see
    :func:`repro.workload.generator.materialize_members`), so generation
    runs inside the worker, in parallel across shards.
    """

    plan: object  # WorkloadPlan (kept untyped: workload layer import cycle)
    members: list[int]

    def scripts(self) -> ScriptTable:
        """The shard's script table, in canonical order."""
        from repro.workload.generator import materialize_members
        return materialize_members(self.plan, self.members)


class UploadJobCollector:
    """Periodic uploadjob garbage collection (Appendix A) — the single
    implementation of both the sweep and its interval policy.

    The replay hot loop keeps only a float deadline comparison inline and
    calls :meth:`observe` when the deadline passes; :meth:`observe` applies
    the interval policy and delegates to the one :meth:`collect` sweep, so
    the GC behaviour can never drift between callers.
    """

    def __init__(self, store: ShardedMetadataStore, gc_process: ApiServerProcess,
                 interval: float):
        self._store = store
        self._process = gc_process
        self.interval = interval
        self.last_sweep: float | None = None
        self.sweeps = 0

    def observe(self, now: float) -> float:
        """Note timeline progress; sweep when the interval elapsed.

        Returns the next sweep deadline, letting the caller skip the method
        call entirely until the timeline reaches it.
        """
        if self.last_sweep is None:
            self.last_sweep = now
        elif now - self.last_sweep >= self.interval:
            self.collect(now)
        return self.last_sweep + self.interval

    def collect(self, now: float) -> None:
        """One uploadjob garbage-collection sweep.

        A sweep serves no client request, so each job's RPCs share one
        request registered with the trace sink (no timeline ordinal): no
        session, no API operation, none of an event's fields.
        """
        self.last_sweep = now
        self.sweeps += 1
        process = self._process
        worker = process._rpc  # noqa: SLF001 - internal wiring
        sink = process._sink  # noqa: SLF001
        server, process_no = process.address
        for shard, jobs in self._store.pending_uploadjobs():
            for job in jobs:
                context = RpcContext(now, shard.shard_id, sink.explicit(
                    (now, server, process_no, job.user_id, *_GC_REQUEST)))
                worker.execute(RpcName.GET_UPLOADJOB, context,
                               shard.get_uploadjob, job.job_id)
                expired = worker.execute(RpcName.TOUCH_UPLOADJOB, context,
                                         shard.touch_uploadjob, job.job_id, now)
                if expired:
                    worker.execute(RpcName.DELETE_UPLOADJOB, context,
                                   shard.delete_uploadjob, job.job_id, now,
                                   False)


class ProcessTotals(NamedTuple):
    """One API process's notification pushes.

    The process's requests and RPCs are not counted here: each is a trace
    row that carries its server and process.
    """

    address: ProcessAddress
    notifications_pushed: int = 0

    def plus(self, other: ProcessTotals) -> ProcessTotals:
        """These totals with ``other``'s counts added."""
        return ProcessTotals(
            self.address,
            self.notifications_pushed + other.notifications_pushed)


@dataclass
class ShardOutcome:
    """Picklable result of one replay shard.

    Carries the shard's sorted trace streams as columnar
    :class:`~repro.trace.dataset.ColumnBlock`\\ s — one NumPy array per
    trace field, numeric arrays crossing the worker boundary as contiguous
    pickle buffers and string fields factorised — plus the counters the
    trace does not carry: per-process notification pushes, the balancer's
    session assignments, the object store's accounting and the fault
    counters.  The parent merges the blocks column-wise
    (:meth:`~repro.trace.dataset.TraceDataset.from_sorted_blocks`), so the
    merged dataset's columns are all pre-seeded; per-process and
    per-metadata-shard request and RPC counts are read from those columns.
    """

    shard_id: int
    #: Replay seconds (the shard's ``run`` call, including column packing).
    seconds: float
    #: Seconds spent materializing the shard's scripts inside the worker.
    generate_seconds: float = 0.0
    storage: ColumnBlock | None = None
    rpc: ColumnBlock | None = None
    sessions: ColumnBlock | None = None
    #: Client events replayed (the table's ``n_events``).
    n_events: int = 0
    #: Total NumPy payload bytes of the three column blocks (IPC size).
    ipc_bytes: int = 0
    #: address index -> the process's notification pushes
    process_counters: dict[int, ProcessTotals] = field(default_factory=dict)
    #: address index -> sessions ever assigned by the shard's balancer
    gateway_totals: dict[int, int] = field(default_factory=dict)
    object_count: int = 0
    accounting: StorageAccounting = field(default_factory=StorageAccounting)
    #: Fault-exposure counters of this shard (None when the replay ran
    #: without a fault schedule).
    faults: FaultAccounting | None = None
    gc_sweeps: int = 0
    #: Last timeline timestamp of the shard (0.0 for an empty shard); the
    #: cluster reports the maximum as ``timeline_end``.
    timeline_end: float = 0.0
    #: Replay sub-phase seconds (all included in :attr:`seconds`): the
    #: NumPy timeline, its stable argsort, the dispatch rows and the fault
    #: dispositions (``block_build``), the object-free dispatch loop
    #: (``dispatch``), and the column passes after it (``pack``: the fault
    #: counters, the request columns concatenated from the table, the
    #: storage and RPC rows gathered from them, the service times, the
    #: session rows, the notification fan-out and the gateway's counts).
    block_build_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    pack_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Generate + replay seconds of this shard (the balance metric)."""
        return self.generate_seconds + self.seconds


class ReplayShard:
    """One logical replay shard: a self-contained slice of the back-end.

    The only place that assembles API processes and RPC workers.
    ``addresses`` is the shard's slice of the fleet (see
    :func:`process_slices`) as ``(global_index, address)`` pairs — the
    global index keys the counter summaries so the cluster can add them to
    its per-process totals positionally.
    """

    def __init__(self, config, shard_id: int,
                 addresses: list[tuple[int, ProcessAddress]],
                 shard_factors: list[float], fault_schedule=None):
        if not addresses:
            raise ValueError(f"replay shard {shard_id} owns no API processes")
        self.shard_id = shard_id
        self._address_indices = [index for index, _ in addresses]
        # Independent per-shard stream, a pure function of (seed, shard id).
        pool = RngPool(np.random.default_rng(config.seed)).spawn(shard_id)
        rng = pool.generator
        self.sink = TraceSink()
        self.store = ShardedMetadataStore(n_shards=config.metadata_shards)
        self.objects = ObjectStore(chunk_bytes=config.multipart_chunk_bytes)
        # The auth service and the API processes only draw scalar uniforms;
        # handing them the pool (same .random() surface as a Generator)
        # amortises the per-draw Generator call overhead.
        self.auth = AuthenticationService(
            rng=pool, failure_fraction=config.auth_failure_fraction)
        self.bus = NotificationBus()
        self.registry = SessionRegistry()
        self.latency = ServiceTimeModel(rng, shard_factors,
                                        parameters=config.latency)
        # One injector per shard: the compiled schedule is shared and
        # immutable, the accounting is this shard's own (merged by the
        # parent alongside the storage counters).
        self.faults = FaultInjector(fault_schedule, config.mitigation) \
            if fault_schedule is not None else None
        self.processes: list[ApiServerProcess] = []
        for index, address in addresses:
            worker = RpcWorker(worker_id=index, latency=self.latency,
                               sink=self.sink)
            self.processes.append(ApiServerProcess(
                address=address, metadata_store=self.store, rpc_worker=worker,
                object_store=self.objects, auth=self.auth,
                registry=self.registry, sink=self.sink, rng=pool,
                dedup_enabled=config.dedup_enabled,
                delta_updates_enabled=config.delta_updates_enabled,
                delta_update_factor=config.delta_update_factor,
                interrupted_upload_fraction=config.interrupted_upload_fraction))
        self.gateway = LoadBalancer([address for _, address in addresses],
                                    rng=rng)
        self.collector = UploadJobCollector(self.store, self.processes[0],
                                            config.gc_interval)
        #: Per timeline ordinal, whether the request's fault disposition
        #: fails it before dispatch (``None`` without an active schedule).
        self.failing: list[bool] | None = None

    # ------------------------------------------------------------------- run
    # Timeline record kinds: opens before events (downloads included)
    # before closes at equal timestamps.
    _OPEN, _EVENT, _CLOSE, _DOWNLOAD = 0, 1, 2, 3

    @classmethod
    def _build_timeline(cls, table: ScriptTable) -> tuple:
        """Assemble the struct-of-arrays timeline and the dispatch rows.

        The timeline's records are the table's session opens (script
        order), then its events (script order, each script's in time
        order), then its closes: the timestamp column is ``start``,
        ``times`` and ``end`` concatenated, and the script-index column
        comes from ``np.repeat``.  The records are laid out kind-major, so
        one stable ``np.argsort`` of the timestamps orders them as the
        historical per-record ``(ts, kind, seq, payload)`` tuple sort did:
        opens before events before closes at equal timestamps, and within
        a kind script-major.  A record's index is its timeline ordinal, and
        the first ``len(table) + table.n_events`` of them, the opens and
        the events, are the rows of the shard's request columns
        (:meth:`_request_sources`).  ``order`` (an array) lists the
        ordinals in replay order, and ``rank`` maps each ordinal to its
        position there.

        The dispatch rows form one shard-wide list indexed like the other
        columns, ``None`` at the opens and the downloads (the closes lie
        past its end).  A row is ``(time, operation, node_id, volume_id,
        volume_type, node_kind, size_bytes, content_hash, extension,
        is_update, caused_by_attack)``, the argument order of
        :meth:`ApiServerProcess.handle_event`, decoded from the typed
        columns with NumPy gathers, zipped and placed at C speed.
        """
        n = len(table)
        m = table.n_events
        counts = table.counts
        scripts = np.arange(n)
        download = table.operation == _DOWNLOAD_CODE
        kind_col = [cls._OPEN] * n
        kind_col.extend(np.where(download, cls._DOWNLOAD, cls._EVENT).tolist())
        kind_col.extend([cls._CLOSE] * n)
        ts = np.concatenate([table.start, table.times, table.end])
        order = np.argsort(ts, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ts_col = ts.tolist()
        script_col = np.concatenate([scripts, np.repeat(scripts, counts),
                                     scripts]).tolist()
        served = np.flatnonzero(~download)
        rows = zip(
            table.times[served].tolist(),
            _OPERATIONS[table.operation[served]].tolist(),
            table.node_id[served].tolist(), table.volume_id[served].tolist(),
            _VOLUME_TYPES[table.volume_type[served]].tolist(),
            _NODE_KINDS[table.node_kind[served]].tolist(),
            table.size_bytes[served].tolist(),
            _decoded(table.content_hash, served),
            _decoded(table.extension, served),
            table.is_update[served].tolist(),
            np.repeat(table.caused_by_attack, counts)[served].tolist())
        slots: list[tuple | None] = [None] * (n + m)
        # A C-level scatter: an object array in between raises the replay's
        # peak memory.
        deque(map(slots.__setitem__, (served + n).tolist(), rows), maxlen=0)
        return order, rank, ts_col, kind_col, script_col, slots

    def _dispatch(self, table: ScriptTable, order: np.ndarray,
                  ts_col: list[float], kind_col: list[int],
                  script_col: list[int], rows: list,
                  auth_failed: np.ndarray) -> tuple[list, list, list]:
        """Replay the sorted timeline through the shard's API processes.

        The loop keeps only what draws random numbers or changes back-end
        state, in timeline order: at an open, the gateway's pick (a tie
        draws from the shard's stream) and the process's session open; at
        an event its session serves and its fault disposition does not
        fail, one ``handle_event`` call; at a close, the gateway's release;
        the uploadjob GC sweeps.  A served download keeps only its
        first-sight registration (:meth:`_register_download`, and ``put``
        of unseen content), its object-store ``get`` sums and a count.

        The count is exact because the latency model's factor blocks come
        from the shard generator the gateway and the processes draw from
        too, every RPC takes exactly one factor in call order (a
        ``validate`` that raises too) and a download draws nothing else:
        advancing the factor stream by the pending downloads at the next
        record that may draw (any but a download; a GC sweep) draws every
        block where a per-download draw would.

        Returns, per script, the index in :attr:`processes` of the process
        its session was opened on and whether it was established, and the
        runs of downloads as ``(first factor ordinal, count)`` pairs, flat.
        """
        _EVENT, _OPEN, _DOWNLOAD = self._EVENT, self._OPEN, self._DOWNLOAD
        processes = self.processes
        n = len(table)
        user_ids = table.user_id.tolist()
        session_ids = table.session_id.tolist()
        auth_failed = auth_failed.tolist()
        assigned = [0] * n
        # Per-script dispatch entry: None until the session is established
        # (and for a denied one), then (bound handle_event, session handle,
        # process index, the user's metadata-shard nodes), then False once
        # closed.
        entries: list = [None] * n
        # A download reads its node id and content hash by timeline ordinal.
        node_col = [0] * n + table.node_id.tolist()
        hash_col = [""] * n + _decoded(table.content_hash)
        stored_size = self.objects._objects.get  # noqa: SLF001
        put = self.objects.put
        failing = self.failing
        lo, hi = (self.faults.schedule.envelope if failing is not None
                  else (float("inf"), float("-inf")))
        draw = self.latency.draw
        runs: list[int] = []  # (first factor ordinal, count) per run, flat
        pending = gets = downloaded = 0
        assign = self.gateway.assign
        release = self.gateway.release
        collector = self.collector
        next_gc = float("-inf")
        # Heartbeat progress, read asynchronously by the supervisor's
        # heartbeat thread.  Updated once per 4096-record chunk of the
        # dispatch loop (the historical per-record counter bump and bitwise
        # test paid ~two bytecodes on every record for a value sampled a
        # few times per second at most).
        progress = telemetry.shard_progress()
        order = order.tolist()
        n_records = len(order)
        progress.begin(n_records, "replay")
        for chunk_start in range(0, n_records, 4096):
            progress.done = chunk_start
            for j in order[chunk_start:chunk_start + 4096]:
                timestamp = ts_col[j]
                kind = kind_col[j]
                if kind != _DOWNLOAD and pending or timestamp >= next_gc:
                    # The pending downloads take their factors before a
                    # record that may draw.
                    if pending:
                        runs += draw(pending), pending
                        pending = 0
                    if timestamp >= next_gc:
                        next_gc = collector.observe(timestamp)
                if kind == _DOWNLOAD:
                    entry = entries[script_col[j]]
                    if entry and not (lo <= timestamp < hi and failing[j]):
                        if node_col[j] not in entry[3]:
                            self._register_download(entry[1], table, j - n,
                                                    timestamp)
                        content = hash_col[j]
                        if content:
                            size = stored_size(content)
                            if size is None:
                                size = int(table.size_bytes[j - n])
                                put(content, size)
                            gets += 1
                            downloaded += size
                        pending += 1
                elif kind == _EVENT:
                    entry = entries[script_col[j]]
                    if entry and not (lo <= timestamp < hi and failing[j]):
                        # Object-free dispatch: the event's column row goes
                        # straight to the process.
                        entry[0](entry[1], rows[j], j)
                elif kind == _OPEN:
                    index = script_col[j]
                    k = assigned[index] = assign()
                    process = processes[k]
                    handle = process.open_session(
                        user_ids[index], session_ids[index], timestamp, j,
                        auth_failed[index])
                    if handle is None:
                        release(k)
                    else:
                        entries[index] = (process.handle_event, handle, k,
                                          handle.shard._nodes)  # noqa: SLF001
                else:  # close
                    index = script_col[j]
                    entry = entries[index]
                    if entry:
                        entries[index] = False
                        release(entry[2])
        if pending:
            runs += draw(pending), pending
        progress.done = n_records
        accounting = self.objects.accounting
        accounting.get_requests += gets
        accounting.bytes_downloaded += downloaded
        return assigned, [entry is not None for entry in entries], runs

    @staticmethod
    def _register_download(handle, table: ScriptTable, event: int,
                           timestamp: float) -> None:
        """Make a downloaded node the shard has not seen, with its content,
        quietly (no RPC): it predates the trace."""
        node_id = int(table.node_id[event])
        codes, categories = table.extension
        handle.shard.make_node(handle.user_id, int(table.volume_id[event]),
                               node_id, _NODE_KINDS[table.node_kind[event]],
                               categories[codes[event]], timestamp)
        codes, categories = table.content_hash
        if categories[codes[event]]:
            handle.shard.make_content(node_id, categories[codes[event]],
                                      int(table.size_bytes[event]), timestamp)

    @staticmethod
    def _session_spans(table: ScriptTable, rank: np.ndarray,
                       assigned: list[int],
                       established: list[bool]) -> SessionSpans:
        """Each script's session as ranks: opened at its open's rank,
        closed at its close's rank if established (past the last rank if
        the close came first, so never took effect), at its open's rank if
        denied."""
        n = len(table)
        opened = rank[:n]
        closed = rank[n + table.n_events:]
        closed = np.where(established,
                          np.where(closed > opened, closed, len(rank)), opened)
        return SessionSpans(table.user_id,
                            np.asarray(assigned, dtype=np.int64), opened,
                            closed)

    @staticmethod
    def _session_rows(table: ScriptTable, spans: SessionSpans,
                      rank: np.ndarray, dispatched: np.ndarray) -> tuple:
        """The session rows of the timeline, built as columns, in the
        order the rows' records were replayed.

        At each open, ``AUTH_REQUEST`` and then ``AUTH_FAIL`` or
        ``AUTH_OK`` and ``CONNECT``; at each established session's close,
        ``DISCONNECT`` with the close's timestamp, ``session_length =
        max(0, end - start)`` and the count of data-management events the
        session served (of the ``dispatched`` events).  Returns the rows'
        open requests (the script indices) and their own columns,
        :meth:`TraceSink.gather`'s ``sessions``.
        """
        n = len(table)
        scripts = np.arange(n)
        established = spans.closed > spans.opened
        ok = np.flatnonzero(established)
        done = np.flatnonzero(established & (spans.closed < len(rank)))
        # Three slots per rank: the open's rows in emission order, the
        # close's one row in its own rank's first slot.
        slot = np.concatenate([3 * spans.opened, 3 * spans.opened + 1,
                               3 * spans.opened[ok] + 2,
                               3 * spans.closed[done]])
        order = np.argsort(slot)
        rows = np.concatenate([scripts, scripts, ok, done])[order]
        event = np.concatenate([
            np.full(n, _AUTH_REQUEST, dtype=np.int16),
            np.where(established, _AUTH_OK, _AUTH_FAIL).astype(np.int16),
            np.full(len(ok), _CONNECT, dtype=np.int16),
            np.full(len(done), _DISCONNECT, dtype=np.int16)])[order]
        served = dispatched & np.isin(table.operation, _DATA_MANAGEMENT_CODES)
        operations = np.bincount(np.repeat(scripts, table.counts)[served],
                                 minlength=n)
        close = event == _DISCONNECT
        start, end = table.start[rows], table.end[rows]
        return rows, {
            "timestamp": np.where(close, end, start),
            "event": event,
            "session_length": np.where(close, np.maximum(0.0, end - start),
                                       -1.0),
            "storage_operations": np.where(close, operations[rows], 0)}

    def _resolve_faults(self, table: ScriptTable) -> tuple:
        """Resolve every event's fault fate before dispatch (mask then
        residue, as offline) and mark the failing ones' timeline ordinals
        in :attr:`failing`.  Returns the scripts whose open is denied
        (planned, or in an auth outage: one ``AUTH_FAIL`` row each) and the
        resolved residue (``None`` without an active schedule)."""
        faults = self.faults
        if faults is None or not faults.schedule.active:
            return table.auth_failed, None
        n = len(table)
        script_of = np.repeat(np.arange(n), table.counts)
        users = table.user_id[script_of]
        requests = RequestColumns.of(
            table.times, users, table.session_id[script_of], table.operation,
            *table.content_hash, users % self.store.n_shards)
        resolved = faults.resolve(requests,
                                  faults.schedule.faulted_rows(requests))
        failing = self.failing = [False] * (n + table.n_events)
        for row in (resolved.rows[resolved.error > 0] + n).tolist():
            failing[row] = True
        outage = faults.schedule.auth_outage(table.start)
        faults.accounting.auth_outage_failures += int(outage.sum())
        return table.auth_failed | outage, resolved

    def _count_faults(self, table: ScriptTable, resolved,
                      stored: np.ndarray) -> tuple:
        """Count the resolved requests among the storage rows (``stored``,
        their timeline ordinals), in storage-row order; return the rows'
        ``(error_kind, retries)``, kinds coded by first appearance (all
        clean without a resolved residue)."""
        if resolved is None:
            return ((np.zeros(len(stored), dtype=np.int32), [""]),
                    np.zeros(len(stored), dtype=np.int64))
        position = np.full(len(table) + table.n_events, -1, dtype=np.int64)
        position[resolved.rows + len(table)] = np.arange(len(resolved.rows))
        position = position[stored]
        hit = position >= 0
        recorded = Dispositions(*(column[position[hit]]
                                  for column in resolved))
        self.faults.accounting.add_dispositions(recorded)
        failover = recorded.rows[recorded.failover]
        self.objects.accounting.failover_reads += len(failover)
        self.objects.accounting.failover_bytes += int(
            table.size_bytes[failover].sum())
        codes = list(dict.fromkeys([0, *recorded.error.tolist()]))
        error = np.zeros(len(position), dtype=np.int32)
        error[hit] = [codes.index(code) for code in recorded.error.tolist()]
        retries = np.zeros(len(position), dtype=np.int64)
        retries[hit] = recorded.retries
        return ((error, [DISPOSITION_KINDS[code] for code in codes]),
                retries)

    def _rpc_rows(self, downloads: np.ndarray, runs: list,
                  users: np.ndarray) -> tuple:
        """:meth:`TraceSink.gather`'s ``rpc``: the buffered rows and one
        ``GET_NODE`` row per served download (``downloads``, timeline
        ordinals in replay order, which took the factors of ``runs`` in
        turn) merged by factor ordinal, which is call order, with their
        service times."""
        refs, codes, shards, ordinals = self.sink.buffered_rpc()
        if runs:
            starts, counts = np.fromiter(
                runs, dtype=np.int64, count=len(runs)).reshape(-1, 2).T
            factors = np.arange(len(downloads)) + np.repeat(
                starts - np.cumsum(counts) + counts, counts)
            at = np.searchsorted(ordinals, factors) + np.arange(len(factors))
            appended = np.ones(len(refs) + len(factors), dtype=bool)
            appended[at] = False

            def merged(rows: np.ndarray, extra) -> np.ndarray:
                out = np.empty(len(appended), dtype=rows.dtype)
                out[appended] = rows
                out[at] = extra
                return out

            refs = merged(refs, downloads)
            codes = merged(codes, _GET_NODE_CODE)
            shards = merged(shards, users[downloads] % self.store.n_shards)
            ordinals = merged(ordinals, factors)
        return refs, {"rpc": codes, "shard_id": shards,
                      "service_time": self.latency.service_times(
                          codes, shards, ordinals)}

    def _inflate(self, rpc: ColumnBlock, refs: np.ndarray,
                 process_of: np.ndarray) -> None:
        """Inflate the gathered RPC rows' service times on degraded workers
        in place (``extra = service * (inflation - 1)`` added), and count
        them, ``degraded_extra_seconds`` one row at a time in row order.

        A row's worker is the process of its request (``refs``;
        ``process_of`` per timeline request); the only other requests are
        the GC sweeps, which run on the first process.
        """
        workers = np.asarray(self._address_indices)[
            np.where(refs >= 0, process_of[np.maximum(refs, 0)], 0)]
        inflation = self.faults.schedule.degraded_inflation(
            workers, rpc.cols["timestamp"])
        hit = np.flatnonzero(inflation > 1.0)
        service = rpc.cols["service_time"]
        extra = service[hit] * (inflation[hit] - 1.0)
        service[hit] += extra
        accounting = self.faults.accounting
        accounting.degraded_rpcs += len(hit)
        accounting.degraded_extra_seconds = float(np.add.accumulate(
            np.concatenate([[accounting.degraded_extra_seconds], extra]))[-1])

    def _request_sources(self, table: ScriptTable, script_of: np.ndarray,
                         process_of: np.ndarray) -> dict:
        """The request columns of the shard's timeline
        (:meth:`TraceSink.gather`): its session opens, then its events, so
        a timeline ordinal is its request's row.

        Event fields are the table's event columns (an open's are zero
        fillers no storage row reads, its operation is ``AUTHENTICATE``),
        script fields the table's script columns (``script_of`` maps a
        row to its script), ``server`` and ``process`` those of the process
        each session was opened on (``process_of``, per row).
        """
        n = len(table)
        servers = list(dict.fromkeys(p.address.server for p in self.processes))
        sources = {
            "timestamp": np.concatenate([table.start, table.times]),
            "server": (np.array([servers.index(p.address.server)
                                 for p in self.processes],
                                dtype=np.int32)[process_of], servers),
            "process": np.array([p.address.process for p in self.processes],
                                dtype=np.int64)[process_of],
            "user_id": table.user_id[script_of],
            "session_id": table.session_id[script_of],
            "caused_by_attack": table.caused_by_attack[script_of],
            "operation": np.concatenate([
                np.full(n, _AUTHENTICATE_CODE, dtype=np.int16),
                table.operation]),
        }
        for name in _ZERO_FILLED:
            column = getattr(table, name)
            sources[name] = np.concatenate([np.zeros(n, dtype=column.dtype),
                                            column])
        for name in ("content_hash", "extension"):
            codes, categories = getattr(table, name)
            sources[name] = (np.concatenate([np.zeros(n, dtype=np.int32),
                                             codes]), categories or [""])
        return sources

    def run(self, table: ScriptTable) -> ShardOutcome:
        """Replay this shard's scripts and summarise the outcome.

        The loop (:meth:`_dispatch`) keeps what draws random numbers or
        changes back-end state, in timeline order, and counts each run of
        downloads' latency factors.  Everything else is a pure function of
        the timeline order and the loop's outcomes (each session's process,
        whether it was established, the mutations, the RPC buffer, the
        download runs), computed after it in column passes: one storage row
        per dispatched event (its session was open for it; failing ones
        included) in replay order, on its user's metadata shard; the RPC
        rows and service times (:meth:`_rpc_rows`) and their inflation
        (:meth:`_inflate`); the session rows (:meth:`_session_rows`), the
        notification fan-out (:meth:`SessionRegistry.fan_out`) and the
        gateway's assignment counts.
        """
        started = time.perf_counter()
        order, rank, ts_col, kind_col, script_col, rows = \
            self._build_timeline(table)
        auth_failed, resolved = self._resolve_faults(table)
        build_seconds = time.perf_counter() - started

        dispatch_started = time.perf_counter()
        assigned, established, runs = self._dispatch(
            table, order, ts_col, kind_col, script_col, rows, auth_failed)
        del rows  # the dispatch rows' tuples are not needed by the pack
        timeline_end = ts_col[order[-1]] if len(order) else 0.0
        dispatch_seconds = time.perf_counter() - dispatch_started

        # The timeline is processed in timestamp order, so every stream is
        # built sorted (the merge re-checks global order).  Column packing
        # happens here, in the worker: the storage, RPC and session rows are
        # gathered by request row from the request columns in one NumPy
        # pass per field.
        pack_started = time.perf_counter()
        n = len(table)
        m = table.n_events
        scripts = np.arange(n)
        script_of = np.concatenate([scripts, np.repeat(scripts, table.counts)])
        users = table.user_id[script_of]
        spans = self._session_spans(table, rank, assigned, established)
        events = rank[n:n + m]
        dispatched = ((events > spans.opened[script_of[n:]])
                      & (events < spans.closed[script_of[n:]]))
        marked = np.zeros(len(rank), dtype=bool)
        marked[n:n + m] = dispatched
        stored = order[marked[order]]
        error_kind, retries = self._count_faults(table, resolved, stored)
        downloads = None
        if runs:
            # The served downloads: dispatched and not failing.
            marked[n:n + m] &= table.operation == _DOWNLOAD_CODE
            if resolved is not None:
                marked[n + resolved.rows[resolved.error > 0]] = False
            downloads = order[marked[order]]
        process_of = spans.process[script_of]
        refs, rpc_columns = self._rpc_rows(downloads, runs, users)
        storage, rpc, sessions = self.sink.gather(
            self._request_sources(table, script_of, process_of),
            (stored, {"shard_id": users[stored] % self.store.n_shards,
                      "error_kind": error_kind, "retries": retries}),
            (refs, rpc_columns),
            self._session_rows(table, spans, rank, dispatched))
        if self.faults is not None and self.faults.schedule.degraded:
            self._inflate(rpc, refs, process_of)
        pushed = self.registry.fan_out(spans, rank, script_of,
                                       len(self.processes), self.bus)
        assignments = np.bincount(spans.process, minlength=len(self.processes))
        pack_seconds = time.perf_counter() - pack_started
        return ShardOutcome(
            shard_id=self.shard_id,
            seconds=time.perf_counter() - started,
            storage=storage,
            rpc=rpc,
            sessions=sessions,
            n_events=table.n_events,
            ipc_bytes=storage.nbytes + rpc.nbytes + sessions.nbytes,
            block_build_seconds=build_seconds,
            dispatch_seconds=dispatch_seconds,
            pack_seconds=pack_seconds,
            process_counters={
                index: ProcessTotals(p.address, count)
                for index, p, count in zip(self._address_indices,
                                           self.processes, pushed.tolist())},
            gateway_totals=dict(zip(self._address_indices,
                                    assignments.tolist())),
            object_count=len(self.objects),
            accounting=self.objects.accounting,
            faults=self.faults.accounting if self.faults is not None else None,
            gc_sweeps=self.collector.sweeps,
            timeline_end=timeline_end)


# ---------------------------------------------------------------------------
# Orchestration: supervised pool with an in-process sequential fallback
# ---------------------------------------------------------------------------

#: Fork-inherited task state: (config, assignments, shard_factors,
#: workloads, fault_schedule).  Set in the parent immediately before any
#: worker forks; workers receive only shard ids (plus attempt/chaos
#: metadata) through the pipe.  Because the compiled fault schedule
#: travels here, a *respawned* worker re-derives exactly the same fault
#: exposure as the one that crashed.
_FORK_STATE: tuple | None = None


def _run_shard_task(shard_id: int) -> ShardOutcome:
    config, assignments, shard_factors, workloads, fault_schedule = _FORK_STATE
    with cyclic_gc_paused():
        generate_started = time.perf_counter()
        telemetry.shard_progress().begin(0, "materialize")
        scripts = workloads[shard_id].scripts()
        generate_seconds = time.perf_counter() - generate_started
        shard = ReplayShard(config, shard_id, assignments[shard_id],
                            shard_factors, fault_schedule=fault_schedule)
        outcome = shard.run(scripts)
        outcome.generate_seconds = generate_seconds
        return outcome


def workload_planned_ops(workloads: list) -> dict[int, float]:
    """Planned operation count per shard id (the timeout basis).

    Each plan's member-weight table is built once, not once per shard.
    """
    tables: dict[int, dict[int, float]] = {}
    planned: dict[int, float] = {}
    for shard_id, workload in enumerate(workloads):
        key = id(workload.plan)
        if key not in tables:
            tables[key] = dict(workload.plan.member_weights())
        weights = tables[key]
        planned[shard_id] = sum(weights[m] for m in workload.members)
    return planned


def run_shards_supervised(config,
                          assignments: list[list[tuple[int, ProcessAddress]]],
                          shard_factors: list[float],
                          workloads: list,
                          n_jobs: int = 1,
                          fault_schedule=None, *,
                          policy=None,
                          chaos=None,
                          checkpoint=None,
                          resume: bool = False,
                          shutdown=None,
                          events=None,
                          progress=None):
    """Run every replay shard; return ``(outcomes, jobs_used, report)``.

    ``assignments[k]`` is shard ``k``'s slice of process addresses and
    ``workloads[k]`` its :class:`PlannedShardWorkload` (a plan slice the
    worker materializes itself, fusing generation into the parallel
    phase).  ``n_jobs`` is a ceiling, not a demand: it is
    additionally capped at the shard count and at the machine's usable CPUs
    (forking workers a single core must time-slice only adds overhead, and
    changes nothing about the result).

    Shards run under the crash-tolerant pool of
    :mod:`repro.backend.supervisor`: per-shard forked workers
    (completion-ordered, chunk size one by construction), dead/hung-worker
    detection, capped-backoff retries, quarantine, optional chaos
    injection and checkpoint/resume.

    The outcome list is ordered by shard id and the replayed trace is a
    pure function of ``(config, workloads)`` — supervision, retries,
    resumes and the worker count never change what is computed.
    """
    from repro.backend.supervisor import SupervisorPolicy, supervise_shards

    n_shards = len(assignments)
    jobs = max(1, min(int(n_jobs), n_shards, usable_cpus()))
    if jobs > 1 and not fork_available():
        jobs = 1

    global _FORK_STATE
    _FORK_STATE = (config, assignments, shard_factors, workloads,
                   fault_schedule)
    try:
        policy = policy or SupervisorPolicy()
        planned = workload_planned_ops(workloads)
        timeouts = {shard_id: policy.shard_timeout(ops)
                    for shard_id, ops in planned.items()}
        # Chaos wants a real worker process to kill, so it forces the
        # forked path even at one job; without fork it degrades to the
        # in-process driver (retry/quarantine/resume still apply).
        use_fork = fork_available() and (jobs > 1 or chaos is not None)
        # One GC pause across the whole run: in-process shards would
        # otherwise re-enable the cyclic collector between shards and pay a
        # collection per boundary (forked workers inherit the pause, which
        # the per-shard task already holds).
        with cyclic_gc_paused():
            outcome_map, report = supervise_shards(
                _run_shard_task, range(n_shards), jobs, policy=policy,
                timeouts=timeouts, chaos=chaos, checkpoint=checkpoint,
                resume=resume, use_fork=use_fork, shutdown=shutdown,
                events=events, progress=progress, planned_ops=planned)
        report.jobs = jobs
        outcomes = [outcome_map[shard_id] for shard_id in sorted(outcome_map)]
        return outcomes, jobs, report
    finally:
        _FORK_STATE = None
