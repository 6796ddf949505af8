"""The per-record dispatch path, kept as the oracle of the replay shard's
download, storage-row and service-time column passes.

A replay shard's loop serves a download with its first-sight registration,
its object-store ``get`` sums and a count of the latency factors it takes;
every storage row, the downloads' ``GET_NODE`` rows, every service time and
the degraded-process inflation are column passes after the loop
(``ReplayShard.run``).  The path here does all of that one record at a
time, the way the loop did before:

* every dispatched event goes to ``handle_event``, the download through an
  inline branch: its fault disposition, first-sight registration, a
  ``GET_NODE`` service time drawn from the pooled factors and inflated per
  call, ``ObjectStore.get`` accounting and its storage row;
* every other request appends its storage row there too;
* each RPC draws its service time when it runs (a block of them in one
  draw) and applies its worker's degradation window once its operation
  returns, counting ``degraded_rpcs`` and ``degraded_extra_seconds``;
* the shard packs its storage and RPC blocks from those buffers.

:func:`per_record_path` installs the path for every replay shard, API
process and RPC worker built or run inside it; :func:`oracle_checked`
replays a twin of every shard run inside it on that path and requires the
same blocks and counters.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.backend import replay_shard
from repro.backend.api_server import ApiServerProcess
from repro.backend.replay_shard import (
    ProcessTotals,
    ReplayShard,
    ShardOutcome,
    _NODE_KINDS,
    _OPERATIONS,
    _VOLUME_TYPES,
    _decoded,
)
from repro.backend.rpc_server import RpcWorker
from repro.backend.tracing import TraceSink
from repro.faults.accounting import DISPOSITION_KINDS
from repro.faults.runtime import Dispositions
from repro.trace.dataset import RPC_CODE
from repro.trace.records import (
    MUTATING_OPERATIONS,
    ApiOperation,
    RpcName,
)

__all__ = ["ReferenceSink", "assert_outcomes_equal", "dispatch_rows",
           "oracle_checked", "per_record_path"]

_NO_FAULTS = (float("inf"), float("-inf"))


class ReferenceSink(TraceSink):
    """A trace sink that also buffers storage rows and service times."""

    __slots__ = ("storage_refs", "storage_shards", "rpc_service_times")

    def __init__(self, dataset=None):
        super().__init__(dataset)
        self.storage_refs: list[int] = []
        self.storage_shards: list[int] = []
        self.rpc_service_times: list[float] = []

    def gather(self, sources=None, storage_faults=None, sessions=None):
        """Pack the buffered storage and RPC rows (``storage_faults``:
        the storage rows' ``(error_kind, retries)``, clean without it)."""
        offset = 0 if sources is None else len(sources["timestamp"])
        refs = np.array(self.storage_refs, dtype=np.int64)
        n = len(refs)
        error_kind, retries = storage_faults or (
            (np.zeros(n, dtype=np.int32), [""]), np.zeros(n, dtype=np.int64))
        storage = (np.where(refs >= 0, refs, offset - 1 - refs), {
            "shard_id": np.array(self.storage_shards, dtype=np.int64),
            "error_kind": error_kind, "retries": retries})
        rpc = (np.array(self.rpc_refs, dtype=np.int64), {
            "rpc": np.array(self.rpc_codes, dtype=np.int16),
            "shard_id": np.array(self.rpc_shards, dtype=np.int64),
            "service_time": np.array(self.rpc_service_times,
                                     dtype=np.float64)})
        for buffer in (self.storage_refs, self.storage_shards,
                       self.rpc_service_times):
            buffer.clear()
        return super().gather(sources, storage, rpc, sessions)

    @property
    def dataset(self):
        if self.storage_refs or self.rpc_refs:
            for stream, block in zip(
                    (self._dataset._storage, self._dataset._rpc,
                     self._dataset._sessions), self.gather()):
                stream.append_block(block)
        return self._dataset


# ---------------------------------------------------------------------------
# RPC worker: a service time per call
# ---------------------------------------------------------------------------

def _sample(model, rpc: RpcName, shard_id: int) -> float:
    """One pooled service-time draw."""
    i = model._factor_index
    if i >= model._block_size:
        model._refill_factors()
        i = 0
    model._factor_index = i + 1
    return float(model._base[RPC_CODE[rpc], shard_id % model._n_shards]
                 * model._blocks[-1][i])


def _sample_block(model, rpc: RpcName, shard_id: int, n: int) -> list:
    """``n`` pooled draws at once: what the current block has left, then
    one block of at least the rest."""
    base = float(model._base[RPC_CODE[rpc], shard_id % model._n_shards])
    out: list[float] = []
    remaining = n
    while remaining:
        i = model._factor_index
        available = model._block_size - i
        if available <= 0:
            model._refill_factors(max(4096, remaining))
            i = 0
            available = model._block_size
        take = min(available, remaining)
        out.extend(base * f for f in model._blocks[-1][i:i + take].tolist())
        model._factor_index = i + take
        remaining -= take
    return out


def _inflate(worker: RpcWorker, timestamp: float,
             service_time: float) -> float:
    """The worker's first degradation window covering the call, counted."""
    for start, end, inflation in getattr(worker, "degraded", None) or ():
        if start <= timestamp < end:
            extra = service_time * (inflation - 1.0)
            worker.degraded_counters.degraded_rpcs += 1
            worker.degraded_counters.degraded_extra_seconds += extra
            return service_time + extra
    return service_time


def _execute(self, rpc, context, operation, *args):
    service_time = _sample(self._latency, rpc, context.shard_id)
    result = operation(*args)
    service_time = _inflate(self, context.timestamp, service_time)
    sink = self._sink
    sink.rpc_refs.append(context.ref)
    sink.rpc_codes.append(RPC_CODE[rpc])
    sink.rpc_shards.append(context.shard_id)
    sink.rpc_service_times.append(service_time)
    return result


def _execute_block(self, rpc, context, operation, args_list):
    n = len(args_list)
    if n == 0:
        return []
    times = _sample_block(self._latency, rpc, context.shard_id, n)
    results = [operation(*args) for args in args_list]
    times = [_inflate(self, context.timestamp, t) for t in times]
    sink = self._sink
    sink.rpc_refs.extend([context.ref] * n)
    sink.rpc_codes.extend([RPC_CODE[rpc]] * n)
    sink.rpc_shards.extend([context.shard_id] * n)
    sink.rpc_service_times.extend(times)
    return results


# ---------------------------------------------------------------------------
# API process: every request through handle_event
# ---------------------------------------------------------------------------

def _handle_event(self, handle, row, ref):
    (timestamp, operation, node_id, volume_id, _, node_kind, size_bytes,
     content_hash, extension, _, _) = row
    sink = self._sink
    lo, hi = getattr(self, "envelope", _NO_FAULTS)
    if lo <= timestamp < hi and self.failing[ref]:
        sink.storage_refs.append(ref)
        sink.storage_shards.append(handle.shard_id)
        return
    shard = handle.shard
    context = self._request_context
    context.timestamp = timestamp
    context.ref = ref
    context.shard_id = handle.shard_id
    if operation is ApiOperation.DOWNLOAD:
        objects = self._objects
        if not shard.has_node(node_id):
            # A file downloaded without an in-trace upload existed before
            # the measurement window: register it quietly.
            shard.make_node(handle.user_id, volume_id, node_id, node_kind,
                            extension, timestamp)
            if content_hash:
                shard.make_content(node_id, content_hash, size_bytes,
                                   timestamp)
        if content_hash and content_hash not in objects:
            objects.put(content_hash, size_bytes)
        _execute(self._rpc, RpcName.GET_NODE, context, int, 0)
        if content_hash:
            objects.get(content_hash)
    elif (self._HANDLERS[operation](self, handle.user_id, row, context,
                                    shard)
          and operation in MUTATING_OPERATIONS):
        self._mutated(ref)
    sink.storage_refs.append(ref)
    sink.storage_shards.append(handle.shard_id)


# ---------------------------------------------------------------------------
# Replay shard: the loop without counting, the pack from the buffers
# ---------------------------------------------------------------------------

def dispatch_rows(table) -> list:
    """The dispatch rows of every event, downloads included (``None`` at
    the opens), as the shard's timeline built them before."""
    n = len(table)
    rows: list = [None] * n
    rows.extend(zip(
        table.times.tolist(), _OPERATIONS[table.operation].tolist(),
        table.node_id.tolist(), table.volume_id.tolist(),
        _VOLUME_TYPES[table.volume_type].tolist(),
        _NODE_KINDS[table.node_kind].tolist(), table.size_bytes.tolist(),
        _decoded(table.content_hash), _decoded(table.extension),
        table.is_update.tolist(),
        np.repeat(table.caused_by_attack, table.counts).tolist()))
    return rows


def _dispatch(self, table, order, ts_col, kind_col, script_col, rows,
              auth_failed):
    processes = self.processes
    user_ids = table.user_id.tolist()
    session_ids = table.session_id.tolist()
    auth_failed = auth_failed.tolist()
    assigned = [0] * len(table)
    entries: list = [None] * len(table)
    collector = self.collector
    next_gc = float("-inf")
    for j in order.tolist():
        timestamp = ts_col[j]
        if timestamp >= next_gc:
            next_gc = collector.observe(timestamp)
        kind = kind_col[j]
        index = script_col[j]
        if kind == ReplayShard._OPEN:
            k = assigned[index] = self.gateway.assign()
            handle = processes[k].open_session(
                user_ids[index], session_ids[index], timestamp, j,
                auth_failed[index])
            if handle is None:
                self.gateway.release(k)
            else:
                entries[index] = (processes[k], handle, k)
        elif kind == ReplayShard._CLOSE:
            entry = entries[index]
            if entry:
                entries[index] = False
                self.gateway.release(entry[2])
        else:
            entry = entries[index]
            if entry:
                entry[0].handle_event(entry[1], rows[j], j)
    return assigned, [entry is not None for entry in entries]


def _count_faults(shard, table, resolved) -> tuple:
    refs = np.array(shard.sink.storage_refs, dtype=np.int64)
    position = np.full(len(table) + table.n_events, -1, dtype=np.int64)
    position[resolved.rows + len(table)] = np.arange(len(resolved.rows))
    position = position[refs]
    hit = position >= 0
    recorded = Dispositions(*(column[position[hit]] for column in resolved))
    shard.faults.accounting.add_dispositions(recorded)
    failover = recorded.rows[recorded.failover]
    shard.objects.accounting.failover_reads += len(failover)
    shard.objects.accounting.failover_bytes += int(
        table.size_bytes[failover].sum())
    codes = list(dict.fromkeys([0, *recorded.error.tolist()]))
    error = np.zeros(len(position), dtype=np.int32)
    error[hit] = [codes.index(code) for code in recorded.error.tolist()]
    retries = np.zeros(len(position), dtype=np.int64)
    retries[hit] = recorded.retries
    return (error, [DISPOSITION_KINDS[code] for code in codes]), retries


def _run(self, table) -> ShardOutcome:
    order, rank, ts_col, kind_col, script_col, _ = \
        ReplayShard._build_timeline(table)
    auth_failed, resolved = self._resolve_faults(table)
    faults = self.faults
    for process in self.processes:
        process.failing = self.failing
        if self.failing is not None:
            process.envelope = faults.schedule.envelope
        if faults is not None:
            process._rpc.degraded = faults.schedule.degraded.get(
                process._rpc.worker_id)
            process._rpc.degraded_counters = faults.accounting
    assigned, established = self._dispatch(
        table, order, ts_col, kind_col, script_col, dispatch_rows(table),
        auth_failed)
    n, m = len(table), table.n_events
    scripts = np.arange(n)
    script_of = np.concatenate([scripts, np.repeat(scripts, table.counts)])
    spans = self._session_spans(table, rank, assigned, established)
    events, script = rank[n:n + m], script_of[n:]
    dispatched = ((events > spans.opened[script])
                  & (events < spans.closed[script]))
    storage_faults = (_count_faults(self, table, resolved)
                      if resolved is not None else None)
    storage, rpc, sessions = self.sink.gather(
        self._request_sources(table, script_of, spans.process[script_of]),
        storage_faults, self._session_rows(table, spans, rank, dispatched))
    pushed = self.registry.fan_out(spans, rank, script_of,
                                   len(self.processes), self.bus)
    assignments = np.bincount(spans.process, minlength=len(self.processes))
    return ShardOutcome(
        shard_id=self.shard_id, seconds=0.0, storage=storage, rpc=rpc,
        sessions=sessions, n_events=m,
        ipc_bytes=storage.nbytes + rpc.nbytes + sessions.nbytes,
        process_counters={
            index: ProcessTotals(p.address, count)
            for index, p, count in zip(self._address_indices,
                                       self.processes, pushed.tolist())},
        gateway_totals=dict(zip(self._address_indices,
                                assignments.tolist())),
        object_count=len(self.objects), accounting=self.objects.accounting,
        faults=faults.accounting if faults is not None else None,
        gc_sweeps=self.collector.sweeps,
        timeline_end=ts_col[order[-1]] if len(order) else 0.0)


@contextmanager
def per_record_path():
    """Replay every shard, and serve every request and RPC, built or run
    inside on the per-record path."""
    with ExitStack() as stack:
        for owner, name, value in (
                (replay_shard, "TraceSink", ReferenceSink),
                (ReplayShard, "run", _run),
                (ReplayShard, "_dispatch", _dispatch),
                (ApiServerProcess, "handle_event", _handle_event),
                (RpcWorker, "execute", _execute),
                (RpcWorker, "execute_block", _execute_block)):
            stack.enter_context(mock.patch.object(owner, name, value))
        yield


# ---------------------------------------------------------------------------
# Equality with the oracle
# ---------------------------------------------------------------------------

def _block_arrays(block) -> dict:
    arrays = {name: (arr.dtype, arr.tobytes())
              for name, arr in block.cols.items()}
    arrays.update({name: (codes.dtype, codes.tobytes(), list(categories))
                   for name, (codes, categories) in block.codes.items()})
    return arrays


def assert_outcomes_equal(outcome: ShardOutcome, expected: ShardOutcome,
                          shard: ReplayShard | None = None,
                          oracle: ReplayShard | None = None) -> None:
    """Two outcomes carry the same blocks, array for array (dtypes and
    categories included), and the same counters; with the shards given,
    the same bus counters too."""
    for label in ("storage", "rpc", "sessions"):
        got, want = getattr(outcome, label), getattr(expected, label)
        assert got.n == want.n, label
        assert _block_arrays(got) == _block_arrays(want), label
    assert outcome.ipc_bytes == expected.ipc_bytes
    for name in ("n_events", "process_counters", "gateway_totals",
                 "object_count", "gc_sweeps", "timeline_end"):
        assert getattr(outcome, name) == getattr(expected, name), name
    assert dataclasses.asdict(outcome.accounting) == \
        dataclasses.asdict(expected.accounting)
    assert (outcome.faults is None) == (expected.faults is None)
    if outcome.faults is not None:
        assert dataclasses.asdict(outcome.faults) == \
            dataclasses.asdict(expected.faults)
    if shard is not None and oracle is not None:
        for name in ("published", "deliveries", "pushes", "short_circuits"):
            assert getattr(shard.bus, name) == getattr(oracle.bus, name), name


@contextmanager
def oracle_checked(checked: list, oracle=per_record_path, check=None):
    """Check every replay shard run inside against a twin shard — built
    from the same arguments, run on the same table — replayed under
    ``oracle`` (the per-record path); ``check(twin, outcome)`` runs after.
    Each checked outcome is appended to ``checked``."""
    init, run = ReplayShard.__init__, ReplayShard.run

    def noted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.twin_arguments = args, kwargs

    def checked_run(self, table):
        outcome = run(self, table)
        args, kwargs = self.twin_arguments
        with oracle():
            twin = ReplayShard(*args, **kwargs)
            expected = twin.run(table)
        assert_outcomes_equal(outcome, expected, self, twin)
        if check is not None:
            check(twin, outcome)
        checked.append(outcome)
        return outcome

    with mock.patch.object(ReplayShard, "__init__", noted_init), \
            mock.patch.object(ReplayShard, "run", checked_run):
        yield
