"""Shared fixtures and record-building helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from repro.trace.dataset import (
    NODE_KIND_CODE,
    OPERATION_CODE,
    VOLUME_TYPE_CODE,
    ColumnBlock,
    TraceDataset,
)
from repro.trace.records import (
    ApiOperation,
    NodeKind,
    RpcName,
    RpcRecord,
    SessionEvent,
    SessionRecord,
    StorageRecord,
    TRACE_EPOCH,
    VolumeType,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import ReplayShard
from repro.workload.events import ScriptRows, ScriptTable
from repro.faults.runtime import compile_plan


# ---------------------------------------------------------------------------
# Record builders (hand-crafted deterministic records for unit tests)
# ---------------------------------------------------------------------------

def make_storage(timestamp: float = 0.0, user_id: int = 1, operation=ApiOperation.UPLOAD,
                 node_id: int = 100, size_bytes: int = 1024, content_hash: str = "h1",
                 extension: str = "txt", is_update: bool = False, session_id: int = 1,
                 node_kind=NodeKind.FILE, volume_id: int = 10,
                 volume_type=VolumeType.ROOT, server: str = "api0", process: int = 0,
                 shard_id: int = 0, caused_by_attack: bool = False) -> StorageRecord:
    """A storage record with convenient defaults (absolute time = epoch + ts)."""
    return StorageRecord(
        timestamp=TRACE_EPOCH + timestamp, server=server, process=process,
        user_id=user_id, session_id=session_id, operation=operation,
        node_id=node_id, volume_id=volume_id, volume_type=volume_type,
        node_kind=node_kind, size_bytes=size_bytes, content_hash=content_hash,
        extension=extension, is_update=is_update, shard_id=shard_id,
        caused_by_attack=caused_by_attack)


def make_rpc(timestamp: float = 0.0, user_id: int = 1, rpc=RpcName.GET_NODE,
             shard_id: int = 0, service_time: float = 0.005, session_id: int = 1,
             server: str = "api0", process: int = 0,
             api_operation=ApiOperation.DOWNLOAD,
             caused_by_attack: bool = False) -> RpcRecord:
    """An RPC record with convenient defaults."""
    return RpcRecord(
        timestamp=TRACE_EPOCH + timestamp, server=server, process=process,
        user_id=user_id, session_id=session_id, rpc=rpc, shard_id=shard_id,
        service_time=service_time, api_operation=api_operation,
        caused_by_attack=caused_by_attack)


def make_session(timestamp: float = 0.0, user_id: int = 1, event=SessionEvent.CONNECT,
                 session_id: int = 1, session_length: float = -1.0,
                 storage_operations: int = 0, server: str = "api0", process: int = 0,
                 caused_by_attack: bool = False) -> SessionRecord:
    """A session record with convenient defaults."""
    return SessionRecord(
        timestamp=TRACE_EPOCH + timestamp, server=server, process=process,
        user_id=user_id, session_id=session_id, event=event,
        session_length=session_length, storage_operations=storage_operations,
        caused_by_attack=caused_by_attack)


#: Request fields a session open does not carry (``node_id`` ..
#: ``is_update``, :data:`repro.trace.dataset.REQUEST_FIELDS` order).
_NO_EVENT = (0, 0, None, None, 0, "", "", False)


def event_row(operation, timestamp: float = 10.0, node_id: int = 10,
              volume_id: int = 5, size: int = 100_000,
              content_hash: str = "h1", node_kind=NodeKind.FILE,
              extension: str = "txt", is_update: bool = False,
              volume_type=VolumeType.ROOT,
              caused_by_attack: bool = False) -> tuple:
    """A dispatch row as ``ApiServerProcess.handle_event`` receives it."""
    return (timestamp, operation, node_id, volume_id, volume_type, node_kind,
            size, content_hash, extension, is_update, caused_by_attack)


def open_session(process, user_id: int, session_id: int, timestamp: float,
                 force_auth_failure: bool = False,
                 caused_by_attack: bool = False):
    """Open a session on an API process outside a replay: the open is
    registered with the process's trace sink, as a replay shard's timeline
    would, and its reference passed on."""
    server, number = process.address
    ref = process._sink.explicit((
        timestamp, server, number, user_id, session_id,
        ApiOperation.AUTHENTICATE, *_NO_EVENT, caused_by_attack))
    return process.open_session(user_id, session_id, timestamp, ref,
                                force_auth_failure)


def send_event(process, handle, row: tuple) -> None:
    """Send one dispatch row to an API process outside a replay, registered
    with the process's trace sink first."""
    server, number = process.address
    ref = process._sink.explicit((row[0], server, number, handle.user_id,
                                  handle.session_id, *row[1:]))
    process.handle_event(handle, row, ref)


def replay_outcome(config: ClusterConfig, scripts):
    """Replay session scripts (a :class:`ScriptTable` or a list of
    :class:`Script`\\ s) through one replay shard that owns every API
    process of the cluster (under the config's fault plan, if any); returns
    ``(shard, outcome)``."""
    table = scripts if isinstance(scripts, ScriptTable) else table_of(scripts)
    addresses = config.process_addresses()
    schedule = (compile_plan(config.faults, n_processes=len(addresses),
                             n_shards=config.metadata_shards)
                if config.faults is not None else None)
    shard = ReplayShard(config, 0, list(enumerate(addresses)),
                        U1Cluster(config).shard_factors,
                        fault_schedule=schedule)
    return shard, shard.run(table)


def replay_scripts(config: ClusterConfig, scripts):
    """:func:`replay_outcome`, returning ``(shard, dataset)``: the
    outcome's blocks merged into a trace."""
    shard, outcome = replay_outcome(config, scripts)
    dataset = TraceDataset.from_sorted_blocks(
        [(outcome.storage, outcome.rpc, outcome.sessions)])
    return shard, dataset


def trace_load(dataset: TraceDataset, n_shards: int) -> dict:
    """Per-process and per-metadata-shard load, read from the trace.

    ``storage``/``rpc`` count each ``(server, process)``'s storage and RPC
    rows; ``users_per_shard`` counts the distinct users whose RPC rows hit
    each metadata shard."""
    load = {}
    for name, column in (("storage", dataset.storage_column),
                         ("rpc", dataset.rpc_column)):
        load[name] = Counter(zip(column("server").tolist(),
                                 column("process").tolist()))
    users = Counter(shard_id for shard_id, _ in set(zip(
        dataset.rpc_column("shard_id").tolist(),
        dataset.rpc_column("user_id").tolist())))
    load["users_per_shard"] = [users[shard_id] for shard_id in range(n_shards)]
    return load


def append_records(dataset: TraceDataset, storage=(), rpc=(),
                   sessions=()) -> None:
    """Append records to ``dataset``, after the rows it holds, as one column
    block per stream (``append_block``, the trace sink's route)."""
    extra = TraceDataset(storage=storage, rpc=rpc, sessions=sessions)
    for stream, source in zip(
            (dataset._storage, dataset._rpc, dataset._sessions),
            (extra._storage, extra._rpc, extra._sessions)):
        stream.append_block(ColumnBlock.from_stream(source))


class Event(NamedTuple):
    """One event of a session script, decoded from a script table."""

    time: float
    user_id: int
    session_id: int
    operation: ApiOperation
    node_id: int
    volume_id: int
    volume_type: VolumeType
    node_kind: NodeKind
    size_bytes: int
    content_hash: str
    extension: str
    is_update: bool
    caused_by_attack: bool


class Script(NamedTuple):
    """One session script with its events, decoded from (or encoded into)
    a :class:`ScriptTable`."""

    user_id: int
    session_id: int
    start: float
    end: float
    caused_by_attack: bool = False
    auth_failed: bool = False
    events: tuple[Event, ...] = ()

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def length(self) -> float:
        return self.end - self.start


def script(user_id: int, session_id: int, start: float, end: float,
           caused_by_attack: bool = False, auth_failed: bool = False,
           times=(), operation=ApiOperation.GET_DELTA, node_id=0,
           volume_id=0, volume_type=VolumeType.ROOT, node_kind=NodeKind.FILE,
           size_bytes=0, content_hash="", extension="",
           is_update=False) -> Script:
    """A script whose events are given as columns: each a list with one
    value per event time, or one value for every event."""
    n = len(times)
    columns = [value if isinstance(value, list) else [value] * n
               for value in (operation, node_id, volume_id, volume_type,
                             node_kind, size_bytes, content_hash, extension,
                             is_update)]
    return Script(user_id, session_id, start, end, caused_by_attack,
                  auth_failed, tuple(
                      Event(t, user_id, session_id, *fields, caused_by_attack)
                      for t, *fields in zip(times, *columns)))


def table_of(scripts) -> ScriptTable:
    """The script table of ``scripts``, in order, through the
    :class:`ScriptRows` the materializer uses."""
    script_rows = ScriptRows()
    for s in scripts:
        script_rows.scripts.append((s.user_id, s.session_id, s.start, s.end,
                                    s.caused_by_attack, s.auth_failed,
                                    len(s.events)))
        script_rows.rows.extend(
            (e.time, OPERATION_CODE[e.operation], e.node_id, e.volume_id,
             VOLUME_TYPE_CODE[e.volume_type], NODE_KIND_CODE[e.node_kind],
             e.size_bytes, e.content_hash, e.extension, e.is_update)
            for e in s.events)
    return script_rows.build()


def scripts_of(table: ScriptTable) -> list[Script]:
    """Every script of ``table`` with its events, decoded."""
    operations, volume_types, node_kinds = (
        list(ApiOperation), list(VolumeType), list(NodeKind))
    hashes, extensions = (
        [categories[c] for c in codes.tolist()]
        for codes, categories in (table.content_hash, table.extension))
    events = list(zip(
        table.times.tolist(), [operations[c] for c in table.operation.tolist()],
        table.node_id.tolist(), table.volume_id.tolist(),
        [volume_types[c] for c in table.volume_type.tolist()],
        [node_kinds[c] for c in table.node_kind.tolist()],
        table.size_bytes.tolist(), hashes, extensions,
        table.is_update.tolist()))
    offsets = table.offsets.tolist()
    scripts = []
    for i, (user_id, session_id, start, end, attack, failed) in enumerate(zip(
            table.user_id.tolist(), table.session_id.tolist(),
            table.start.tolist(), table.end.tolist(),
            table.caused_by_attack.tolist(), table.auth_failed.tolist())):
        scripts.append(Script(user_id, session_id, start, end, attack, failed,
                              tuple(Event(t, user_id, session_id, *fields,
                                          attack)
                                    for t, *fields
                                    in events[offsets[i]:offsets[i + 1]])))
    return scripts


def events_of(script: Script) -> list[Event]:
    """The events of ``script``."""
    return list(script.events)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for model-level tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def empty_dataset() -> TraceDataset:
    """An empty dataset."""
    return TraceDataset()


# ---------------------------------------------------------------------------
# Synthetic end-to-end datasets (expensive; session-scoped)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def small_config() -> WorkloadConfig:
    """A laptop-scale workload configuration shared by the suite."""
    return WorkloadConfig.scaled(users=350, days=6, seed=42)


@pytest.fixture(scope="session")
def simulated_dataset(small_config) -> TraceDataset:
    """Dataset produced by replaying the workload through the back-end."""
    cluster = U1Cluster(ClusterConfig(seed=42))
    generator = SyntheticTraceGenerator(small_config)
    return cluster.replay_plan(generator.plan())


@pytest.fixture(scope="session")
def dataset_without_rpc(simulated_dataset) -> TraceDataset:
    """The simulated dataset with its RPC stream dropped (storage and
    session records only, as a trace without back-end detail has)."""
    return TraceDataset(storage=simulated_dataset.storage,
                        sessions=simulated_dataset.sessions)


@pytest.fixture(scope="session")
def simulated_cluster_and_dataset(small_config):
    """(cluster, dataset) pair for tests that inspect back-end internals."""
    cluster = U1Cluster(ClusterConfig(seed=7))
    generator = SyntheticTraceGenerator(
        WorkloadConfig.scaled(users=200, days=3, seed=7))
    dataset = cluster.replay_plan(generator.plan())
    return cluster, dataset
