"""Unit tests for the API server process.

Requests enter the process the way a replay shard sends them: a dispatch
row plus a trace-sink reference (``tests.conftest.send_event``).  What a
request did is read off the observable state: the RPC rows, the object
store's accounting, the metadata shards and the mutations the process
recorded.  Storage rows, downloads, session rows and the notification
fan-out are a replay shard's (its loop serves downloads, and it builds the
rest after dispatch), so their tests replay scripts through one
(``tests.conftest.replay_scripts``; ``_replay_rows`` sends dispatch rows
that way).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.backend.api_server import ApiServerProcess, SessionRegistry
from repro.backend.auth import AuthenticationService
from repro.backend.datastore import ObjectStore
from repro.backend.gateway import ProcessAddress
from repro.backend.latency import ServiceTimeModel, shard_skew_factors
from repro.backend.cluster import ClusterConfig
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.replay_shard import UploadJobCollector
from repro.backend.rpc_server import RpcWorker
from repro.backend.tracing import TraceSink
from repro.backend.uploadjob import GARBAGE_COLLECTION_AGE
from repro.faults.spec import (
    DegradedProcess,
    FaultPlan,
    ReadOnlyShard,
    StorageNodeOutage,
)
from repro.trace.records import (
    MUTATING_OPERATIONS,
    ApiOperation,
    NodeKind,
    RpcName,
    SessionEvent,
)
from repro.trace.validate import validate_dataset
from repro.util.units import MB
from tests.conftest import (
    event_row,
    open_session,
    replay_scripts,
    script,
    send_event,
)


def _build_process(dedup_enabled=True, delta_updates_enabled=False,
                   interrupted_upload_fraction=0.0, seed=0, n_shards=4):
    sink = TraceSink()
    store = ShardedMetadataStore(n_shards=n_shards)
    objects = ObjectStore()
    auth = AuthenticationService(rng=np.random.default_rng(seed), failure_fraction=0.0)
    registry = SessionRegistry()
    latency = ServiceTimeModel(np.random.default_rng(seed),
                               shard_skew_factors(seed, n_shards))
    worker = RpcWorker(0, latency, sink)
    process = ApiServerProcess(
        address=ProcessAddress("api0", 0), metadata_store=store,
        rpc_worker=worker, object_store=objects,
        auth=auth, registry=registry, sink=sink,
        rng=np.random.default_rng(seed), dedup_enabled=dedup_enabled,
        delta_updates_enabled=delta_updates_enabled,
        interrupted_upload_fraction=interrupted_upload_fraction)
    return process, sink, objects, registry, store


def _rpcs(sink) -> list[RpcName]:
    return [r.rpc for r in sink.dataset.rpc]


def _replay(scripts, processes: int = 1):
    """Replay ``scripts`` through one replay shard of ``processes`` API
    processes (no auth failures, no interrupted uploads)."""
    return replay_scripts(ClusterConfig(
        seed=0, api_machines=1, processes_per_machine=processes,
        metadata_shards=4, replay_shards=1, auth_failure_fraction=0.0,
        interrupted_upload_fraction=0.0), scripts)


def _replay_rows(rows, **config):
    """Replay one session of user 1, opened at 1.0, that sends ``rows``
    (``event_row`` tuples) through a replay shard of one API process (no
    auth failures, no interrupted uploads unless ``config`` says so);
    returns ``(shard, dataset)``."""
    (times, operation, node_id, volume_id, volume_type, node_kind, size,
     content_hash, extension, is_update, _) = map(list, zip(*rows))
    session = script(1, 1, 1.0, max(times) + 1.0, times=times,
                     operation=operation, node_id=node_id, volume_id=volume_id,
                     volume_type=volume_type, node_kind=node_kind,
                     size_bytes=size, content_hash=content_hash,
                     extension=extension, is_update=is_update)
    extra = config.pop("sessions", [])
    return replay_scripts(ClusterConfig(**{
        "seed": 0, "api_machines": 1, "processes_per_machine": 1,
        "metadata_shards": 4, "replay_shards": 1,
        "auth_failure_fraction": 0.0, "interrupted_upload_fraction": 0.0,
        **config}), [session, *extra])


class TestSessions:
    def test_open_and_close_session_emit_records(self):
        process, sink, _, _, _ = _build_process()
        handle = open_session(process, user_id=1, session_id=1, timestamp=5.0)
        assert handle is not None
        assert (handle.session_id, handle.user_id) == (1, 1)
        # Authentication + bootstrap RPCs were traced.
        rpcs = {r.rpc for r in sink.dataset.rpc}
        assert RpcName.GET_USER_ID_FROM_TOKEN in rpcs
        assert RpcName.GET_USER_DATA in rpcs and RpcName.GET_ROOT in rpcs
        assert {r.api_operation for r in sink.dataset.rpc} == {
            ApiOperation.AUTHENTICATE}

        _, dataset = _replay([script(1, 1, 5.0, 65.0)])
        events = [r.event for r in dataset.sessions]
        assert events == [SessionEvent.AUTH_REQUEST, SessionEvent.AUTH_OK,
                          SessionEvent.CONNECT, SessionEvent.DISCONNECT]
        assert {r.rpc for r in dataset.rpc} == rpcs
        disconnect = dataset.sessions[-1]
        assert disconnect.event is SessionEvent.DISCONNECT
        assert disconnect.session_length == pytest.approx(60.0)

    def test_failed_authentication(self):
        process, _, _, _, _ = _build_process()
        handle = open_session(process, user_id=1, session_id=1, timestamp=5.0,
                              force_auth_failure=True)
        assert handle is None
        # A denied session is not closed: its last row is the failure.
        _, dataset = _replay([script(1, 1, 5.0, 65.0, auth_failed=True)])
        assert [r.event for r in dataset.sessions] == [
            SessionEvent.AUTH_REQUEST, SessionEvent.AUTH_FAIL]

    def test_session_is_routed_to_its_users_shard(self):
        process, sink, _, _, store = _build_process(n_shards=4)
        for user_id in range(1, 7):
            handle = open_session(process, user_id, user_id, float(user_id))
            assert handle.shard_id == user_id % 4
            assert handle.shard is store.shard_and_id(user_id)[0]
            assert handle.shard.shard_id == handle.shard_id
        assert {(r.user_id, r.shard_id) for r in sink.dataset.rpc} == {
            (user_id, user_id % 4) for user_id in range(1, 7)}


class TestUploads:
    def test_small_upload_goes_straight_to_s3(self):
        shard, dataset = _replay_rows([event_row(ApiOperation.UPLOAD,
                                                 size=200_000)])
        objects = shard.objects
        assert objects.accounting.bytes_uploaded == 200_000
        assert objects.accounting.dedup_hits == 0
        assert "h1" in objects
        rpcs = [r.rpc for r in dataset.rpc]
        assert RpcName.GET_REUSABLE_CONTENT in rpcs
        assert RpcName.MAKE_CONTENT in rpcs
        assert RpcName.MAKE_UPLOADJOB not in rpcs
        # A storage record was emitted for the request.
        assert dataset.storage[-1].operation is ApiOperation.UPLOAD

    def test_duplicate_upload_is_deduplicated(self):
        process, _, objects, _, _ = _build_process()
        first = open_session(process, 1, 1, 1.0)
        second = open_session(process, 2, 2, 1.5)
        send_event(process, first, event_row(ApiOperation.UPLOAD, node_id=10))
        send_event(process, second, event_row(ApiOperation.UPLOAD, node_id=20))
        assert objects.accounting.dedup_hits == 1
        assert objects.accounting.bytes_uploaded == 100_000  # only the first
        assert objects._refcounts.get("h1", 0) == 2

    def test_dedup_can_be_disabled(self):
        process, _, objects, _, _ = _build_process(dedup_enabled=False)
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.UPLOAD, node_id=10))
        send_event(process, handle, event_row(ApiOperation.UPLOAD, node_id=20))
        assert objects.accounting.dedup_hits == 0
        assert objects.accounting.bytes_uploaded == 200_000

    def test_large_upload_uses_multipart_and_uploadjob(self):
        process, sink, objects, _, store = _build_process()
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.UPLOAD, size=12 * MB,
                                              content_hash="h-big"))
        assert objects.accounting.bytes_uploaded == 12 * MB
        rpcs = _rpcs(sink)
        assert rpcs.count(RpcName.ADD_PART_TO_UPLOADJOB) == 3
        assert RpcName.MAKE_UPLOADJOB in rpcs
        assert RpcName.SET_UPLOADJOB_MULTIPART_ID in rpcs
        assert rpcs[-2:] == [RpcName.MAKE_CONTENT, RpcName.DELETE_UPLOADJOB]
        assert objects.size_of("h-big") == 12 * MB
        # The job was committed and removed from the metadata store.
        assert all(not jobs for _, jobs in store.pending_uploadjobs())

    def test_interrupted_upload_leaves_pending_job(self):
        shard, dataset = _replay_rows(
            [event_row(ApiOperation.UPLOAD, size=20 * MB,
                       content_hash="h-partial")],
            interrupted_upload_fraction=0.99,
            # A second device to notify.
            sessions=[script(1, 2, 1.5, 20.0)])
        objects, registry, store = shard.objects, shard.registry, shard.store
        # One 5 MB chunk went up before the client went away.
        assert 0 < objects.accounting.bytes_uploaded < 20 * MB
        assert "h-partial" not in objects
        pending = list(store.pending_uploadjobs())
        assert pending and pending[0][1]
        rpcs = [r.rpc for r in dataset.rpc]
        assert rpcs.count(RpcName.ADD_PART_TO_UPLOADJOB) == 1
        assert RpcName.MAKE_CONTENT not in rpcs
        # A failed mutation notifies nobody; it is still a storage row.
        assert registry.mutations == []
        assert dataset.storage[-1].operation is ApiOperation.UPLOAD

    def test_delta_updates_reduce_transferred_bytes(self):
        process, _, objects, _, _ = _build_process(delta_updates_enabled=True)
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.UPLOAD, size=4_000_000,
                                              content_hash="v1"))
        before = objects.accounting.bytes_uploaded
        send_event(process, handle, event_row(ApiOperation.UPLOAD, size=4_000_000,
                                              content_hash="v2", is_update=True))
        assert objects.accounting.bytes_uploaded - before <= 4_000_000 * 0.1


class TestOtherOperations:
    def test_download_fetches_from_s3(self):
        shard, dataset = _replay_rows([
            event_row(ApiOperation.UPLOAD, timestamp=10.0),
            event_row(ApiOperation.DOWNLOAD, timestamp=11.0)])
        objects = shard.objects
        assert objects.accounting.get_requests == 1
        assert objects.accounting.bytes_downloaded == 100_000
        assert [r.rpc for r in dataset.rpc][-1] is RpcName.GET_NODE

    def test_download_of_pre_trace_file_registers_it(self):
        replay, dataset = _replay_rows([event_row(
            ApiOperation.DOWNLOAD, node_id=77, content_hash="old", size=5_000)])
        objects, store = replay.objects, replay.store
        assert objects.accounting.bytes_downloaded == 5_000
        assert "old" in objects
        shard, _ = store.shard_and_id(1)
        assert shard.get_node(77).content_hash == "old"
        # The registration is quiet: only the download's GET_NODE is traced.
        assert [r.rpc for r in dataset.rpc
                if r.api_operation is ApiOperation.DOWNLOAD] == [RpcName.GET_NODE]

    def test_make_unlink_and_move(self):
        process, sink, objects, _, store = _build_process()
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.MAKE, node_id=30, size=0,
                                              content_hash=""))
        send_event(process, handle, event_row(ApiOperation.UPLOAD, node_id=30,
                                              content_hash="h30"))
        send_event(process, handle, event_row(ApiOperation.MOVE, node_id=30,
                                              volume_id=99))
        shard, _ = store.shard_and_id(1)
        assert shard.get_node(30).volume_id == 99
        send_event(process, handle, event_row(ApiOperation.UNLINK, node_id=30))
        assert "h30" not in objects  # content released with its last reference
        assert not shard.has_node(30)
        rpcs = _rpcs(sink)
        assert RpcName.MAKE_FILE in rpcs
        assert RpcName.MOVE in rpcs
        assert RpcName.UNLINK_NODE in rpcs

    def test_make_directory_uses_make_dir_rpc(self):
        process, sink, _, _, _ = _build_process()
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.MAKE, node_id=40, size=0,
                                              content_hash="",
                                              node_kind=NodeKind.DIRECTORY))
        assert RpcName.MAKE_DIR in _rpcs(sink)

    def test_volume_lifecycle(self):
        process, sink, objects, _, store = _build_process()
        handle = open_session(process, 1, 1, 1.0)
        send_event(process, handle, event_row(ApiOperation.CREATE_UDF, node_id=0,
                                              volume_id=200, size=0,
                                              content_hash=""))
        send_event(process, handle, event_row(ApiOperation.UPLOAD, node_id=50,
                                              volume_id=200, content_hash="h50"))
        shard, _ = store.shard_and_id(1)
        assert shard.has_node(50) and "h50" in objects
        send_event(process, handle, event_row(ApiOperation.DELETE_VOLUME, node_id=0,
                                              volume_id=200, size=0,
                                              content_hash=""))
        # The cascade removed the volume's one node and released its content.
        assert not shard.has_node(50)
        assert "h50" not in objects
        assert RpcName.DELETE_VOLUME in _rpcs(sink)

    def test_maintenance_operations(self):
        expected = [
            (ApiOperation.LIST_VOLUMES, RpcName.LIST_VOLUMES),
            (ApiOperation.LIST_SHARES, RpcName.LIST_SHARES),
            (ApiOperation.GET_DELTA, RpcName.GET_DELTA),
            (ApiOperation.QUERY_SET_CAPS, RpcName.GET_USER_DATA),
            (ApiOperation.RESCAN_FROM_SCRATCH, RpcName.GET_FROM_SCRATCH),
        ]
        _, dataset = _replay_rows([
            event_row(operation, timestamp=10.0 + k, node_id=0, size=0,
                      content_hash="")
            for k, (operation, _) in enumerate(expected)])
        for k, (operation, rpc) in enumerate(expected):
            last = [r for r in dataset.rpc if r.timestamp <= 10.0 + k][-1]
            assert (last.rpc, last.api_operation) == (rpc, operation)
            storage = [r for r in dataset.storage if r.timestamp <= 10.0 + k]
            assert storage[-1].operation is operation

    def test_storage_operations_counted_on_the_disconnect(self):
        shard, dataset = _replay([script(
            1, 1, 1.0, 100.0, times=[10.0, 11.0],
            operation=[ApiOperation.UPLOAD, ApiOperation.GET_DELTA],
            node_id=10, volume_id=5, size_bytes=100_000,
            content_hash=["h1", ""])])
        disconnect = dataset.sessions[-1]
        assert disconnect.storage_operations == 1  # GetDelta is maintenance
        assert [(r.server, r.process) for r in dataset.storage] \
            == [tuple(shard.processes[0].address)] * 2


#: StorageAccounting fields a download moves.
_TRANSFER_FIELDS = ("get_requests", "bytes_downloaded", "put_requests",
                    "bytes_uploaded", "bytes_stored", "logical_bytes",
                    "dedup_hits")


def _download_rows(uploaded_node: int):
    """The download of node 10 (content ``h1``) after an upload of
    ``uploaded_node`` with the same content, on a one-shard store: its
    storage and RPC rows, and what it moved in the store and the worker
    (the upload alone replayed first gives the baseline)."""
    upload = event_row(ApiOperation.UPLOAD, timestamp=5.0,
                       node_id=uploaded_node)
    before_shard, before = _replay_rows([upload], metadata_shards=1)
    shard, dataset = _replay_rows([upload, event_row(ApiOperation.DOWNLOAD)],
                                  metadata_shards=1)
    moved = {name: getattr(shard.objects.accounting, name)
             - getattr(before_shard.objects.accounting, name)
             for name in _TRANSFER_FIELDS}
    rpc = [r for r in dataset.rpc if r.api_operation is ApiOperation.DOWNLOAD]
    return {
        "storage": dataset.storage[-1],
        "rpc": rpc,
        "moved": moved,
        "rpc_calls": len(dataset.rpc) - len(before.rpc),
    }


class TestDownloadBranches:
    """A download of a known node and of an unknown one (a node that
    predates the trace, registered quietly first) leave the same rows and
    accounting."""

    def test_same_rows_and_accounting(self):
        known = _download_rows(10)
        general = _download_rows(11)  # node 10 predates the trace
        assert known["storage"].operation is ApiOperation.DOWNLOAD
        assert [r.rpc for r in known["rpc"]] == [RpcName.GET_NODE]
        assert known["moved"]["bytes_downloaded"] == 100_000
        assert general == known


class TestUploadJobCollection:
    def test_sweep_rpcs_run_on_the_job_owners_shard(self):
        process, sink, _, _, store = _build_process(
            n_shards=4, interrupted_upload_fraction=1.0)
        for user_id in (1, 2, 7):
            handle = open_session(process, user_id, user_id, 1.0)
            send_event(process, handle, event_row(
                ApiOperation.UPLOAD, timestamp=2.0, size=20 * MB,
                content_hash=f"h-partial-{user_id}"))
        before = len(sink.dataset.rpc)
        collector = UploadJobCollector(store, process, interval=1.0)
        collector.collect(3.0 + GARBAGE_COLLECTION_AGE)
        swept = sink.dataset.rpc[before:]
        assert Counter(r.rpc for r in swept) == {
            RpcName.GET_UPLOADJOB: 3, RpcName.TOUCH_UPLOADJOB: 3,
            RpcName.DELETE_UPLOADJOB: 3}
        assert {(r.user_id, r.shard_id) for r in swept} == {
            (1, 1), (2, 2), (7, 3)}
        assert all(r.api_operation is None for r in swept)
        assert all(not jobs for _, jobs in store.pending_uploadjobs())


class TestNotifications:
    def test_mutation_notifies_other_sessions_of_same_user(self):
        shard, _ = _replay([
            script(1, 1, 1.0, 20.0, times=[5.0],
                   operation=ApiOperation.UPLOAD, node_id=10, volume_id=5,
                   size_bytes=100_000, content_hash="h1"),
            script(1, 2, 2.0, 20.0),  # second device of the same user
        ])
        bus = shard.bus
        assert bus.pushes == 1
        assert bus.short_circuits == 1    # same process: queue bypassed
        assert bus.published == 0

    def test_no_notification_for_single_session_users(self):
        shard, _ = _replay([script(
            1, 1, 1.0, 20.0, times=[5.0], operation=ApiOperation.UPLOAD,
            node_id=10, volume_id=5, size_bytes=100_000, content_hash="h1")])
        assert shard.bus.pushes == 0

    def test_reads_notify_nobody(self):
        shard, _ = _replay([
            script(1, 1, 1.0, 20.0, times=[5.0, 6.0, 7.0],
                   operation=[ApiOperation.UPLOAD, ApiOperation.DOWNLOAD,
                              ApiOperation.GET_DELTA],
                   node_id=[10, 10, 0], volume_id=5,
                   size_bytes=[100_000, 100_000, 0],
                   content_hash=["h1", "h1", ""]),
            script(1, 2, 2.0, 20.0),
        ])
        # Only the upload notified the second device.
        assert shard.bus.pushes == 1


class TestOneEntryPoint:
    def test_handle_event_is_the_only_request_entry(self):
        public = {name for name, value in vars(ApiServerProcess).items()
                  if callable(value) and not name.startswith("_")}
        assert public == {"open_session", "handle_event"}

    def test_every_client_operation_has_one_implementation(self):
        session_management = {ApiOperation.AUTHENTICATE,
                              ApiOperation.OPEN_SESSION,
                              ApiOperation.CLOSE_SESSION}
        handlers = ApiServerProcess._HANDLERS  # noqa: SLF001
        # The download runs inline in handle_event; every other operation
        # a client event can carry has its own table entry.
        assert set(handlers) == set(ApiOperation) - session_management - {
            ApiOperation.DOWNLOAD}
        assert len(set(handlers.values())) == len(handlers)
        assert MUTATING_OPERATIONS <= set(handlers)


# ---------------------------------------------------------------------------
# Every operation through a replay shard
# ---------------------------------------------------------------------------

#: One session's script: every client operation once, one second apart,
#: and the RPCs each one issues when it is served.
_SCRIPT = [
    (ApiOperation.CREATE_UDF, {"node_id": 0, "volume_id": 200},
     [RpcName.CREATE_UDF]),
    (ApiOperation.MAKE, {"node_id": 30, "volume_id": 200}, [RpcName.MAKE_FILE]),
    # Past the 1 KiB chunk: a multipart upload of a new node.
    (ApiOperation.UPLOAD, {"node_id": 31, "volume_id": 200, "size": 3000,
                           "content_hash": "c1"},
     [RpcName.MAKE_FILE, RpcName.GET_REUSABLE_CONTENT, RpcName.MAKE_UPLOADJOB,
      RpcName.SET_UPLOADJOB_MULTIPART_ID, RpcName.ADD_PART_TO_UPLOADJOB,
      RpcName.ADD_PART_TO_UPLOADJOB, RpcName.ADD_PART_TO_UPLOADJOB,
      RpcName.MAKE_CONTENT, RpcName.DELETE_UPLOADJOB]),
    (ApiOperation.DOWNLOAD, {"node_id": 31, "volume_id": 200, "size": 3000,
                             "content_hash": "c1"}, [RpcName.GET_NODE]),
    (ApiOperation.MOVE, {"node_id": 30, "volume_id": 5}, [RpcName.MOVE]),
    (ApiOperation.GET_DELTA, {"node_id": 0, "volume_id": 200},
     [RpcName.GET_DELTA]),
    (ApiOperation.LIST_VOLUMES, {"node_id": 0}, [RpcName.LIST_VOLUMES]),
    (ApiOperation.LIST_SHARES, {"node_id": 0}, [RpcName.LIST_SHARES]),
    (ApiOperation.QUERY_SET_CAPS, {"node_id": 0}, [RpcName.GET_USER_DATA]),
    (ApiOperation.RESCAN_FROM_SCRATCH, {"node_id": 0},
     [RpcName.GET_FROM_SCRATCH]),
    (ApiOperation.UNLINK, {"node_id": 31, "volume_id": 200},
     [RpcName.UNLINK_NODE]),
    (ApiOperation.DELETE_VOLUME, {"node_id": 0, "volume_id": 200},
     [RpcName.DELETE_VOLUME]),
]


def _every_operation_script():
    columns = {"times": [], "operation": [], "node_id": [], "volume_id": [],
               "size_bytes": [], "content_hash": []}
    for k, (operation, fields, _) in enumerate(_SCRIPT):
        columns["times"].append(1.0 + k)
        columns["operation"].append(operation)
        columns["node_id"].append(fields["node_id"])
        columns["volume_id"].append(fields.get("volume_id", 5))
        columns["size_bytes"].append(fields.get("size", 0))
        columns["content_hash"].append(fields.get("content_hash", ""))
    busy = script(1, 1, 0.5, len(_SCRIPT) + 2.0, extension="txt", **columns)
    # A second device of the same user, online throughout: every served
    # mutation notifies it.
    idle = script(1, 2, 0.0, len(_SCRIPT) + 3.0)
    return [idle, busy]


def _fault_plan(n_shards: int):
    # Every process slowed, every content's storage node down with a
    # replica to fail over to, every shard read-only from the unlink on.
    return FaultPlan(faults=(
        *(DegradedProcess(0.0, 20.0, process_index=p, inflation=3.0)
          for p in range(2)),
        *(StorageNodeOutage(0.0, 20.0, node_index=n, n_nodes=2, failover=True)
          for n in range(2)),
        *(ReadOnlyShard(10.5, 20.0, shard_id=s) for s in range(n_shards)),
    ), seed=3)


class TestEveryOperationReplayed:
    """A hand-built script with all 12 client operations, replayed through
    one replay shard with and without faults."""

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    def test_each_operation_issues_its_rpcs(self, faults):
        config = ClusterConfig(
            seed=1, api_machines=1, processes_per_machine=2, metadata_shards=3,
            replay_shards=1, multipart_chunk_bytes=1024,
            interrupted_upload_fraction=0.0, auth_failure_fraction=0.0,
            faults=_fault_plan(3) if faults else None)
        shard, dataset = replay_scripts(config, _every_operation_script())
        assert validate_dataset(dataset) == []

        storage = dataset.storage
        assert [r.operation for r in storage] == [op for op, _, _ in _SCRIPT]
        issued: dict[float, list[RpcName]] = {}
        for record in dataset.rpc:
            if record.api_operation is not ApiOperation.AUTHENTICATE:
                issued.setdefault(record.timestamp, []).append(record.rpc)
        served_mutations = 0
        for record, (operation, _, expected) in zip(storage, _SCRIPT):
            if record.error_kind:
                # A rejected request runs no handler: no RPC at all.
                assert faults and record.timestamp not in issued
                continue
            assert issued[record.timestamp] == expected, operation
            served_mutations += operation in MUTATING_OPERATIONS
        # Each served mutation reached the user's other session.
        assert shard.bus.pushes == served_mutations

        accounting = shard.objects.accounting
        counters = shard.faults.accounting if faults else None
        if faults:
            # The read-only window rejected the unlink and the volume delete;
            # both transfers were served by a replica.
            assert [r.error_kind for r in storage][-2:] == ["shard_read_only"] * 2
            assert counters.failover_requests == accounting.failover_reads == 2
            assert counters.degraded_rpcs > 0
        else:
            assert not any(r.error_kind for r in storage)
        assert accounting.get_requests == 1
        assert accounting.bytes_downloaded == 3000
        closes = [r for r in dataset.sessions if r.event is SessionEvent.DISCONNECT]
        assert {r.session_id: r.storage_operations for r in closes} == {
            1: 7, 2: 0}
