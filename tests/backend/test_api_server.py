"""Unit tests for the API server process."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backend.api_server import ApiServerProcess, SessionRegistry
from repro.backend.auth import AuthenticationService
from repro.backend.datastore import ObjectStore
from repro.backend.gateway import ProcessAddress
from repro.backend.latency import ServiceTimeModel
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.notifications import NotificationBus
from repro.backend.protocol.operations import ApiRequest
from repro.backend.rpc_server import RpcWorker
from repro.backend.tracing import TraceSink
from repro.trace.records import ApiOperation, NodeKind, RpcName, SessionEvent, VolumeType
from repro.util.units import MB


def _build_process(dedup_enabled=True, delta_updates_enabled=False,
                   interrupted_upload_fraction=0.0, seed=0):
    sink = TraceSink()
    store = ShardedMetadataStore(n_shards=4)
    objects = ObjectStore()
    auth = AuthenticationService(rng=np.random.default_rng(seed), failure_fraction=0.0)
    bus = NotificationBus()
    registry = SessionRegistry()
    latency = ServiceTimeModel(np.random.default_rng(seed), n_shards=4)
    worker = RpcWorker(0, store, latency, sink)
    process = ApiServerProcess(
        address=ProcessAddress("api0", 0), rpc_worker=worker, object_store=objects,
        auth=auth, bus=bus, registry=registry, sink=sink,
        rng=np.random.default_rng(seed), dedup_enabled=dedup_enabled,
        delta_updates_enabled=delta_updates_enabled,
        interrupted_upload_fraction=interrupted_upload_fraction)
    return process, sink, objects, registry, bus


def _request(operation, user_id=1, session_id=1, node_id=10, size=100_000,
             content_hash="h1", is_update=False, node_kind=NodeKind.FILE,
             volume_id=5, timestamp=10.0, extension="txt"):
    return ApiRequest(operation=operation, user_id=user_id, session_id=session_id,
                      timestamp=timestamp, node_id=node_id, volume_id=volume_id,
                      volume_type=VolumeType.ROOT, node_kind=node_kind,
                      size_bytes=size, content_hash=content_hash,
                      extension=extension, is_update=is_update)


class TestSessions:
    def test_open_and_close_session_emit_records(self):
        process, sink, _, registry, _ = _build_process()
        handle = process.open_session(user_id=1, session_id=1, timestamp=5.0)
        assert handle is not None
        assert process.open_sessions == 1
        assert registry.sessions_of(1)
        events = [r.event for r in sink.dataset.sessions]
        assert events[:3] == [SessionEvent.AUTH_REQUEST, SessionEvent.AUTH_OK,
                              SessionEvent.CONNECT]
        # Authentication + bootstrap RPCs were traced.
        rpcs = {r.rpc for r in sink.dataset.rpc}
        assert RpcName.GET_USER_ID_FROM_TOKEN in rpcs
        assert RpcName.GET_USER_DATA in rpcs and RpcName.GET_ROOT in rpcs

        process.close_session(1, timestamp=65.0)
        assert process.open_sessions == 0
        disconnect = sink.dataset.sessions[-1]
        assert disconnect.event is SessionEvent.DISCONNECT
        assert disconnect.session_length == pytest.approx(60.0)
        assert not registry.sessions_of(1)

    def test_failed_authentication(self):
        process, sink, _, registry, _ = _build_process()
        handle = process.open_session(user_id=1, session_id=1, timestamp=5.0,
                                      force_auth_failure=True)
        assert handle is None
        assert process.open_sessions == 0
        assert sink.dataset.sessions[-1].event is SessionEvent.AUTH_FAIL
        assert not registry.sessions_of(1)

    def test_close_unknown_session_is_noop(self):
        process, sink, _, _, _ = _build_process()
        process.close_session(999, timestamp=1.0)
        assert not sink.dataset.sessions


class TestUploads:
    def test_small_upload_goes_straight_to_s3(self):
        process, sink, objects, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        response = process.handle(_request(ApiOperation.UPLOAD, size=200_000))
        assert response.ok
        assert response.bytes_to_s3 == 200_000
        assert not response.deduplicated
        assert "h1" in objects
        rpcs = [r.rpc for r in sink.dataset.rpc]
        assert RpcName.GET_REUSABLE_CONTENT in rpcs
        assert RpcName.MAKE_CONTENT in rpcs
        assert RpcName.MAKE_UPLOADJOB not in rpcs
        # A storage record was emitted for the request.
        assert sink.dataset.storage[-1].operation is ApiOperation.UPLOAD

    def test_duplicate_upload_is_deduplicated(self):
        process, _, objects, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.open_session(2, 2, 1.5)
        process.handle(_request(ApiOperation.UPLOAD, user_id=1, node_id=10))
        response = process.handle(_request(ApiOperation.UPLOAD, user_id=2, node_id=20,
                                           session_id=2))
        assert response.deduplicated
        assert response.bytes_to_s3 == 0
        assert objects.refcount("h1") == 2

    def test_dedup_can_be_disabled(self):
        process, _, objects, _, _ = _build_process(dedup_enabled=False)
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.UPLOAD, node_id=10))
        response = process.handle(_request(ApiOperation.UPLOAD, node_id=20, session_id=1))
        assert not response.deduplicated
        assert objects.accounting.bytes_uploaded == 200_000

    def test_large_upload_uses_multipart_and_uploadjob(self):
        process, sink, objects, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        response = process.handle(_request(ApiOperation.UPLOAD, size=12 * MB,
                                           content_hash="h-big"))
        assert response.bytes_to_s3 == 12 * MB
        rpcs = [r.rpc for r in sink.dataset.rpc]
        assert rpcs.count(RpcName.ADD_PART_TO_UPLOADJOB) == 3
        assert RpcName.MAKE_UPLOADJOB in rpcs
        assert RpcName.SET_UPLOADJOB_MULTIPART_ID in rpcs
        assert RpcName.DELETE_UPLOADJOB in rpcs
        assert objects.size_of("h-big") == 12 * MB
        # The job was committed and removed from the metadata store.
        assert all(not jobs for _, jobs in process.store.pending_uploadjobs())

    def test_interrupted_upload_leaves_pending_job(self):
        process, _, objects, _, _ = _build_process(interrupted_upload_fraction=1.0)
        process.open_session(1, 1, 1.0)
        response = process.handle(_request(ApiOperation.UPLOAD, size=20 * MB,
                                           content_hash="h-partial"))
        assert not response.ok
        assert 0 < response.bytes_to_s3 < 20 * MB
        assert "h-partial" not in objects
        pending = list(process.store.pending_uploadjobs())
        assert pending and pending[0][1]

    def test_delta_updates_reduce_transferred_bytes(self):
        process, _, _, _, _ = _build_process(delta_updates_enabled=True)
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.UPLOAD, size=4_000_000, content_hash="v1"))
        response = process.handle(_request(ApiOperation.UPLOAD, size=4_000_000,
                                           content_hash="v2", is_update=True))
        assert response.bytes_to_s3 <= 4_000_000 * 0.1


class TestOtherOperations:
    def test_download_fetches_from_s3(self):
        process, sink, _, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.UPLOAD))
        response = process.handle(_request(ApiOperation.DOWNLOAD))
        assert response.bytes_from_s3 == 100_000
        assert RpcName.GET_NODE in [r.rpc for r in sink.dataset.rpc]

    def test_download_of_pre_trace_file_registers_it(self):
        process, _, objects, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        response = process.handle(_request(ApiOperation.DOWNLOAD, node_id=77,
                                           content_hash="old", size=5_000))
        assert response.bytes_from_s3 == 5_000
        assert "old" in objects

    def test_make_unlink_and_move(self):
        process, sink, objects, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.MAKE, node_id=30, size=0, content_hash=""))
        process.handle(_request(ApiOperation.UPLOAD, node_id=30, content_hash="h30"))
        process.handle(_request(ApiOperation.MOVE, node_id=30, volume_id=99))
        response = process.handle(_request(ApiOperation.UNLINK, node_id=30))
        assert response.ok
        assert "h30" not in objects  # content released with its last reference
        rpcs = [r.rpc for r in sink.dataset.rpc]
        assert RpcName.MAKE_FILE in rpcs
        assert RpcName.MOVE in rpcs
        assert RpcName.UNLINK_NODE in rpcs

    def test_make_directory_uses_make_dir_rpc(self):
        process, sink, _, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.MAKE, node_id=40, size=0, content_hash="",
                                node_kind=NodeKind.DIRECTORY))
        assert RpcName.MAKE_DIR in [r.rpc for r in sink.dataset.rpc]

    def test_volume_lifecycle(self):
        process, sink, _, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.CREATE_UDF, node_id=0, volume_id=200,
                                size=0, content_hash=""))
        process.handle(_request(ApiOperation.UPLOAD, node_id=50, volume_id=200,
                                content_hash="h50"))
        response = process.handle(_request(ApiOperation.DELETE_VOLUME, node_id=0,
                                           volume_id=200, size=0, content_hash=""))
        assert response.ok
        assert response.details["nodes_removed"] == 1
        assert RpcName.DELETE_VOLUME in [r.rpc for r in sink.dataset.rpc]

    def test_maintenance_operations(self):
        process, sink, _, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        for operation, rpc in [
            (ApiOperation.LIST_VOLUMES, RpcName.LIST_VOLUMES),
            (ApiOperation.LIST_SHARES, RpcName.LIST_SHARES),
            (ApiOperation.GET_DELTA, RpcName.GET_DELTA),
            (ApiOperation.QUERY_SET_CAPS, RpcName.GET_USER_DATA),
            (ApiOperation.RESCAN_FROM_SCRATCH, RpcName.GET_FROM_SCRATCH),
        ]:
            response = process.handle(_request(operation, node_id=0, size=0,
                                               content_hash=""))
            assert response.ok
            assert rpc in [r.rpc for r in sink.dataset.rpc]

    def test_storage_operations_counted_on_handle(self):
        process, sink, _, _, _ = _build_process()
        process.open_session(1, 1, 1.0)
        process.handle(_request(ApiOperation.UPLOAD))
        process.handle(_request(ApiOperation.GET_DELTA, node_id=0, size=0,
                                content_hash=""))
        process.close_session(1, timestamp=100.0)
        disconnect = sink.dataset.sessions[-1]
        assert disconnect.storage_operations == 1  # GetDelta is maintenance


def _row(request):
    """The ``EventBlock.rows`` tuple ``handle_event`` receives for ``request``."""
    return (request.timestamp, request.operation, request.node_id,
            request.volume_id, request.volume_type, request.node_kind,
            request.size_bytes, request.content_hash, request.extension,
            request.is_update, request.caused_by_attack)


def _state(process, sink, objects, handle):
    """Everything one request can touch: trace rows and every counter."""
    worker = process._rpc  # noqa: SLF001
    return {
        "storage": list(sink.dataset.storage),
        "rpc": list(sink.dataset.rpc),
        "accounting": dataclasses.asdict(objects.accounting),
        "objects": len(objects),
        "shards": process.store.summary(),
        "worker": (worker.calls_executed, worker.busy_time),
        "requests_handled": process.requests_handled,
        "storage_operations": handle.storage_operations,
    }


_EVENTS = {
    "download-known-node": (ApiOperation.DOWNLOAD, {}),
    "download-unknown-node": (ApiOperation.DOWNLOAD,
                              {"node_id": 77, "content_hash": "old"}),
    "upload": (ApiOperation.UPLOAD, {"node_id": 11, "content_hash": "h2"}),
    **{operation.value: (operation, {"node_id": 0, "size": 0,
                                     "content_hash": ""})
       for operation in (ApiOperation.GET_DELTA, ApiOperation.LIST_VOLUMES,
                         ApiOperation.LIST_SHARES, ApiOperation.QUERY_SET_CAPS,
                         ApiOperation.RESCAN_FROM_SCRATCH)},
}


class TestHandleEventMatchesHandle:
    """``handle_event`` (the replay's dispatch) and ``handle`` (the generic
    path) are twins: the same event leaves identical rows and counters."""

    @pytest.mark.parametrize("name", sorted(_EVENTS))
    def test_same_event_same_rows_and_counters(self, name):
        operation, overrides = _EVENTS[name]
        states = []
        for via_handle_event in (False, True):
            process, sink, objects, _, _ = _build_process()
            handle = process.open_session(1, 1, 1.0)
            # Shared history: node 10 is known to the metadata store.
            process.handle(_request(ApiOperation.UPLOAD, timestamp=5.0))
            request = _request(operation, **overrides)
            if via_handle_event:
                process.handle_event(handle, _row(request))
            else:
                process.handle(request)
            states.append(_state(process, sink, objects, handle))
        generic, replayed = states
        assert replayed["storage"][-1].operation is operation
        assert replayed == generic


class TestNotifications:
    def test_mutation_notifies_other_sessions_of_same_user(self):
        process, _, _, _, bus = _build_process()
        process.open_session(1, 1, 1.0)
        process.open_session(1, 2, 2.0)   # second device of the same user
        response = process.handle(_request(ApiOperation.UPLOAD, session_id=1))
        assert response.notified_sessions == 1
        assert bus.short_circuits == 1    # same process: queue bypassed
        assert bus.published == 0

    def test_no_notification_for_single_session_users(self):
        process, _, _, _, bus = _build_process()
        process.open_session(1, 1, 1.0)
        response = process.handle(_request(ApiOperation.UPLOAD))
        assert response.notified_sessions == 0
        assert bus.pushes == 0
