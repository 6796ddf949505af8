"""Column-native replay output against a row-tuple reference.

A replay shard records each RPC row as provenance (the request's reference
plus the back-end's own values) and gathers the request fields from its
request columns; it builds its storage rows, its downloads' RPC rows, its
service times and its session rows as columns after dispatch.  Each shard
here is checked against a twin replayed on the per-record path of
``reference_dispatch.py`` (every request appends its storage row, every RPC
draws its service time), and the twin against a row-tuple reference that
rebuilds every row the way the row-tuple sink did: at each write it takes
the fields of the request being served — tracked from the call stack, not
from the reference the row carries — and the session rows come from the
record-by-record walk of ``reference_sessions.py``.  It packs the 18-field
storage, 10-field RPC and 9-field session tuples with
``repro.trace.dataset._pack``.  Every shard block must equal the twin's and
the packed reference array for array, categories included, and the
shard's counters must equal the twin's and its fan-out counters the
walk's.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbench.workloads import WORKLOADS, cluster_config, workload_config
from repro.backend import replay_shard
from repro.backend.api_server import ApiServerProcess, SessionRegistry
from repro.backend.auth import AuthenticationService
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.datastore import ObjectStore
from repro.backend.gateway import ProcessAddress
from repro.backend.latency import ServiceTimeModel, shard_skew_factors
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.replay_shard import ReplayShard, UploadJobCollector
from repro.backend.rpc_server import RpcWorker
from repro.faults.mitigation import MitigationPolicy
from repro.faults.runtime import compile_plan
from repro.faults.spec import (
    AuthOutage,
    DegradedProcess,
    FaultPlan,
    default_fault_plan,
)
from repro.trace.dataset import (
    _RPC_SPEC,
    _SESSION_SPEC,
    _STORAGE_SPEC,
    ColumnBlock,
    _pack,
)
from repro.trace.records import (
    ApiOperation,
    NodeKind,
    RpcName,
    SessionEvent,
    VolumeType,
)
from repro.workload.generator import SyntheticTraceGenerator
from tests.backend.reference_dispatch import (
    ReferenceSink,
    oracle_checked,
    per_record_path,
)
from tests.backend.reference_sessions import (
    assert_block_equals as _assert_block_equals,
    assert_shard_equals_walk,
    recording_dispatch,
)
from tests.conftest import (
    event_row,
    open_session,
    replay_scripts,
    script,
    send_event,
    table_of,
)

_RPC_NAMES = list(RpcName)
#: Request fields a session open or a bare RPC context does not carry.
_NO_EVENT = (0, 0, None, None, 0, "", "", False)
_GC = object()  # stack marker: inside an uploadjob GC sweep


class _Tap(list):
    """A provenance buffer that notes the request served at each write."""

    def __init__(self, note):
        super().__init__()
        self._note = note

    def append(self, value):
        list.append(self, value)
        self._note(1)

    def extend(self, values):
        values = list(values)
        list.extend(self, values)
        self._note(len(values))


class _RecordingSink(ReferenceSink):
    """A per-record trace sink that also keeps what the row-tuple sink
    would have built."""

    __slots__ = ("stack", "storage_requests", "rpc_requests", "storage_values",
                 "rpc_values", "session_rows", "attack_of")

    def __init__(self, dataset=None):
        super().__init__(dataset)
        self.stack: list = []
        self.storage_requests: list[tuple] = []
        self.rpc_requests: list[tuple] = []
        self.storage_values: list[tuple] = []
        self.rpc_values: list[tuple] = []
        #: The session rows of the reference walk.
        self.session_rows: list[tuple] = []
        #: session id -> the session's ``caused_by_attack`` (its script's).
        self.attack_of: dict[int, bool] = {}
        self.storage_refs = _Tap(self._note(self.storage_requests))
        self.rpc_refs = _Tap(self._note(self.rpc_requests))

    def _note(self, requests):
        def note(n):
            requests.extend([self.stack[-1]] * n)
        return note

    def gather(self, sources=None, storage_faults=None, sessions=None):
        n = len(self.storage_shards)
        faults = [("", 0)] * n
        if storage_faults is not None:
            (codes, kinds), retries = storage_faults
            faults = [(kinds[code], tries) for code, tries
                      in zip(codes.tolist(), retries.tolist())]
        self.storage_values.extend(
            (shard, *fault)
            for shard, fault in zip(self.storage_shards, faults))
        self.rpc_values.extend(zip(self.rpc_codes, self.rpc_shards,
                                   self.rpc_service_times))
        assert len(self.storage_requests) == len(self.storage_values) \
            and n == len(self.storage_refs)
        return super().gather(sources, storage_faults, sessions)

    def reference_blocks(self) -> tuple[dict, dict, dict]:
        """Stored columns of the row tuples the row-tuple sink packed."""
        storage = [(*request[:14], shard, request[14], error_kind, retries)
                   for request, (shard, error_kind, retries)
                   in zip(self.storage_requests, self.storage_values)]
        rpc = [(*request[:5], _RPC_NAMES[code], shard, service_time,
                request[5], request[14])
               for request, (code, shard, service_time)
               in zip(self.rpc_requests, self.rpc_values)]
        return (_pack(_STORAGE_SPEC, storage), _pack(_RPC_SPEC, rpc),
                _pack(_SESSION_SPEC, self.session_rows))


def _serving(sink_of, request_of):
    """Wrap a back-end method so the request it serves tops the stack."""
    def wrap(original):
        def wrapper(self, *args, **kwargs):
            stack = sink_of(self).stack
            request = request_of(self, *args, **kwargs)
            if request is not None:
                stack.append(request)
            try:
                return original(self, *args, **kwargs)
            finally:
                if request is not None:
                    stack.pop()
        return wrapper
    return wrap


def _open_request(self, user_id, session_id, timestamp, ref,
                  force_auth_failure=False):
    return (timestamp, *self.address, user_id, session_id,
            ApiOperation.AUTHENTICATE, *_NO_EVENT,
            self._sink.attack_of[session_id])


def _recording_run(run):
    """Wrap ``ReplayShard.run`` to note each script's attack flag, and the
    reference walk's session rows after it (checking the shard's session
    block and fan-out counters against the walk)."""
    def wrapper(self, table):
        self.sink.attack_of.update(zip(table.session_id.tolist(),
                                       table.caused_by_attack.tolist()))
        outcome = run(self, table)
        self.sink.session_rows = assert_shard_equals_walk(self, table,
                                                          outcome)
        return outcome
    return wrapper


def _event_request(self, handle, row, ref):
    return (row[0], *self.address, handle.user_id,
            handle.session_id, *row[1:])


def _gc_sweep(self, now):
    server, process = self._process.address
    return (_GC, now, server, process)


def _gc_rpc_request(self, rpc, context, *args):
    sink = self._sink
    top = sink.stack[-1:]
    if not top or top[0][0] is not _GC:
        return None
    _, now, server, process = top[0]
    # The swept job's user, from the request the sweep registered.
    user_id = sink._explicit[-context.ref - 1][3]
    return (now, server, process, user_id, 0, None, *_NO_EVENT, False)


@contextmanager
def _row_reference():
    """Replay on the per-record path and record, for every sink built
    inside, the row-tuple reference."""
    process_sink = lambda process: process._sink  # noqa: E731
    patches = [
        (ApiServerProcess, "open_session", process_sink, _open_request),
        (ApiServerProcess, "handle_event", process_sink, _event_request),
        (UploadJobCollector, "collect", lambda c: c._process._sink,
         _gc_sweep),
        (RpcWorker, "execute", lambda w: w._sink, _gc_rpc_request),
    ]
    with ExitStack() as stack:
        stack.enter_context(per_record_path())
        for owner, name, sink_of, request_of in patches:
            stack.enter_context(mock.patch.object(
                owner, name, _serving(sink_of, request_of)(
                    getattr(owner, name))))
        stack.enter_context(recording_dispatch())
        stack.enter_context(mock.patch.object(
            ReplayShard, "run", _recording_run(ReplayShard.run)))
        stack.enter_context(mock.patch.object(
            replay_shard, "TraceSink", _RecordingSink))
        yield


def _assert_outcome_equals_reference(twin: ReplayShard, outcome) -> None:
    storage, rpc, sessions = twin.sink.reference_blocks()
    _assert_block_equals(outcome.storage, storage, "storage")
    _assert_block_equals(outcome.rpc, rpc, "rpc")
    _assert_block_equals(outcome.sessions, sessions, "sessions")


# ---------------------------------------------------------------------------
# Generated scripts through one replay shard
# ---------------------------------------------------------------------------

_COLUMN_VALUES = {
    "operation": st.sampled_from([
        ApiOperation.UPLOAD, ApiOperation.DOWNLOAD, ApiOperation.GET_DELTA,
        ApiOperation.LIST_VOLUMES, ApiOperation.QUERY_SET_CAPS,
        ApiOperation.RESCAN_FROM_SCRATCH, ApiOperation.UNLINK,
        ApiOperation.MAKE, ApiOperation.MOVE]),
    "node_id": st.integers(1, 6),
    "volume_id": st.integers(0, 2),
    "volume_type": st.sampled_from(list(VolumeType)),
    "node_kind": st.sampled_from(list(NodeKind)),
    # Sizes past the 1 KiB chunk below go multipart; interrupted ones leave
    # uploadjobs for the GC sweeps.
    "size_bytes": st.sampled_from([0, 100, 5000]),
    "content_hash": st.sampled_from(["", "h1", "h2"]),
    "extension": st.sampled_from(["", "pdf", "avi"]),
    "is_update": st.booleans(),
}


@st.composite
def _scripts(draw):
    """Scripts mixing varying and constant columns, with empty,
    auth-failed and malformed scripts, on a coarse integer clock so
    timestamps collide across scripts (and with their opens and
    closes)."""
    scripts = []
    for index in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, 12))
        auth_failed = draw(st.integers(0, 5)) == 0
        n = draw(st.integers(0, 5))
        times = sorted(float(draw(st.integers(start, start + 8)))
                       for _ in range(n))
        end = max([float(start)] + times) + draw(st.integers(0, 3))
        if draw(st.integers(0, 9)) == 0:
            # A script the materializer never builds: events past its
            # close, or its close before its open (never taking effect).
            end = float(start + draw(st.integers(-2, 2)))
        columns = {}
        for name, values in _COLUMN_VALUES.items():
            if draw(st.booleans()):
                columns[name] = draw(st.lists(values, min_size=n, max_size=n))
            else:
                columns[name] = draw(values)
        scripts.append(script(
            draw(st.integers(1, 3)), index + 1, float(start), end,
            caused_by_attack=draw(st.booleans()), auth_failed=auth_failed,
            times=times, **columns))
    return scripts


def _fault_plan() -> FaultPlan:
    """The reference incident over the scripts' clock, plus an auth outage
    early enough to deny some of their opens, a second degraded process
    over the whole clock and a window of process 0's that its flapping
    windows overlap (the first covering window inflates an RPC)."""
    plan = default_fault_plan(0.0, 20.0, seed=1)
    return FaultPlan(faults=(
        *plan.faults, AuthOutage(3.0, 6.0),
        DegradedProcess(0.0, 20.0, process_index=1, inflation=2.5),
        DegradedProcess(3.0, 20.0, process_index=0, inflation=1.5)),
        seed=plan.seed)


@st.composite
def _configs(draw):
    faults = draw(st.booleans())
    return ClusterConfig(
        seed=draw(st.integers(0, 3)), api_machines=2, processes_per_machine=2,
        metadata_shards=3, replay_shards=1, multipart_chunk_bytes=1024,
        interrupted_upload_fraction=0.5,
        gc_interval=float(draw(st.integers(1, 4))),
        faults=_fault_plan() if faults else None,
        mitigation=(MitigationPolicy(name="retry", kind="retry",
                                     max_retries=2)
                    if faults and draw(st.booleans()) else
                    MitigationPolicy()))


def _assert_rows_on_user_shard(block: ColumnBlock, n_shards: int,
                               label: str) -> None:
    """Every row of ``block`` hit its user's metadata shard."""
    users, shards = block.cols["user_id"], block.cols["shard_id"]
    assert np.array_equal(shards, users % n_shards), label


@contextmanager
def _twin_checked(checked: list):
    """Check every shard run inside against its per-record twin and the
    twin's row-tuple reference, and that every storage and RPC row
    (fault-rejected storage rows and GC-sweep RPC rows included) hit its
    user's metadata shard; note each twin (its sink holds the reference
    rows) with the outcome's row count."""
    def check(twin, outcome):
        _assert_outcome_equals_reference(twin, outcome)
        for label in ("storage", "rpc"):
            _assert_rows_on_user_shard(getattr(outcome, label),
                                       twin.store.n_shards, label)
        checked.append((twin, outcome.storage.n + outcome.rpc.n
                        + outcome.sessions.n))

    with oracle_checked([], oracle=_row_reference, check=check):
        yield


def _replay_one_shard(config: ClusterConfig, scripts):
    """Replay ``scripts`` through one shard checked against its twin;
    returns ``(twin, outcome)``."""
    schedule = (compile_plan(config.faults,
                             n_processes=len(config.process_addresses()),
                             n_shards=config.metadata_shards)
                if config.faults is not None else None)
    checked = []
    with _twin_checked(checked):
        shard = ReplayShard(config, 0,
                            list(enumerate(config.process_addresses())),
                            U1Cluster(config).shard_factors,
                            fault_schedule=schedule)
        outcome = shard.run(table_of(scripts))
    return checked[0][0], outcome


class TestGatheredBlocksEqualRowReference:
    @settings(max_examples=60, deadline=None)
    @given(_configs(), _scripts())
    def test_generated_scripts(self, config, scripts):
        _replay_one_shard(config, scripts)

    def test_gc_rows_interleave_with_events(self):
        """A fixed case that must produce GC-sweep RPC rows."""
        config = ClusterConfig(seed=0, api_machines=1, processes_per_machine=2,
                               metadata_shards=2, replay_shards=1,
                               multipart_chunk_bytes=1024,
                               interrupted_upload_fraction=0.99,
                               gc_interval=1.0)
        shard, _ = _replay_one_shard(config, self._uploads(6))
        gc_rows = sum(1 for request in shard.sink.rpc_requests
                      if request[5] is None)
        assert shard.collector.sweeps and gc_rows

    def test_failed_and_denied_opens_beside_gc_sweeps(self):
        """A fixed case with forced auth failures, opens an ``AuthOutage``
        denies, GC sweeps and closes of every other session."""
        config = ClusterConfig(seed=0, api_machines=1, processes_per_machine=2,
                               metadata_shards=2, replay_shards=1,
                               multipart_chunk_bytes=1024,
                               interrupted_upload_fraction=0.99,
                               gc_interval=1.0, auth_failure_fraction=0.0,
                               faults=FaultPlan((AuthOutage(3.0, 5.0),)))
        scripts = self._uploads(8)
        scripts[1] = scripts[1]._replace(auth_failed=True)
        scripts[6] = scripts[6]._replace(auth_failed=True,
                                         caused_by_attack=True)
        shard, outcome = _replay_one_shard(config, scripts)
        events = [row[5] for row in shard.sink.session_rows]
        assert events.count(SessionEvent.AUTH_FAIL) == 4
        assert shard.faults.accounting.auth_outage_failures == 2
        assert events.count(SessionEvent.DISCONNECT) == 4
        assert shard.collector.sweeps
        assert outcome.sessions.n == len(events)

    @staticmethod
    def _uploads(n: int) -> list:
        return [script(
            1 + k % 2, k + 1, float(k), float(k + 4),
            times=[float(k), float(k + 1), float(k + 2)],
            operation=[ApiOperation.UPLOAD, ApiOperation.DOWNLOAD,
                       ApiOperation.GET_DELTA],
            node_id=[10 + k, 10 + k, 0], size_bytes=[5000, 5000, 0],
            content_hash=[f"c{k}", f"c{k}", ""]) for k in range(n)]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_perfbench_shapes_at_a_tenth(workload):
    """Every shard block of each benchmark workload's shape, at about a
    tenth of its size, equals its per-record twin's and the row
    reference."""
    small = dataclasses.replace(
        workload, users=max(15, workload.users // 10),
        days=min(workload.days, 1.0),
        attacks=None if workload.attacks is None else tuple(
            {**attack, "session_amplification": 10.0,
             "storage_amplification": 200.0}
            for attack in workload.attacks))
    config = workload_config(small, seed=2014)
    cluster = U1Cluster(cluster_config(small, config))
    checked = []
    with _twin_checked(checked):
        dataset = cluster.replay_plan(
            SyntheticTraceGenerator(config).plan(), n_jobs=1)
    assert len(checked) == cluster.config.effective_replay_shards()
    assert sum(rows for _, rows in checked) == len(dataset) > 0
    assert len(dataset.sessions) > 0


# ---------------------------------------------------------------------------
# Direct callers: one sink, rows in emission order
# ---------------------------------------------------------------------------

def test_direct_calls_and_gc_sweep_keep_emission_order():
    with _row_reference():
        sink = _RecordingSink()
        sink.attack_of.update({1: False, 2: True})
        store = ShardedMetadataStore(n_shards=2)
        latency = ServiceTimeModel(np.random.default_rng(0),
                                   shard_skew_factors(0, 2))
        registry = SessionRegistry()
        auth = AuthenticationService(rng=np.random.default_rng(0),
                                     failure_fraction=0.0)
        objects = ObjectStore(chunk_bytes=1024)
        processes = [ApiServerProcess(
            address=ProcessAddress("api0", p),
            metadata_store=store, rpc_worker=RpcWorker(p, latency, sink),
            object_store=objects, auth=auth, registry=registry,
            sink=sink, rng=np.random.default_rng(p),
            interrupted_upload_fraction=1.0) for p in range(2)]
        collector = UploadJobCollector(store, processes[0], interval=1.0)
        first, second = processes
        alice = open_session(first, 1, 1, 1.0)
        # An interrupted multipart upload leaves an uploadjob to sweep.
        send_event(first, alice, event_row(ApiOperation.UPLOAD, 2.0, size=5000))
        bob = open_session(second, 2, 2, 3.0, caused_by_attack=True)
        collector.collect(4.0)
        send_event(second, bob, event_row(ApiOperation.DOWNLOAD, 5.0,
                                          node_id=11, size=100,
                                          content_hash="h2"))
        send_event(first, alice, event_row(ApiOperation.GET_DELTA, 6.0,
                                           node_id=0, size=0, content_hash=""))
        collector.collect(7.0)
        dataset = sink.dataset
    assert collector.sweeps == 2
    storage, rpc, _ = sink.reference_blocks()
    _assert_block_equals(ColumnBlock.from_stream(dataset._storage), storage,
                         "storage")
    _assert_block_equals(ColumnBlock.from_stream(dataset._rpc), rpc, "rpc")
    # Emission order, spelled out: the sweep's RPCs (no API operation) sit
    # between the second open's and the download's.
    operations = [r.api_operation for r in dataset.rpc]
    first_gc = operations.index(None)
    assert ApiOperation.AUTHENTICATE in operations[:first_gc]
    assert operations[first_gc - 1] is ApiOperation.AUTHENTICATE
    assert dataset.rpc[first_gc].user_id == 1
    assert [r.timestamp for r in dataset.rpc] == \
        sorted(r.timestamp for r in dataset.rpc)
    assert [r.operation for r in dataset.storage] == [
        ApiOperation.UPLOAD, ApiOperation.DOWNLOAD, ApiOperation.GET_DELTA]
    assert [r.server for r in dataset.rpc][:first_gc] == ["api0"] * first_gc
    assert [r.process for r in dataset.storage] == [0, 1, 0]
    # Session rows are built by a replay shard only.
    assert not dataset.sessions


def test_session_rows_of_the_same_sessions_replayed():
    """The direct calls' two sessions, replayed through one shard: each
    session's rows carry its open's request, the closes theirs."""
    config = ClusterConfig(seed=0, api_machines=1, processes_per_machine=2,
                           metadata_shards=2, replay_shards=1,
                           multipart_chunk_bytes=1024,
                           interrupted_upload_fraction=0.99, gc_interval=1.0,
                           auth_failure_fraction=0.0)
    alice = script(1, 1, 1.0, 8.0, times=[2.0, 6.0],
                   operation=[ApiOperation.UPLOAD, ApiOperation.GET_DELTA],
                   node_id=[10, 0], size_bytes=[5000, 0],
                   content_hash=["h1", ""])
    bob = script(2, 2, 3.0, 9.0, caused_by_attack=True, times=[5.0],
                 operation=ApiOperation.DOWNLOAD, node_id=11, size_bytes=100,
                 content_hash="h2")
    checked = []
    with _twin_checked(checked):
        _, dataset = replay_scripts(config, [alice, bob])
    shard = checked[0][0]
    assert shard.collector.sweeps
    assert len(dataset.sessions) == 8
    assert [(r.event, r.timestamp) for r in dataset.sessions][-2:] == [
        (SessionEvent.DISCONNECT, 8.0), (SessionEvent.DISCONNECT, 9.0)]
    assert dataset.sessions[-1].caused_by_attack
    assert dataset.sessions[-1].session_length == 6.0


# ---------------------------------------------------------------------------
# Factor-stream refills inside a counted run and inside a block draw
# ---------------------------------------------------------------------------

class TestRefillsInsideRuns:
    """Pinned cases where the latency model draws a new factor block inside
    a run of downloads the loop only counts, and inside an RPC block draw
    (a multipart upload's parts); both against the per-record twin."""

    @staticmethod
    def _config(**overrides) -> ClusterConfig:
        return ClusterConfig(**{
            "seed": 0, "api_machines": 1, "processes_per_machine": 2,
            "metadata_shards": 2, "replay_shards": 1,
            "auth_failure_fraction": 0.0, "interrupted_upload_fraction": 0.0,
            **overrides})

    def test_download_run_crosses_a_refill(self):
        n = 9000
        session = script(
            1, 1, 0.5, 11.0, times=[1.0 + k / 1000 for k in range(n)] + [10.5],
            operation=[ApiOperation.DOWNLOAD] * n + [ApiOperation.GET_DELTA],
            node_id=[10] * n + [0], size_bytes=100,
            content_hash=["h1"] * n + [""])
        twin, outcome = _replay_one_shard(self._config(), [session])
        # The open's three RPCs, then the run's 9,000 factors, taken as
        # single draws would take them (a 4,096-factor block each time one
        # runs out), then the GetDelta's.
        assert outcome.rpc.n == 3 + n + 1
        assert [len(block) for block in twin.latency._blocks] == [4096] * 3
        assert twin.objects.accounting.get_requests == n

    def test_block_draw_crosses_a_refill(self):
        parts = 9000
        session = script(
            1, 1, 0.5, 9.0, times=[1.0, 2.0, 3.0, 4.0, 5.0],
            operation=[ApiOperation.DOWNLOAD, ApiOperation.UPLOAD,
                       ApiOperation.DOWNLOAD, ApiOperation.DOWNLOAD,
                       ApiOperation.GET_DELTA],
            node_id=[10, 11, 11, 10, 0],
            size_bytes=[100, parts * 1024, parts * 1024, 100, 0],
            content_hash=["h1", "big", "big", "h1", ""])
        twin, outcome = _replay_one_shard(
            self._config(multipart_chunk_bytes=1024), [session])
        # Eight factors went first (the open's three, the download's, the
        # upload's four before its parts); the parts' block took what the
        # first block had left and drew one block of the rest.
        assert [len(block) for block in twin.latency._blocks][:2] == [
            4096, parts - (4096 - 8)]
        assert outcome.rpc.n == 3 + 1 + 4 + parts + 2 + 2 + 1
