"""Property tests for the replay shard's per-session fixed costs.

Two hot-path structures are checked against brute-force references kept
here:

* the shard timeline: built with NumPy passes over the shard's script
  table, it must order the records exactly as the historical per-script
  insertion-order sort does (opens, then each script's events, then its
  close, stably sorted by timestamp and record kind), and dispatch every
  event the row its script's events give;
* the mutation fan-out: the session registry's per-process counts must
  split a mutation's other open sessions into local and remote pushes
  exactly as a scan of the user's sessions does, and the notification bus
  must count the same publishes, deliveries, pushes and short circuits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend.api_server import ApiServerProcess, SessionRegistry
from repro.backend.auth import AuthenticationService
from repro.backend.datastore import ObjectStore
from repro.backend.gateway import ProcessAddress
from repro.backend.latency import ServiceTimeModel, shard_skew_factors
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.notifications import NotificationBus
from repro.backend.protocol.entities import SessionHandle
from repro.backend.replay_shard import ReplayShard
from repro.backend.rpc_server import RpcWorker
from repro.backend.tracing import TraceSink
from repro.trace.records import ApiOperation, NodeKind, VolumeType
from tests.conftest import event_row, open_session, script, send_event, table_of

# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------

_OPEN, _EVENT, _CLOSE = ReplayShard._OPEN, ReplayShard._EVENT, ReplayShard._CLOSE


def reference_sequence(scripts) -> list[tuple]:
    """``(kind, script index, dispatch row)`` per record in replay order,
    from the historical per-script insertion-order sort: each script adds
    its open, its events and its close, and one stable sort by (timestamp,
    kind) keeps insertion order among ties."""
    records = []
    for index, s in enumerate(scripts):
        records.append((s.start, _OPEN, index, None))
        records.extend((e.time, _EVENT, index, (
            e.time, e.operation, e.node_id, e.volume_id, e.volume_type,
            e.node_kind, e.size_bytes, e.content_hash, e.extension,
            e.is_update, s.caused_by_attack)) for e in s.events)
        records.append((s.end, _CLOSE, index, None))
    records.sort(key=lambda record: (record[0], record[1]))
    return [record[1:] for record in records]


_COLUMN_VALUES = {
    "operation": st.sampled_from([ApiOperation.UPLOAD, ApiOperation.DOWNLOAD,
                                  ApiOperation.GET_DELTA,
                                  ApiOperation.UNLINK]),
    "node_id": st.integers(0, 5),
    "volume_id": st.integers(-3, 3),
    "volume_type": st.sampled_from(list(VolumeType)),
    "node_kind": st.sampled_from(list(NodeKind)),
    "size_bytes": st.integers(0, 1000),
    "content_hash": st.sampled_from(["", "h1", "h2"]),
    "extension": st.sampled_from(["", "pdf", "avi"]),
    "is_update": st.booleans(),
}


@st.composite
def _scripts(draw):
    """Scripts mixing varying and constant columns, with empty and
    auth-failed scripts, on a coarse integer clock so timestamps collide
    across scripts, with their own opens and closes and with other scripts'
    records of every kind."""
    scripts = []
    for index in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, 6))
        auth_failed = draw(st.integers(0, 4)) == 0
        n = 0 if auth_failed else draw(st.integers(0, 4))
        times = sorted(float(draw(st.integers(start, start + 6)))
                       for _ in range(n))
        end = max([float(start)] + times) + draw(st.integers(0, 3))
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


def _sequence(scripts) -> list[tuple]:
    """``(kind, script index, dispatch row)`` per record in the order the
    shard's NumPy timeline replays them."""
    order, ts_col, kind_col, script_col, rows = \
        ReplayShard._build_timeline(table_of(scripts))
    assert len(order) == len(ts_col) == len(kind_col) == len(script_col)
    assert sorted(order) == list(range(len(order)))
    # Opens and events index the dispatch rows; closes lie past their end.
    assert len(rows) == len(order) - len(scripts)
    return [(kind_col[j], script_col[j],
             rows[j] if kind_col[j] == _EVENT else None) for j in order]


class TestShardTimeline:
    @settings(max_examples=150, deadline=None)
    @given(_scripts())
    def test_shard_rows_and_order_equal_per_script_reference(self, scripts):
        assert _sequence(scripts) == reference_sequence(scripts)

    def test_equal_timestamps_open_before_events_before_closes(self):
        scripts = [
            script(1, 1, 5.0, 5.0, times=[5.0],
                   operation=ApiOperation.GET_DELTA),
            script(2, 2, 5.0, 6.0, times=[5.0, 5.0],
                   operation=[ApiOperation.UPLOAD, ApiOperation.DOWNLOAD]),
        ]
        sequence = _sequence(scripts)
        assert [(kind, index) for kind, index, _ in sequence] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (2, 0), (2, 1)]
        assert [row[1] for _, _, row in sequence if row is not None] == [
            ApiOperation.GET_DELTA, ApiOperation.UPLOAD, ApiOperation.DOWNLOAD]


# ---------------------------------------------------------------------------
# Mutation fan-out
# ---------------------------------------------------------------------------

_ADDRESSES = [ProcessAddress("api0", 0), ProcessAddress("api0", 1),
              ProcessAddress("api1", 0)]


def _ops(users: int, sessions: int):
    """Lists of ``("open", user, session, process)``, ``("close",
    session)`` and ``("mutate", session, process)`` operations."""
    return st.lists(st.one_of(
        st.tuples(st.just("open"), st.integers(1, users),
                  st.integers(1, sessions), st.integers(0, 2)),
        st.tuples(st.just("close"), st.integers(1, sessions)),
        st.tuples(st.just("mutate"), st.integers(1, sessions),
                  st.integers(0, 2)),
    ), max_size=40)


def _scan(placed: dict[int, tuple[int, ProcessAddress]], user_id: int,
          session_id: int, address: ProcessAddress) -> tuple[int, int]:
    """Local/remote split by a scan of every open session (``session id ->
    (user, process)``)."""
    others = [other for other, (user, other_address) in placed.items()
              if user == user_id and other != session_id]
    local = sum(1 for other in others if placed[other][1] == address)
    return local, len(others) - local


class TestFanOut:
    @settings(max_examples=200, deadline=None)
    @given(_ops(users=3, sessions=8), st.integers(1, 3))
    def test_registry_split_equals_a_scan(self, ops, probe_user):
        registry = SessionRegistry()
        placed: dict[int, tuple[int, ProcessAddress]] = {}
        for op in ops:
            if op[0] == "open":
                _, user_id, session_id, p = op
                # A re-registered session id moves (possibly to a new user).
                if session_id in placed:
                    registry.unregister(placed[session_id][0], session_id)
                placed[session_id] = (user_id, _ADDRESSES[p])
                registry.register(user_id, session_id, _ADDRESSES[p])
            elif op[0] == "close":
                user_id = placed.pop(op[1], (probe_user,))[0]
                registry.unregister(user_id, op[1])
            for user_id in {probe_user, *(u for u, _ in placed.values())}:
                for session_id in range(1, 9):
                    for address in _ADDRESSES:
                        assert registry.fellow_sessions(
                            user_id, session_id, address) == \
                            _scan(placed, user_id, session_id, address)

    @settings(max_examples=100, deadline=None)
    @given(_ops(users=2, sessions=5))
    def test_bus_counters_equal_brute_force(self, ops):
        sink = TraceSink()
        store = ShardedMetadataStore(n_shards=2)
        objects = ObjectStore()
        auth = AuthenticationService(rng=np.random.default_rng(0),
                                     failure_fraction=0.0)
        bus = NotificationBus()
        registry = SessionRegistry()
        latency = ServiceTimeModel(np.random.default_rng(0),
                                   shard_skew_factors(0, 2))
        processes = [
            ApiServerProcess(
                address=address, metadata_store=store,
                rpc_worker=RpcWorker(i, latency, sink),
                object_store=objects, auth=auth, bus=bus, registry=registry,
                sink=sink, rng=np.random.default_rng(i))
            for i, address in enumerate(_ADDRESSES)]
        open_sessions: dict[int, tuple[int, int]] = {}  # session -> (user, p)
        handles: dict[int, SessionHandle] = {}
        expected = {"published": 0, "deliveries": 0, "pushes": 0,
                    "short_circuits": 0}
        pushed = [0] * len(processes)
        clock = 0.0
        for op in ops:
            clock += 1.0
            if op[0] == "open":
                _, user_id, session_id, p = op
                if session_id in open_sessions:
                    continue
                handles[session_id] = open_session(processes[p], user_id,
                                                   session_id, clock)
                open_sessions[session_id] = (user_id, p)
            elif op[0] == "close":
                if op[1] in open_sessions:
                    _, p = open_sessions.pop(op[1])
                    processes[p].close_session(op[1], clock)
            else:
                _, session_id, p = op
                if session_id in open_sessions:
                    # Sessions are pinned: the holder handles the request.
                    user_id, p = open_sessions[session_id]
                    handle = handles[session_id]
                else:
                    user_id = 1  # a request from a session that is not open
                    handle = SessionHandle(session_id, user_id, clock,
                                           *store.shard_and_id(user_id))
                others = [q for s, (u, q) in open_sessions.items()
                          if u == user_id and s != session_id]
                local = others.count(p)
                remote = len(others) - local
                expected["short_circuits"] += local
                expected["pushes"] += local
                if remote:
                    expected["published"] += 1
                    expected["deliveries"] += len(processes) - 1
                    for q in range(len(processes)):
                        if q != p:
                            on_q = sum(1 for u, r in open_sessions.values()
                                       if u == user_id and r == q)
                            pushed[q] += on_q
                            expected["pushes"] += on_q
                pushes = bus.pushes
                send_event(processes[p], handle, event_row(
                    ApiOperation.UPLOAD, timestamp=clock, node_id=int(clock),
                    volume_id=-user_id, size=100,
                    content_hash=f"h{int(clock)}"))
                # The upload succeeded and notified every other session.
                assert bus.pushes - pushes == local + sum(
                    1 for s, (u, q) in open_sessions.items()
                    if u == user_id and s != session_id and q != p)
        assert {"published": bus.published, "deliveries": bus.deliveries,
                "pushes": bus.pushes,
                "short_circuits": bus.short_circuits} == expected
        assert [proc.notifications_pushed for proc in processes] == pushed
