"""Property tests for the replay shard's per-session fixed costs.

Two hot-path structures are checked against brute-force references kept
here:

* the shard timeline: built with NumPy passes over the shard's script
  table, it must order the records exactly as the historical per-script
  insertion-order sort does (opens, then each script's events, then its
  close, stably sorted by timestamp and record kind), mark every download
  as one, and dispatch every other event the row its script's events give
  (a download's row is the per-record path's, which the loop reads from
  the columns instead);
* the mutation fan-out: the session registry's interval pass over the
  timeline ranks must split a mutation's other open sessions into local
  and remote pushes exactly as a scan of the sessions open at its rank
  does, and the notification bus must count the same publishes,
  deliveries, pushes and short circuits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend.api_server import SessionRegistry, SessionSpans
from repro.backend.notifications import NotificationBus
from repro.backend.replay_shard import ReplayShard
from repro.trace.records import ApiOperation, NodeKind, VolumeType
from tests.backend.reference_dispatch import dispatch_rows
from tests.conftest import script, table_of

# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------

_OPEN, _EVENT, _CLOSE, _DOWNLOAD = (ReplayShard._OPEN, ReplayShard._EVENT,
                                    ReplayShard._CLOSE, ReplayShard._DOWNLOAD)


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
    shard's NumPy timeline replays them, a download as an event with the
    per-record path's row."""
    table = table_of(scripts)
    order, rank, ts_col, kind_col, script_col, rows = \
        ReplayShard._build_timeline(table)
    assert len(order) == len(ts_col) == len(kind_col) == len(script_col)
    assert sorted(order) == list(range(len(order)))
    assert [rank[j] for j in order] == list(range(len(order)))
    # Opens and events index the dispatch rows; closes lie past their end.
    assert len(rows) == len(order) - len(scripts)
    # Downloads are their own kind, with no dispatch row.
    full = dispatch_rows(table)
    for j, kind in enumerate(kind_col[:len(rows)]):
        if kind != _OPEN:
            assert (kind == _DOWNLOAD) \
                == (full[j][1] is ApiOperation.DOWNLOAD)
            assert (rows[j] is None) == (kind == _DOWNLOAD)
    return [(_EVENT if kind_col[j] == _DOWNLOAD else kind_col[j],
             script_col[j],
             None if kind_col[j] in (_OPEN, _CLOSE)
             else rows[j] if kind_col[j] == _EVENT else full[j])
            for j in order]


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

_PROCESSES = 3


@st.composite
def _timelines(draw):
    """Scripts of three users on a coarse integer clock (opens, events and
    closes tie across scripts), each on a drawn process, established or
    denied, with a drawn subset of its events succeeding as mutations."""
    scripts = []
    for index in range(draw(st.integers(0, 10))):
        start = draw(st.integers(0, 6))
        times = sorted(float(draw(st.integers(start, start + 6)))
                       for _ in range(draw(st.integers(0, 4))))
        end = max([float(start)] + times) + draw(st.integers(0, 3))
        scripts.append(script(draw(st.integers(1, 3)), index + 1,
                              float(start), end, times=times))
    n = len(scripts)
    processes = draw(st.lists(st.integers(0, _PROCESSES - 1), min_size=n,
                              max_size=n))
    established = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mutate = draw(st.lists(st.booleans(), min_size=sum(
        s.n_events for s in scripts), max_size=sum(s.n_events
                                                   for s in scripts)))
    return scripts, processes, established, mutate


def _scan(placed: dict[int, tuple[int, int]], user_id: int,
          session_id: int, process: int) -> tuple[int, int]:
    """Local/remote split by a scan of every open session (``session id ->
    (user, process)``)."""
    others = [other for other, (user, other_process) in placed.items()
              if user == user_id and other != session_id]
    local = sum(1 for other in others if placed[other][1] == process)
    return local, len(others) - local


class TestFanOut:
    """The registry's interval pass splits each mutation's other open
    sessions into local and remote pushes exactly as a scan of the
    sessions open at its rank does, and counts the same publishes,
    deliveries, pushes and short circuits as a brute-force bus."""

    @settings(max_examples=300, deadline=None)
    @given(_timelines())
    def test_bus_counters_equal_brute_force(self, timeline):
        scripts, processes, established, mutate = timeline
        table = table_of(scripts)
        order, rank, _, _, script_col, _ = ReplayShard._build_timeline(table)
        n, m = len(table), table.n_events
        opened, closed = rank[:n], rank[n + m:]
        # Every event lies inside its script, so an established session
        # dispatches all of its events.
        mutations = [j for j in order
                     if n <= j < n + m and mutate[j - n]
                     and established[script_col[j]]]
        registry = SessionRegistry()
        registry.mutations.extend(mutations)
        bus = NotificationBus()
        spans = SessionSpans(table.user_id,
                             np.asarray(processes, dtype=np.int64),
                             opened, np.where(established, closed, opened))
        pushed = registry.fan_out(spans, rank,
                                  np.asarray(script_col[:n + m],
                                             dtype=np.int64),
                                  _PROCESSES, bus)

        expected = {"published": 0, "deliveries": 0, "pushes": 0,
                    "short_circuits": 0}
        expected_pushed = [0] * _PROCESSES
        for j in mutations:
            placed = {index: (s.user_id, processes[index])
                      for index, s in enumerate(scripts)
                      if established[index]
                      and opened[index] < rank[j] < closed[index]}
            index = script_col[j]
            user_id, p = scripts[index].user_id, processes[index]
            assert index in placed
            local, remote = _scan(placed, user_id, index, p)
            expected["short_circuits"] += local
            expected["pushes"] += local
            if remote:
                expected["published"] += 1
                expected["deliveries"] += _PROCESSES - 1
                for q in range(_PROCESSES):
                    if q != p:
                        on_q = sum(1 for u, r in placed.values()
                                   if u == user_id and r == q)
                        expected_pushed[q] += on_q
                        expected["pushes"] += on_q
        assert {"published": bus.published, "deliveries": bus.deliveries,
                "pushes": bus.pushes,
                "short_circuits": bus.short_circuits} == expected
        assert pushed.tolist() == expected_pushed
