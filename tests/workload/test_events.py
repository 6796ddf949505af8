"""Unit tests for repro.workload.events (the script table)."""

from __future__ import annotations

import numpy as np

from repro.backend.cluster import ClusterConfig
from repro.backend.replay_shard import ReplayShard
from repro.trace.dataset import OPERATION_CODE
from repro.trace.records import ApiOperation, SessionEvent
from repro.workload.events import EVENT_FIELDS, ScriptTable
from tests.backend.reference_dispatch import dispatch_rows
from tests.conftest import replay_scripts, script, scripts_of, table_of


def _disconnect_storage_operations(scripts) -> int:
    """The ``storage_operations`` the replay traces when the script closes."""
    _, dataset = replay_scripts(ClusterConfig(seed=1), scripts)
    (record,) = [r for r in dataset.sessions
                 if r.event is SessionEvent.DISCONNECT]
    return record.storage_operations


def _session():
    return script(1, 7, 100.0, 400.0, times=[110.0, 120.0, 130.0],
                  operation=[ApiOperation.LIST_VOLUMES, ApiOperation.MAKE,
                             ApiOperation.UPLOAD],
                  node_id=[0, 3, 3], volume_id=[0, 1, 1], size_bytes=[0, 0, 5],
                  content_hash=["", "", "h3"])


def _mixed():
    """Scripts out of canonical order, one failed and one without events."""
    return [
        script(4, 9, 50.0, 60.0, times=[51.0, 52.0],
               operation=[ApiOperation.UPLOAD, ApiOperation.DOWNLOAD],
               node_id=[3, 3], size_bytes=100, content_hash="h1",
               extension=".pdf"),
        script(2, 3, 10.0, 20.0, auth_failed=True),
        script(5, 2, 50.0, 55.0, caused_by_attack=True, times=[50.0],
               operation=ApiOperation.DOWNLOAD, content_hash="h2",
               extension="avi"),
        script(1, 1, 30.0, 31.0),
    ]


class TestScriptTable:
    def test_columns_and_offsets(self):
        table = table_of([_session()])
        assert len(table) == 1 and table.n_events == 3
        assert table.offsets.tolist() == [0, 3]
        assert table.operation.dtype == np.int16
        assert table.operation.tolist() == [
            OPERATION_CODE[ApiOperation.LIST_VOLUMES],
            OPERATION_CODE[ApiOperation.MAKE],
            OPERATION_CODE[ApiOperation.UPLOAD]]
        assert table.content_hash[0].dtype == np.int32
        assert table.content_hash[1] == ["", "h3"]
        assert float(table.end[0] - table.start[0]) == 300.0

    def test_rows_round_trip(self):
        scripts = _mixed()
        assert scripts_of(table_of(scripts)) == scripts

    def test_empty_table(self):
        table = ScriptTable.empty()
        assert len(table) == 0 and table.n_events == 0
        assert scripts_of(table) == []
        assert scripts_of(ScriptTable.concat([table, table])) == []

    def test_take_sorted_and_concat(self):
        scripts = _mixed()
        table = table_of(scripts)
        assert scripts_of(table.take([3, 0, 2])) == \
            [scripts[3], scripts[0], scripts[2]]
        assert scripts_of(table.sorted()) == sorted(
            scripts, key=lambda s: (s.start, s.session_id))
        halves = [table_of(scripts[:2]), table_of(scripts[2:])]
        assert scripts_of(ScriptTable.concat(halves)) == scripts

    def test_storage_operation_count_excludes_maintenance(self):
        # ListVolumes is maintenance; Make and Upload are data management.
        assert _disconnect_storage_operations([_session()]) == 2

    def test_cold_session_is_not_active(self):
        assert _disconnect_storage_operations(
            [script(1, 1, 0.0, 10.0)]) == 0


class TestDispatchRows:
    @staticmethod
    def _dispatch_rows(scripts):
        """The rows a replay shard dispatches, in script order, each
        download's (which the shard serves from its columns) the
        per-record path's."""
        table = table_of(scripts)
        rows = ReplayShard._build_timeline(table)[-1]
        full = dispatch_rows(table)
        n = len(table)
        assert [row is None for row in rows[n:]] == [
            row[1] is ApiOperation.DOWNLOAD for row in full[n:]]
        return [row or full[j] for j, row in enumerate(rows) if j >= n]

    def test_rows_equal_decoded_events(self):
        scripts = _mixed()
        rows = self._dispatch_rows(scripts)
        events = [e for s in scripts for e in s.events]
        assert len(rows) == len(events) == 3
        for row, event in zip(rows, events):
            assert row == (event.time, event.operation, event.node_id,
                           event.volume_id, event.volume_type,
                           event.node_kind, event.size_bytes,
                           event.content_hash, event.extension,
                           event.is_update, event.caused_by_attack)
            # Enum members, not codes: handle_event compares by identity.
            assert row[1] is event.operation
            assert not any(isinstance(value, np.generic) for value in row)

    def test_constant_columns_broadcast(self):
        rows = self._dispatch_rows([script(
            1, 1, 0.0, 5.0, caused_by_attack=True, times=[1.0, 2.0, 3.0],
            operation=ApiOperation.UPLOAD, size_bytes=7)])
        assert [row[6] for row in rows] == [7, 7, 7]
        assert all(row[1] is ApiOperation.UPLOAD and row[10] for row in rows)
        assert len(rows[0]) == len(EVENT_FIELDS) + 1
