"""Unit tests for repro.workload.events."""

from __future__ import annotations

from repro.backend.cluster import ClusterConfig
from repro.backend.replay_shard import ReplayShard
from repro.trace.records import ApiOperation, SessionEvent
from repro.workload.events import EventBlock, SessionScript
from tests.conftest import events_of, replay_scripts


def _disconnect_storage_operations(script: SessionScript) -> int:
    """The ``storage_operations`` the replay traces when ``script`` closes."""
    _, dataset = replay_scripts(ClusterConfig(seed=1), [script])
    (record,) = [r for r in dataset.sessions
                 if r.event is SessionEvent.DISCONNECT]
    return record.storage_operations


class TestSessionScript:
    def _script(self) -> SessionScript:
        block = EventBlock(times=[110.0, 120.0, 130.0],
                           operations=[ApiOperation.LIST_VOLUMES,
                                       ApiOperation.MAKE, ApiOperation.UPLOAD],
                           node_ids=[0, 3, 3], volume_ids=[0, 1, 1],
                           size_bytes=[0, 0, 5],
                           content_hashes=["", "", "h3"])
        return SessionScript(user_id=1, session_id=7, start=100.0, end=400.0,
                             block=block)

    def test_length(self):
        assert self._script().length == 300.0

    def test_storage_operation_count_excludes_maintenance(self):
        # ListVolumes is maintenance; Make and Upload are data management.
        assert _disconnect_storage_operations(self._script()) == 2

    def test_cold_session_is_not_active(self):
        script = SessionScript(user_id=1, session_id=1, start=0.0, end=10.0)
        assert _disconnect_storage_operations(script) == 0

    def test_iteration_and_len(self):
        script = self._script()
        assert len(script) == 3
        assert [e.operation for e in events_of(script)] == [
            ApiOperation.LIST_VOLUMES, ApiOperation.MAKE, ApiOperation.UPLOAD]


class TestEventBlock:
    @staticmethod
    def _block() -> EventBlock:
        return EventBlock(times=[10.0, 11.0, 12.5],
                          operations=[ApiOperation.UPLOAD,
                                      ApiOperation.DOWNLOAD,
                                      ApiOperation.GET_DELTA],
                          node_ids=[3, 3, 0], volume_ids=[-4, -4, 0],
                          size_bytes=[100, 100, 0],
                          content_hashes=["h1", "h1", ""],
                          extensions=[".pdf", ".pdf", ""],
                          is_updates=[False, False, False])

    @staticmethod
    def _script(block: EventBlock) -> SessionScript:
        return SessionScript(user_id=4, session_id=9, start=0.0, end=20.0,
                             block=block)

    @classmethod
    def _dispatch_rows(cls, block):
        """The rows a replay shard dispatches for a one-script shard."""
        return [row for row in
                ReplayShard._build_timeline([cls._script(block)])[-1]
                if row is not None]

    def test_rows_match_hydrated_events(self):
        block = self._block()
        rows = self._dispatch_rows(block)
        events = events_of(self._script(block))
        assert len(rows) == len(events) == 3
        for row, event in zip(rows, events):
            (t, op, node_id, volume_id, volume_type, node_kind, size,
             content_hash, extension, is_update, attack) = row
            assert (t, op, node_id, volume_id, volume_type, node_kind,
                    size, content_hash, extension, is_update, attack) == (
                event.time, event.operation, event.node_id, event.volume_id,
                event.volume_type, event.node_kind, event.size_bytes,
                event.content_hash, event.extension, event.is_update,
                event.caused_by_attack)

    def test_scalar_columns_broadcast(self):
        block = EventBlock(times=[1.0, 2.0, 3.0],
                           operations=ApiOperation.UPLOAD,
                           size_bytes=7, caused_by_attack=True)
        events = events_of(self._script(block))
        assert [e.operation for e in events] == [ApiOperation.UPLOAD] * 3
        assert [e.size_bytes for e in events] == [7, 7, 7]
        assert all(e.caused_by_attack for e in events)
        rows = self._dispatch_rows(block)
        assert [row[6] for row in rows] == [7, 7, 7]
        assert all(row[1] is ApiOperation.UPLOAD and row[10] for row in rows)

    def test_script_block_properties_without_hydration(self):
        script = self._script(self._block())
        assert script.n_events == 3
        assert len(script) == 3
        assert events_of(script)[0].operation is ApiOperation.UPLOAD
