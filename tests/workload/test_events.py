"""Unit tests for repro.workload.events."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.backend.replay_shard import ReplayShard
from repro.trace.records import ApiOperation
from repro.workload.events import ClientEvent, EventBlock, SessionScript


class TestClientEvent:
    def test_transfer_flag(self):
        upload = ClientEvent(time=0.0, user_id=1, session_id=1,
                             operation=ApiOperation.UPLOAD, size_bytes=10)
        listing = ClientEvent(time=0.0, user_id=1, session_id=1,
                              operation=ApiOperation.LIST_VOLUMES)
        assert upload.is_transfer
        assert not listing.is_transfer

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ClientEvent(time=0.0, user_id=1, session_id=1,
                        operation=ApiOperation.UPLOAD, size_bytes=-1)


class TestSessionScript:
    def _script(self) -> SessionScript:
        block = EventBlock.from_events([
            ClientEvent(time=110.0, user_id=1, session_id=7,
                        operation=ApiOperation.LIST_VOLUMES),
            ClientEvent(time=120.0, user_id=1, session_id=7,
                        operation=ApiOperation.UPLOAD, size_bytes=5),
            ClientEvent(time=130.0, user_id=1, session_id=7,
                        operation=ApiOperation.UNLINK, node_id=3),
        ])
        return SessionScript(user_id=1, session_id=7, start=100.0, end=400.0,
                             block=block)

    def test_length(self):
        assert self._script().length == 300.0

    def test_storage_operation_count_excludes_maintenance(self):
        script = self._script()
        assert script.storage_operation_count == 2
        assert script.is_active

    def test_cold_session_is_not_active(self):
        script = SessionScript(user_id=1, session_id=1, start=0.0, end=10.0)
        assert not script.is_active
        assert script.storage_operation_count == 0

    def test_iteration_and_len(self):
        script = self._script()
        assert len(script) == 3
        assert [e.operation for e in script] == [
            ApiOperation.LIST_VOLUMES, ApiOperation.UPLOAD, ApiOperation.UNLINK]


class TestEventBlock:
    def _events(self):
        return [
            ClientEvent(time=10.0, user_id=4, session_id=9,
                        operation=ApiOperation.UPLOAD, node_id=3,
                        volume_id=-4, size_bytes=100, content_hash="h1",
                        extension=".pdf", is_update=False),
            ClientEvent(time=11.0, user_id=4, session_id=9,
                        operation=ApiOperation.DOWNLOAD, node_id=3,
                        volume_id=-4, size_bytes=100, content_hash="h1",
                        extension=".pdf"),
            ClientEvent(time=12.5, user_id=4, session_id=9,
                        operation=ApiOperation.GET_DELTA),
        ]

    def test_from_events_to_events_round_trip(self):
        events = self._events()
        block = EventBlock.from_events(events)
        assert block.to_events(4, 9) == events
        assert len(block) == 3

    @staticmethod
    def _dispatch_rows(block):
        """The rows a replay shard dispatches for a one-script shard."""
        script = SessionScript(user_id=4, session_id=9, start=0.0, end=20.0,
                               block=block)
        return [row for row in ReplayShard._build_timeline([script])[-1]
                if row is not None]

    def test_rows_match_hydrated_events(self):
        block = EventBlock.from_events(self._events())
        rows = self._dispatch_rows(block)
        hydrated = block.to_events(4, 9)
        assert len(rows) == len(hydrated)
        for row, event in zip(rows, hydrated):
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
        events = block.to_events(1, 2)
        assert [e.operation for e in events] == [ApiOperation.UPLOAD] * 3
        assert [e.size_bytes for e in events] == [7, 7, 7]
        assert all(e.caused_by_attack for e in events)
        rows = self._dispatch_rows(block)
        assert [row[6] for row in rows] == [7, 7, 7]
        assert all(row[1] is ApiOperation.UPLOAD and row[10] for row in rows)

    def test_script_block_properties_without_hydration(self):
        block = EventBlock.from_events(self._events())
        script = SessionScript(user_id=4, session_id=9, start=0.0, end=20.0,
                               block=block)
        # None of these decode ClientEvent objects from the block.
        with mock.patch.object(EventBlock, "to_events",
                               side_effect=AssertionError("hydrated")):
            assert script.n_events == 3
            assert len(script) == 3
            # GET_DELTA is maintenance, not a data-management operation.
            assert script.storage_operation_count == 2
        assert script.events[0].operation is ApiOperation.UPLOAD  # hydrates
