"""Unit tests of :mod:`repro.util.telemetry`.

The event-log, span and shard-progress primitives in isolation; the
pipeline wiring (digest invariance, heartbeats, chaos event sequences,
manifest metrics) lives in ``tests/backend/test_telemetry_integration.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.util import telemetry
from repro.util.telemetry import (
    EVENTS_NAME,
    EventLog,
    ShardProgress,
    find_events_file,
    read_events,
)


class TestSpans:
    def test_span_mirrors_into_event_log(self, tmp_path):
        events = EventLog(tmp_path / EVENTS_NAME)
        with events.span("merge"):
            pass
        events.close()
        names = [e["event"] for e in read_events(tmp_path / EVENTS_NAME)]
        assert names == ["span-open", "span-close"]

    def test_span_close_carries_duration_rss_and_tags(self, tmp_path):
        events = EventLog(tmp_path / EVENTS_NAME)
        with events.span("replay", n_shards=3):
            pass
        events.close()
        opened, closed = read_events(tmp_path / EVENTS_NAME)
        assert list(opened) == ["ts", "event", "name", "n_shards"]
        assert list(closed) == ["ts", "event", "name", "seconds",
                                "peak_rss_mb", "n_shards"]
        assert closed["name"] == "replay" and closed["n_shards"] == 3
        assert closed["seconds"] >= 0.0
        assert closed["peak_rss_mb"] is None or closed["peak_rss_mb"] > 0

    def test_span_closes_when_the_phase_raises(self, tmp_path):
        events = EventLog(tmp_path / EVENTS_NAME)
        with pytest.raises(RuntimeError):
            with events.span("replay"):
                raise RuntimeError("interrupted")
        events.close()
        names = [e["event"] for e in read_events(tmp_path / EVENTS_NAME)]
        assert names == ["span-open", "span-close"]

    def test_disabled_log_span_is_a_noop(self):
        with EventLog(None).span("replay", n_shards=1):
            pass


class TestShardProgress:
    def test_begin_resets_counters(self):
        progress = ShardProgress()
        progress.begin(100, "replay")
        progress.done = 40
        assert progress.snapshot() == (40, 100, "replay")
        progress.begin(10, "materialize")
        assert progress.snapshot() == (0, 10, "materialize")

    def test_module_singleton(self):
        assert telemetry.shard_progress() is telemetry.shard_progress()


class TestEventLog:
    def test_emit_appends_compact_json_lines(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.emit("shard-dispatch", shard=0, attempt=1)
        log.emit("shard-complete", shard=0, seconds=1.5)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "shard-dispatch"
        assert first["shard"] == 0 and first["attempt"] == 1
        assert "ts" in first

    def test_append_only_across_instances(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.emit("run-start")
        log.close()
        log = EventLog(path)
        log.emit("run-finalize")
        log.close()
        names = [e["event"] for e in read_events(path)]
        assert names == ["run-start", "run-finalize"]

    def test_disabled_log_is_falsy_noop(self):
        log = EventLog(None)
        assert not log
        log.emit("anything", detail=1)  # must not raise
        log.close()

    def test_read_events_skips_torn_tail(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        path.write_text('{"ts": 1, "event": "ok"}\n{"ts": 2, "eve')
        events = read_events(path)
        assert [e["event"] for e in events] == ["ok"]

    def test_read_events_missing_file(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []


class TestFindEventsFile:
    def test_direct_file_and_run_dir(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        path.write_text("")
        assert find_events_file(path) == path
        assert find_events_file(tmp_path) == path

    def test_checkpoint_root_picks_most_recent(self, tmp_path):
        old = tmp_path / "run-old"
        new = tmp_path / "run-new"
        for run in (old, new):
            run.mkdir()
            (run / EVENTS_NAME).write_text("")
        import os

        os.utime(old / EVENTS_NAME, (1000, 1000))
        os.utime(new / EVENTS_NAME, (2000, 2000))
        assert find_events_file(tmp_path) == new / EVENTS_NAME

    def test_nothing_found(self, tmp_path):
        assert find_events_file(tmp_path) is None
        assert find_events_file(tmp_path / "absent") is None
