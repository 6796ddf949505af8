"""Checkpoint store, run-manifest, resource-guard and atomic-write tests."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import (
    PlannedShardWorkload,
    ShardOutcome,
    partition_members,
    process_slices,
    run_shards_supervised,
)
from repro.util.atomicio import atomic_write_bytes, atomic_write_json
from repro.util.checkpoint import (
    CHECKPOINT_FORMAT,
    MANIFEST_FORMAT,
    CheckpointStore,
    _unpack_outcome,
    run_inputs_summary,
    run_key,
)
from repro.util.telemetry import EVENTS_NAME, EventLog
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


def _outcomes(seed: int = 5, users: int = 30, days: float = 0.5):
    """A couple of real ShardOutcomes via the supervised runner."""
    plan = SyntheticTraceGenerator(
        WorkloadConfig.scaled(users=users, days=days, seed=seed)).plan()
    cluster = U1Cluster(ClusterConfig(seed=seed))
    n_shards = cluster.config.effective_replay_shards()
    workloads = [PlannedShardWorkload(plan, members)
                 for members in partition_members(plan, n_shards)]
    outcomes, _, _ = run_shards_supervised(
        cluster.config, process_slices(cluster.config),
        cluster.shard_factors, workloads, n_jobs=1)
    return cluster.config, workloads, outcomes


class TestRunKey:
    def test_stable_and_distinct(self):
        config, workloads, _ = _outcomes()
        key = run_key(config, workloads)
        assert key == run_key(config, workloads)
        other = ClusterConfig(seed=6)
        assert run_key(other, workloads) != key
        assert run_key(config, workloads[:-1]) != key

    def test_workload_config_is_part_of_the_key(self, tmp_path):
        """Two workloads that plan the same member weights but materialize
        different events never share a run directory, so a resume cannot
        return the other workload's trace."""
        base = WorkloadConfig.scaled(users=80, days=1, seed=3)
        variant = base.replace(update_fraction=0.5, duplicate_fraction=0.6,
                               max_file_bytes=1024 * 1024)
        plan_a = SyntheticTraceGenerator(base).plan()
        plan_b = SyntheticTraceGenerator(variant).plan()
        assert plan_a.member_weights() == plan_b.member_weights()
        config = ClusterConfig(seed=3)
        first = U1Cluster(config).replay_plan(plan_a, checkpoint_dir=tmp_path)
        resumed = U1Cluster(config).replay_plan(
            plan_b, checkpoint_dir=tmp_path, resume=True)
        fresh = U1Cluster(config).replay_plan(plan_b)
        assert fresh.content_digest() != first.content_digest()
        assert resumed.content_digest() == fresh.content_digest()

    def test_key_is_path_safe(self):
        config, workloads, _ = _outcomes()
        key = run_key(config, workloads)
        assert key == "".join(c for c in key if c in "0123456789abcdef")


def _reference_run_key(config, workloads) -> str:
    """The run key as first defined: every string encoded once per shard.

    Checkpoint directories are named by this key, so the real
    :func:`run_key` must keep producing it byte for byte.
    """
    digest = hashlib.sha256()
    digest.update(f"format:{CHECKPOINT_FORMAT};".encode())
    digest.update(repr(config).encode())
    digest.update(f";shards:{len(workloads)};".encode())
    for shard_id, workload in enumerate(workloads):
        digest.update(f"shard:{shard_id}:".encode())
        digest.update(f"workload:{workload.plan.config!r};".encode())
        digest.update(f"members:{workload.members!r};".encode())
        digest.update(repr(workload.plan.member_weights()).encode())
    return digest.hexdigest()


class TestRunKeyReference:
    @pytest.mark.parametrize("replay_shards", [1, 2, 8])
    def test_key_equals_reference(self, replay_shards):
        plan = SyntheticTraceGenerator(
            WorkloadConfig.scaled(users=40, days=0.5, seed=7)).plan()
        config = ClusterConfig(seed=7, replay_shards=replay_shards)
        workloads = [PlannedShardWorkload(plan, members)
                     for members in partition_members(plan, replay_shards)]
        assert len(workloads) == replay_shards
        assert run_key(config, workloads) == \
            _reference_run_key(config, workloads)

    def test_replay_without_a_recorder_never_hashes(self, monkeypatch):
        import repro.util.checkpoint as checkpoint_module

        def refuse(config, workloads):
            raise AssertionError("run_key computed with nothing to record it")

        plan = SyntheticTraceGenerator(
            WorkloadConfig.scaled(users=30, days=0.5, seed=5)).plan()
        reference = U1Cluster(ClusterConfig(seed=5)).replay_plan(plan)
        monkeypatch.setattr(checkpoint_module, "run_key", refuse)
        dataset = U1Cluster(ClusterConfig(seed=5)).replay_plan(plan)
        assert dataset.content_digest() == reference.content_digest()

    def test_event_log_records_the_same_key(self, tmp_path):
        from repro.util import telemetry

        plan = SyntheticTraceGenerator(
            WorkloadConfig.scaled(users=30, days=0.5, seed=5)).plan()
        cluster = U1Cluster(ClusterConfig(seed=5))
        n_shards = cluster.config.effective_replay_shards()
        cluster.replay_plan(plan, events_dir=tmp_path)
        workloads = [PlannedShardWorkload(plan, members)
                     for members in partition_members(
                         plan, n_shards,
                         len(process_slices(cluster.config)[0]))]
        events = telemetry.read_events(tmp_path / telemetry.EVENTS_NAME)
        assert events[0]["event"] == "run-start"
        assert events[0]["run_key"] == \
            _reference_run_key(cluster.config, workloads)


class TestCheckpointStore:
    def test_round_trip_preserves_outcome(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads))
        original = outcomes[0]
        store.save(original)
        loaded = store.load(original.shard_id)
        assert loaded is not None
        streams = ("storage", "rpc", "sessions")
        for spec in dataclasses.fields(ShardOutcome):
            if spec.name not in streams:
                assert getattr(loaded, spec.name) == \
                    getattr(original, spec.name), spec.name
        assert original.process_counters and original.block_build_seconds
        for stream in streams:
            a, b = getattr(loaded, stream), getattr(original, stream)
            assert a.n == b.n
            assert set(a.cols) == set(b.cols)
            for name in a.cols:
                assert a.cols[name].dtype == b.cols[name].dtype, name
                assert np.array_equal(a.cols[name], b.cols[name]), name
            assert set(a.codes) == set(b.codes)
            for name in a.codes:
                assert a.codes[name][0].dtype == b.codes[name][0].dtype
                assert np.array_equal(a.codes[name][0], b.codes[name][0])
                assert list(a.codes[name][1]) == list(b.codes[name][1])

    def test_missing_and_corrupt_reads_as_absent(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads))
        assert store.load(0) is None
        store.save(outcomes[0])
        path = store.path(outcomes[0].shard_id)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.load(outcomes[0].shard_id) is None
        path.write_bytes(b"garbage")
        assert store.load(outcomes[0].shard_id) is None

    def test_wrong_slot_reads_as_absent(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads))
        store.save(outcomes[1])
        # A file whose embedded shard id disagrees with its slot is foreign.
        os.replace(store.path(outcomes[1].shard_id), store.path(0))
        assert store.load(0) is None

    def test_completed_lists_present_shards(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads))
        for outcome in outcomes[:3]:
            store.save(outcome)
        assert store.completed() == sorted(o.shard_id for o in outcomes[:3])

    def test_completed_ignores_foreign_files(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        key = run_key(config, workloads)
        store = CheckpointStore(tmp_path, key)
        store.save(outcomes[0])
        # Foreign names that merely contain a shard-like prefix, and shard
        # files without a manifest entry, must never count as completed.
        (store.run_dir / "shard-0000-extra.npz").write_bytes(b"x")
        (store.run_dir / "shard-9999.npz").write_bytes(b"x")
        assert store.completed() == [outcomes[0].shard_id]
        fresh = CheckpointStore(tmp_path, key)
        assert fresh.completed() == [outcomes[0].shard_id]


class TestManifest:
    def test_written_ahead_and_updated_per_spill(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads),
                                n_shards=len(workloads),
                                inputs=run_inputs_summary(config, workloads))
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["status"] == "in-progress"
        assert manifest["manifest_format"] == MANIFEST_FORMAT
        assert manifest["checkpoint_format"] == CHECKPOINT_FORMAT
        assert manifest["run_key"] == store.key
        assert manifest["n_shards"] == len(workloads)
        assert manifest["inputs"]["n_shards"] == len(workloads)
        assert manifest["shards"] == {}

        store.save(outcomes[0])
        manifest = json.loads(store.manifest_path.read_text())
        entry = manifest["shards"][str(outcomes[0].shard_id)]
        payload = store.path(outcomes[0].shard_id).read_bytes()
        assert entry["file"] == store.path(outcomes[0].shard_id).name
        assert entry["bytes"] == len(payload)
        assert entry["sha256"] == hashlib.sha256(payload).hexdigest()
        assert entry["status"] == "complete"
        assert entry["n_events"] == outcomes[0].n_events

        store.finalize("complete")
        assert json.loads(store.manifest_path.read_text())["status"] == \
            "complete"

    def test_reopen_keeps_entries_and_marks_in_progress(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        key = run_key(config, workloads)
        store = CheckpointStore(tmp_path, key)
        store.save(outcomes[0])
        store.finalize("interrupted")
        fresh = CheckpointStore(tmp_path, key)
        assert fresh.manifest()["status"] == "in-progress"
        assert fresh.completed() == [outcomes[0].shard_id]
        assert fresh.load(outcomes[0].shard_id) is not None

    def test_load_trusts_manifest_not_the_file(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        key = run_key(config, workloads)
        store = CheckpointStore(tmp_path, key)
        store.save(outcomes[0])
        # Erase the manifest entry; the intact file alone earns no trust.
        manifest = json.loads(store.manifest_path.read_text())
        manifest["shards"] = {}
        store.manifest_path.write_text(json.dumps(manifest))
        fresh = CheckpointStore(tmp_path, key)
        assert fresh.load(outcomes[0].shard_id) is None
        assert fresh.completed() == []

    def test_foreign_manifest_is_replaced(self, tmp_path):
        config, workloads, _ = _outcomes()
        key = run_key(config, workloads)
        run_dir = tmp_path / key
        run_dir.mkdir(parents=True)
        (run_dir / "MANIFEST.json").write_text("{not json")
        store = CheckpointStore(tmp_path, key)
        assert store.manifest()["shards"] == {}
        assert json.loads(store.manifest_path.read_text())["run_key"] == key


class TestFinalize:
    """The manifest's closing record: status, metrics, interrupt, events."""

    def test_metrics_are_the_given_record_only(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.finalize("complete")
        assert "metrics" not in store.manifest()
        metrics = {"completion_order": [1, 0],
                   "shard_wall_seconds": {1: 0.5, 0: 0.25}}
        store.finalize("complete", metrics=metrics)
        assert json.loads(store.manifest_path.read_text())["metrics"] == \
            json.loads(json.dumps(metrics))
        # A later run over the same directory replaces, never merges.
        fresh = CheckpointStore(tmp_path, "run")
        fresh.finalize("complete", metrics={"completion_order": []})
        assert fresh.manifest()["metrics"] == {"completion_order": []}

    def test_interrupt_block_lasts_until_the_next_finalize(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.finalize("interrupted", metrics={"shards_interrupted": [0]},
                       extra={"reason": "rss", "rss_high_water_mb": 12.5})
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["interrupt"] == {"reason": "rss",
                                         "rss_high_water_mb": 12.5}
        resumed = CheckpointStore(tmp_path, "run")
        resumed.finalize("complete", metrics={"shards_interrupted": []})
        manifest = json.loads(resumed.manifest_path.read_text())
        assert manifest["status"] == "complete"
        assert "interrupt" not in manifest

    def test_event_log_is_summarized_by_type(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        events = EventLog(store.run_dir / EVENTS_NAME)
        for name in ("run-start", "shard-complete", "shard-complete"):
            events.emit(name)
        events.close()
        store.finalize("complete")
        assert store.manifest()["events"] == {
            "file": EVENTS_NAME, "total": 3,
            "by_type": {"run-start": 1, "shard-complete": 2}}


class TestUntrustedCheckpoints:
    def test_pickled_payload_is_rejected_not_executed(self, tmp_path):
        config, workloads, outcomes = _outcomes()
        key = run_key(config, workloads)
        store = CheckpointStore(tmp_path, key)
        store.save(outcomes[0])
        # A hostile checkpoint whose "meta" entry is a pickled object array:
        # np.load(allow_pickle=False) must refuse it even when the manifest
        # checksum has been fixed up to match.
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.array([{"format": CHECKPOINT_FORMAT}],
                                       dtype=object))
        payload = buffer.getvalue()
        shard_id = outcomes[0].shard_id
        store.path(shard_id).write_bytes(payload)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["shards"][str(shard_id)]["sha256"] = \
            hashlib.sha256(payload).hexdigest()
        manifest["shards"][str(shard_id)]["bytes"] = len(payload)
        store.manifest_path.write_text(json.dumps(manifest))
        fresh = CheckpointStore(tmp_path, key)
        assert fresh.load(shard_id) is None
        with pytest.raises(Exception):
            _unpack_outcome(payload)

    def test_format_mismatch_is_rejected(self):
        meta = {"format": CHECKPOINT_FORMAT + 1}
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.frombuffer(json.dumps(meta).encode("utf-8"),
                                            dtype=np.uint8))
        with pytest.raises(ValueError, match="checkpoint format"):
            _unpack_outcome(buffer.getvalue())


class TestEnospcGuard:
    class _TinyDisk:
        f_bavail = 16
        f_frsize = 512

    def test_save_degrades_to_in_memory_with_warning(self, tmp_path,
                                                     monkeypatch):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads))
        monkeypatch.setattr(os, "statvfs", lambda path: self._TinyDisk())
        with pytest.warns(RuntimeWarning, match="checkpointing disabled"):
            assert store.save(outcomes[0]) is None
        assert store.disabled
        assert "min_free_bytes" in store.disabled_reason
        # Subsequent saves are silent no-ops; nothing was spilled.
        assert store.save(outcomes[1]) is None
        assert store.load(outcomes[0].shard_id) is None
        assert store.completed() == []

    def test_headroom_respects_min_free_bytes(self, tmp_path, monkeypatch):
        config, workloads, outcomes = _outcomes()
        store = CheckpointStore(tmp_path, run_key(config, workloads),
                                min_free_bytes=0)
        monkeypatch.setattr(
            os, "statvfs",
            lambda path: type("S", (), {"f_bavail": 1 << 40,
                                        "f_frsize": 512})())
        assert store.save(outcomes[0]) is not None
        assert not store.disabled


class TestAtomicWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old")
        atomic_write_json(target, {"fresh": True})
        assert target.read_text().startswith("{")
        assert not list(tmp_path.glob("*.tmp"))

    def test_unwritable_destination_raises_and_cleans_up(self, tmp_path):
        missing_dir = tmp_path / "nope" / "artifact.json"
        with pytest.raises(OSError):
            atomic_write_bytes(missing_dir, b"payload")
        assert not list(tmp_path.glob("**/*.tmp"))
