"""Integrity-audit (``repro verify``) tests against tampered run dirs."""

from __future__ import annotations

import io
import json
import shutil

import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import (
    PlannedShardWorkload,
    partition_members,
    process_slices,
    run_shards_supervised,
)
from repro.util.checkpoint import CheckpointStore, run_inputs_summary, run_key
from repro.util.verify import verify_run_dir, verify_tree
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """A pristine, finalized checkpoint run directory (copied per test)."""
    root = tmp_path_factory.mktemp("ckpt")
    plan = SyntheticTraceGenerator(
        WorkloadConfig.scaled(users=30, days=0.5, seed=5)).plan()
    cluster = U1Cluster(ClusterConfig(seed=5))
    n_shards = cluster.config.effective_replay_shards()
    workloads = [PlannedShardWorkload(plan, members)
                 for members in partition_members(plan, n_shards)]
    outcomes, _, _ = run_shards_supervised(
        cluster.config, process_slices(cluster.config),
        cluster.shard_factors, workloads, n_jobs=1)
    store = CheckpointStore(root, run_key(cluster.config, workloads),
                            n_shards=n_shards,
                            inputs=run_inputs_summary(cluster.config,
                                                      workloads))
    for outcome in outcomes:
        store.save(outcome)
    store.finalize("complete")
    return store.run_dir


@pytest.fixture
def run_dir(completed_run, tmp_path):
    """A throwaway copy of the pristine run directory."""
    target = tmp_path / completed_run.name
    shutil.copytree(completed_run, target)
    return target


def _codes(findings):
    return sorted(finding.code for finding in findings)


class TestCleanRun:
    def test_no_findings(self, run_dir):
        assert verify_run_dir(run_dir) == []

    def test_tree_wraps_single_run(self, run_dir):
        results = verify_tree(run_dir.parent)
        assert results == {str(run_dir): []}
        # Pointing at the run directory itself works too.
        assert verify_tree(run_dir) == {str(run_dir): []}

    def test_tree_empty_when_nothing_auditable(self, tmp_path):
        assert verify_tree(tmp_path) == {}
        assert verify_tree(tmp_path / "missing") == {}


class TestShardDamage:
    def test_single_byte_corruption_flags_exactly_that_shard(self, run_dir):
        target = run_dir / "shard-0002.npz"
        payload = bytearray(target.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        target.write_bytes(bytes(payload))
        findings = verify_run_dir(run_dir)
        assert [(f.code, f.severity, f.shard_id) for f in findings] == \
            [("checksum-mismatch", "repairable", 2)]

    def test_truncated_shard(self, run_dir):
        target = run_dir / "shard-0001.npz"
        target.write_bytes(target.read_bytes()[:-64])
        findings = verify_run_dir(run_dir)
        assert [(f.code, f.severity, f.shard_id) for f in findings] == \
            [("truncated", "repairable", 1)]

    def test_missing_shard_file(self, run_dir):
        (run_dir / "shard-0000.npz").unlink()
        findings = verify_run_dir(run_dir)
        assert [(f.code, f.severity, f.shard_id) for f in findings] == \
            [("missing-shard", "repairable", 0)]

    def test_orphan_shard_and_stale_temp(self, run_dir):
        shutil.copy(run_dir / "shard-0000.npz", run_dir / "shard-0009.npz")
        (run_dir / "shard-0001.npz.abc123.tmp").write_bytes(b"partial")
        findings = verify_run_dir(run_dir)
        assert _codes(findings) == ["orphan-shard", "stale-temp"]
        assert all(f.severity == "repairable" for f in findings)

    def test_foreign_file_is_fatal(self, run_dir):
        (run_dir / "notes.txt").write_text("what is this doing here")
        findings = verify_run_dir(run_dir)
        assert [(f.code, f.severity) for f in findings] == \
            [("foreign-file", "fatal")]

    def test_event_log_is_never_foreign(self, run_dir):
        # events.jsonl is a first-class run artifact (repro.util.telemetry),
        # not something --resume trusts — the audit must ignore it.
        (run_dir / "events.jsonl").write_text(
            '{"ts": 1.0, "event": "run-start"}\n')
        assert verify_run_dir(run_dir) == []

    def test_deep_parse_catches_checksum_clean_garbage(self, run_dir):
        # Re-point a manifest entry at bytes that hash correctly but do not
        # reconstruct: only the deep pass can see this.
        import hashlib

        target = run_dir / "shard-0003.npz"
        payload = b"PK\x03\x04 definitely not a real npz"
        target.write_bytes(payload)
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        manifest["shards"]["3"]["sha256"] = \
            hashlib.sha256(payload).hexdigest()
        manifest["shards"]["3"]["bytes"] = len(payload)
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        findings = verify_run_dir(run_dir, deep=True)
        assert [(f.code, f.severity, f.shard_id) for f in findings] == \
            [("shard-unreadable", "repairable", 3)]
        assert verify_run_dir(run_dir, deep=False) == []


class TestManifestDamage:
    def test_missing_manifest(self, run_dir):
        (run_dir / "MANIFEST.json").unlink()
        findings = verify_run_dir(run_dir)
        assert [(f.code, f.severity) for f in findings] == \
            [("manifest-missing", "fatal")]

    def test_unparseable_manifest(self, run_dir):
        (run_dir / "MANIFEST.json").write_text("{nope")
        assert _codes(verify_run_dir(run_dir)) == ["manifest-unreadable"]

    def test_format_version_mismatch(self, run_dir):
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        manifest["manifest_format"] = 999
        manifest["checkpoint_format"] = 999
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        findings = verify_run_dir(run_dir)
        assert set(_codes(findings)) >= {"manifest-format",
                                         "checkpoint-format"}
        assert all(f.severity == "fatal" for f in findings
                   if f.code.endswith("-format"))

    def test_other_checkpoint_format_is_one_fatal_finding(
            self, completed_run, tmp_path, monkeypatch):
        """A run written by an older checkpoint format: one fatal finding,
        none per shard, and ``repro verify`` exits 4."""
        from repro.cli import main
        from repro.util import checkpoint

        outcomes = [checkpoint._unpack_outcome(path.read_bytes())
                    for path in sorted(completed_run.glob("shard-*.npz"))]
        assert len(outcomes) == 8
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "_FORMAT", 4)
            store = CheckpointStore(tmp_path, "format-4",
                                    n_shards=len(outcomes))
            for outcome in outcomes:
                store.save(outcome)
            store.finalize("complete")
        findings = verify_run_dir(store.run_dir)
        assert [(f.code, f.severity) for f in findings] == [
            ("checkpoint-format", "fatal")]
        assert main(["verify", str(store.run_dir)],
                    out=io.StringIO()) == 4

    def test_run_key_mismatch(self, run_dir):
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        manifest["run_key"] = "0" * 64
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        assert "run-key-mismatch" in _codes(verify_run_dir(run_dir))

    def test_shard_count_mismatch_when_complete(self, run_dir):
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        removed = manifest["shards"].pop("0")
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        findings = verify_run_dir(run_dir)
        codes = _codes(findings)
        # The dropped entry makes its file an orphan *and* the count short.
        assert "shard-count-mismatch" in codes
        assert "orphan-shard" in codes
        by_code = {f.code: f for f in findings}
        assert by_code["shard-count-mismatch"].severity == "fatal"
        assert removed["file"] in by_code["orphan-shard"].path

    def test_interrupted_run_with_missing_shards_is_not_fatal(self, run_dir):
        # An interrupted run legitimately has fewer entries than n_shards.
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        manifest["status"] = "interrupted"
        entry = manifest["shards"].pop("4")
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        (run_dir / entry["file"]).unlink()
        findings = verify_run_dir(run_dir)
        assert "shard-count-mismatch" not in _codes(findings)
        assert all(f.severity == "repairable" for f in findings)

    def test_entry_pointing_at_foreign_name_is_fatal(self, run_dir):
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        manifest["shards"]["0"]["file"] = "shard-0000-extra.npz"
        (run_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        assert "manifest-entry-invalid" in _codes(verify_run_dir(run_dir))


class TestTree:
    def test_multiple_runs_reported_separately(self, run_dir, tmp_path):
        other = tmp_path / ("f" * 64)
        shutil.copytree(run_dir, other)
        manifest = json.loads((other / "MANIFEST.json").read_text())
        manifest["run_key"] = other.name
        (other / "MANIFEST.json").write_text(json.dumps(manifest))
        (other / "shard-0000.npz").write_bytes(b"junk")
        results = verify_tree(tmp_path)
        assert set(results) == {str(run_dir), str(other)}
        assert results[str(run_dir)] == []
        assert _codes(results[str(other)]) == ["truncated"]
