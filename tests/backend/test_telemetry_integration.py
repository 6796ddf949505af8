"""Pipeline wiring of :mod:`repro.util.telemetry`.

Verified here: the run-event log never changes the replayed trace's
digest; a chaos run's ``events.jsonl`` contains exactly the injected
kill/retry/quarantine sequence; heartbeats flow from forked workers and
staleness doubles as a hung-worker signal; the finalized manifest's
``metrics`` are the run's own supervision accounting, and the interrupted
manifest carries the RSS high-water mark.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from unittest import mock

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.supervisor import (
    ChaosPlan,
    SupervisionReport,
    SupervisorPolicy,
    supervise_shards,
)
from repro.faults.spec import FaultPlan, LossyLink
from repro.util import telemetry
from repro.util.lifecycle import RunInterrupted, ShutdownController
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

_FAST = SupervisorPolicy(backoff_base=0.0)


def _plan(seed: int = 11, users: int = 50, days: float = 0.5):
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    return SyntheticTraceGenerator(config).plan()


def _replay_plan(plan, n_jobs: int, seed: int = 11, faults=None, **kwargs):
    cluster = U1Cluster(ClusterConfig(seed=seed, faults=faults))
    with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
        dataset = cluster.replay_plan(plan, n_jobs=n_jobs, **kwargs)
    return cluster, dataset


def _run_dir(checkpoint_root):
    return next(p for p in checkpoint_root.iterdir() if p.is_dir())


def _events(checkpoint_root):
    return telemetry.read_events(_run_dir(checkpoint_root) /
                                 telemetry.EVENTS_NAME)


def _manifest(checkpoint_root):
    return json.loads((_run_dir(checkpoint_root) / "MANIFEST.json")
                      .read_text())


def _supervision_stats(cluster):
    """The supervision part of ``last_replay_stats``, as JSON reads it."""
    stats = cluster.last_replay_stats
    return json.loads(json.dumps(
        {key: stats[key] for key in SupervisionReport().as_stats()}))


# ---------------------------------------------------------------------------
# Telemetry must never touch the trace
# ---------------------------------------------------------------------------

class TestDigestInvariance:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_event_log_does_not_perturb_digest(self, n_jobs, tmp_path):
        plan = _plan()
        _, bare = _replay_plan(plan, n_jobs=n_jobs)
        _, logged = _replay_plan(plan, n_jobs=n_jobs,
                                 checkpoint_dir=tmp_path)
        assert logged.content_digest() == bare.content_digest()
        assert logged == bare


# ---------------------------------------------------------------------------
# The run-event log of healthy, chaotic and faulted runs
# ---------------------------------------------------------------------------

class TestRunEventLog:
    def test_healthy_checkpointed_run_event_sequence(self, tmp_path):
        plan = _plan()
        cluster, _ = _replay_plan(plan, n_jobs=2, checkpoint_dir=tmp_path)
        n_shards = cluster.last_replay_stats["n_shards"]
        events = _events(tmp_path)
        counts = Counter(e["event"] for e in events)
        assert events[0]["event"] == "run-start"
        assert events[0]["n_shards"] == n_shards
        assert counts["shard-dispatch"] == n_shards
        assert counts["shard-complete"] == n_shards
        assert counts["checkpoint-spill"] == n_shards
        assert counts["run-finalize"] == 1
        assert counts["span-open"] == 2  # replay + merge
        assert "shard-retry" not in counts
        assert "shard-quarantine" not in counts
        span_names = {e["name"] for e in events if e["event"] == "span-open"}
        assert span_names == {"replay", "merge"}
        assert cluster.last_replay_stats["events_path"] == \
            str(_run_dir(tmp_path) / telemetry.EVENTS_NAME)

    def test_replay_and_merge_spans_carry_their_fields(self, tmp_path):
        cluster, _ = _replay_plan(_plan(), n_jobs=2, checkpoint_dir=tmp_path)
        n_shards = cluster.last_replay_stats["n_shards"]
        spans = [e for e in _events(tmp_path)
                 if e["event"] in ("span-open", "span-close")]
        assert [(e["event"], e["name"]) for e in spans] == [
            ("span-open", "replay"), ("span-close", "replay"),
            ("span-open", "merge"), ("span-close", "merge")]
        replay_open, replay_close, _, merge_close = spans
        assert replay_open["n_shards"] == replay_close["n_shards"] == n_shards
        for close in (replay_close, merge_close):
            assert close["seconds"] >= 0.0
            assert close["peak_rss_mb"] is None or close["peak_rss_mb"] > 0

    def test_chaos_kill_produces_exact_retry_sequence(self, tmp_path):
        plan = _plan()
        _, undisturbed = _replay_plan(plan, n_jobs=2)
        chaos = ChaosPlan(kill_shards=(0,), kill_after=0.0, kill_attempts=1)
        cluster, recovered = _replay_plan(plan, n_jobs=2, chaos=chaos,
                                          policy=_FAST,
                                          checkpoint_dir=tmp_path)
        assert recovered.content_digest() == undisturbed.content_digest()
        n_shards = cluster.last_replay_stats["n_shards"]

        events = _events(tmp_path)
        dispatches = [e for e in events if e["event"] == "shard-dispatch"]
        # Shard 0 dispatched twice (the SIGKILLed attempt and its retry),
        # every other shard exactly once.
        assert len(dispatches) == n_shards + 1
        per_shard = Counter(e["shard"] for e in dispatches)
        assert per_shard[0] == 2
        assert all(per_shard[s] == 1 for s in range(1, n_shards))
        assert [e["attempt"] for e in dispatches if e["shard"] == 0] == [0, 1]

        retries = [e for e in events if e["event"] == "shard-retry"]
        assert len(retries) == 1
        assert retries[0]["shard"] == 0
        assert retries[0]["reason"] == "worker-died"
        assert retries[0]["attempt"] == 0
        assert not [e for e in events if e["event"] == "shard-quarantine"]

    def test_quarantine_is_logged(self, tmp_path):
        events = telemetry.EventLog(tmp_path / telemetry.EVENTS_NAME)

        def task(shard_id):
            if shard_id == 1:
                raise RuntimeError("persistent")
            return shard_id

        outcomes, report = supervise_shards(
            task, [0, 1, 2], jobs=1, policy=_FAST, use_fork=False,
            events=events)
        events.close()
        assert report.quarantined == [1]
        logged = telemetry.read_events(tmp_path / telemetry.EVENTS_NAME)
        quarantines = [e for e in logged if e["event"] == "shard-quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0]["shard"] == 1
        assert quarantines[0]["reason"] == "exception"
        retries = [e for e in logged if e["event"] == "shard-retry"]
        assert len(retries) == _FAST.max_attempts - 1

    def test_fault_windows_are_logged(self, tmp_path):
        plan = _plan()
        start = WorkloadConfig.scaled(users=50, days=0.5, seed=11).start_time
        faults = FaultPlan(faults=(
            LossyLink(start, start + 3600.0, failure_rate=0.05),), seed=11)
        _replay_plan(plan, n_jobs=1, faults=faults, checkpoint_dir=tmp_path)
        windows = [e for e in _events(tmp_path)
                   if e["event"] == "fault-window"]
        assert len(windows) == 1
        assert windows[0]["kind"] == "lossy"
        assert windows[0]["failure_rate"] == 0.05
        assert windows[0]["start"] == start
        assert windows[0]["end"] == start + 3600.0

    def test_resume_logs_resumed_shards(self, tmp_path):
        plan = _plan()
        cluster, _ = _replay_plan(plan, n_jobs=1, checkpoint_dir=tmp_path)
        n_shards = cluster.last_replay_stats["n_shards"]
        _replay_plan(plan, n_jobs=1, checkpoint_dir=tmp_path, resume=True)
        events = _events(tmp_path)
        resumed = [e for e in events if e["event"] == "shard-resumed"]
        assert sorted(e["shard"] for e in resumed) == list(range(n_shards))


# ---------------------------------------------------------------------------
# Manifest integration: event summary, metrics, interrupt forensics
# ---------------------------------------------------------------------------

class TestManifestTelemetry:
    def test_finalized_manifest_summarizes_events_and_metrics(self, tmp_path):
        plan = _plan()
        cluster, _ = _replay_plan(plan, n_jobs=2, checkpoint_dir=tmp_path)
        manifest = _manifest(tmp_path)
        assert manifest["status"] == "complete"
        summary = manifest["events"]
        assert summary["file"] == telemetry.EVENTS_NAME
        by_type = dict(summary["by_type"])
        assert by_type["run-start"] == 1
        assert by_type["shard-complete"] == manifest["n_shards"]
        assert summary["total"] >= sum(by_type.values()) - 1
        assert manifest["metrics"] == _supervision_stats(cluster)
        assert len(manifest["metrics"]["shard_wall_seconds"]) == \
            manifest["n_shards"]

    def test_each_run_manifest_covers_only_its_own_shards(self, tmp_path):
        # Two checkpointed replays in one process: the second manifest
        # must not carry the first run's shards or timings.
        for seed in (11, 12):
            root = tmp_path / f"seed-{seed}"
            cluster, _ = _replay_plan(_plan(seed=seed), n_jobs=2, seed=seed,
                                      checkpoint_dir=root)
            metrics = _manifest(root)["metrics"]
            n_shards = cluster.last_replay_stats["n_shards"]
            assert metrics == _supervision_stats(cluster)
            assert sorted(metrics["completion_order"]) == \
                list(range(n_shards))
            assert sorted(metrics["shards_checkpointed"]) == \
                list(range(n_shards))
            assert len(metrics["shard_wall_seconds"]) == n_shards

    def test_rss_watchdog_interrupt_records_high_water(self, tmp_path):
        plan = _plan()
        controller = ShutdownController(max_rss_bytes=1)
        with pytest.raises(RunInterrupted, match="rss limit"):
            _replay_plan(plan, n_jobs=1, checkpoint_dir=tmp_path,
                         shutdown=controller)
        manifest = _manifest(tmp_path)
        assert manifest["status"] == "interrupted"
        interrupt = manifest["interrupt"]
        assert interrupt["reason"] == "rss"
        assert interrupt["rss_high_water_mb"] > 0
        assert interrupt["max_rss_mb"] == pytest.approx(1 / 2**20, abs=1e-4)
        # No shard ran: the run's metrics list every shard as interrupted.
        metrics = manifest["metrics"]
        assert metrics["completion_order"] == []
        assert metrics["shards_interrupted"] == \
            list(range(manifest["n_shards"]))


# ---------------------------------------------------------------------------
# Heartbeats: live progress and the staleness hung-worker signal
# ---------------------------------------------------------------------------

class TestHeartbeats:
    def test_forked_workers_heartbeat(self):
        policy = SupervisorPolicy(backoff_base=0.0, heartbeat_interval=0.05)

        def slow(shard_id):
            time.sleep(0.3)
            return shard_id

        outcomes, report = supervise_shards(
            slow, [0, 1], jobs=2, policy=policy, use_fork=True)
        assert outcomes == {0: 0, 1: 1}
        assert set(report.heartbeats) == {0, 1}
        assert all(count >= 1 for count in report.heartbeats.values())

    def test_heartbeats_off_by_default_policy_zero(self):
        policy = SupervisorPolicy(backoff_base=0.0, heartbeat_interval=0.0)
        outcomes, report = supervise_shards(
            lambda s: s, [0], jobs=1, policy=policy, use_fork=True)
        assert outcomes == {0: 0}
        assert report.heartbeats == {}

    def test_stale_heartbeat_flags_hung_worker(self):
        # The shard hangs without tripping the (long) deadline; heartbeat
        # silence alone must get it killed and retried.
        chaos = ChaosPlan(hang_shards=(0,), kill_attempts=1)
        policy = SupervisorPolicy(
            backoff_base=0.0, max_attempts=2, timeout=60.0,
            heartbeat_interval=0.05, heartbeat_grace=0.4)
        started = time.monotonic()
        outcomes, report = supervise_shards(
            lambda s: s, [0], jobs=1, policy=policy, chaos=chaos,
            use_fork=True)
        elapsed = time.monotonic() - started
        assert outcomes == {0: 0}
        assert [f.reason for f in report.failures] == ["heartbeat-stale"]
        assert report.retries == {0: 1}
        assert elapsed < 30.0  # far below the 60 s deadline

    def test_policy_validates_heartbeat_fields(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(heartbeat_interval=-1.0).validate()
        with pytest.raises(ValueError):
            SupervisorPolicy(heartbeat_grace=0.0).validate()


# ---------------------------------------------------------------------------
# Wall-clock shard timings and progress snapshots
# ---------------------------------------------------------------------------

class TestWallClockAndProgress:
    def test_as_stats_reports_wall_seconds(self):
        outcomes, report = supervise_shards(
            lambda s: s, range(3), jobs=2, policy=_FAST, use_fork=True)
        stats = report.as_stats()
        assert set(stats["shard_wall_seconds"]) == {0, 1, 2}
        assert all(v >= 0 for v in stats["shard_wall_seconds"].values())
        assert "shard_heartbeats" in stats

    def test_progress_callback_sees_every_completion(self):
        snapshots = []
        outcomes, _ = supervise_shards(
            lambda s: s, range(4), jobs=1, policy=_FAST, use_fork=False,
            progress=snapshots.append, planned_ops={s: 10 for s in range(4)})
        assert len(outcomes) == 4
        final = snapshots[-1]
        assert final["shards_done"] == 4
        assert final["shards_total"] == 4
        assert final["fraction"] == pytest.approx(1.0)
        assert final["retries"] == 0 and final["quarantined"] == 0

    def test_replay_stats_include_wall_seconds(self):
        plan = _plan()
        cluster, _ = _replay_plan(plan, n_jobs=2)
        stats = cluster.last_replay_stats
        assert len(stats["shard_wall_seconds"]) == stats["n_shards"]
