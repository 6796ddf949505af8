"""Chaos harness for the supervised shard pool: crashes, hangs, resume.

The headline assertions mirror the ISSUE-7 acceptance criteria: a worker
SIGKILLed mid-run (and a whole run killed and resumed from checkpoints)
must yield a trace bit-identical to an undisturbed run at any ``--jobs``.
"""

from __future__ import annotations

import json
import signal
from types import SimpleNamespace

import pytest

from unittest import mock

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.supervisor import (
    ChaosPlan,
    ShardExecutionError,
    SupervisorPolicy,
    supervise_shards,
)
from repro.faults.spec import default_fault_plan
from repro.trace.validate import validate_dataset
from repro.util.checkpoint import CheckpointStore
from repro.util.lifecycle import RunInterrupted, ShutdownController
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from tests.conftest import trace_load


def _plan(seed: int = 11, users: int = 50, days: float = 0.5):
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    return SyntheticTraceGenerator(config).plan()


def _replay_plan(plan, n_jobs: int, seed: int = 11, **kwargs):
    cluster = U1Cluster(ClusterConfig(seed=seed))
    with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
        dataset = cluster.replay_plan(plan, n_jobs=n_jobs, **kwargs)
    return cluster, dataset


_FAST = SupervisorPolicy(backoff_base=0.0)


def _fleet_counters(cluster, dataset) -> dict:
    """Every counter a cluster keeps across replays, the last replay's
    fault counters, and the per-process and per-metadata-shard load its
    trace carries."""
    return {
        "processes": cluster.processes,
        "gateway": cluster.gateway.total_assigned(),
        "accounting": cluster.object_store.accounting,
        "objects": len(cluster.object_store),
        "load": trace_load(dataset, cluster.config.metadata_shards),
        "metadata_shard_errors":
            cluster.last_replay_stats["metadata_shard_errors"],
        "faults": cluster.last_replay_stats["fault_counters"],
    }


# ---------------------------------------------------------------------------
# supervise_shards unit behaviour (no replay engine involved)
# ---------------------------------------------------------------------------

class TestSupervisePrimitives:
    def test_all_outcomes_and_completion_order(self):
        outcomes, report = supervise_shards(
            lambda s: s * 2, range(4), jobs=2, use_fork=False)
        assert outcomes == {0: 0, 1: 2, 2: 4, 3: 6}
        assert sorted(report.completion_order) == [0, 1, 2, 3]
        assert report.failures == [] and report.quarantined == []

    def test_retry_then_success_in_process(self):
        calls = {"n": 0}

        def flaky(shard_id):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return shard_id

        outcomes, report = supervise_shards(
            flaky, [7], jobs=1, policy=_FAST, use_fork=False)
        assert outcomes == {7: 7}
        assert report.retries == {7: 1}
        assert [f.reason for f in report.failures] == ["exception"]

    def test_quarantine_keeps_partial_results(self):
        def task(shard_id):
            if shard_id == 1:
                raise RuntimeError("persistent")
            return shard_id

        outcomes, report = supervise_shards(
            task, [0, 1, 2], jobs=1, policy=_FAST, use_fork=False)
        assert outcomes == {0: 0, 2: 2}
        assert report.quarantined == [1]
        # max_attempts failures, the last of which is not granted a retry.
        assert len(report.failures) == _FAST.max_attempts
        assert report.retries == {1: _FAST.max_attempts - 1}

    def test_all_quarantined_raises(self):
        def task(shard_id):
            raise RuntimeError("dead on arrival")

        with pytest.raises(ShardExecutionError, match="all 2 shards"):
            supervise_shards(task, [0, 1], jobs=1, policy=_FAST,
                             use_fork=False)

    def test_forked_worker_exception_is_reported(self):
        def task(shard_id):
            raise ValueError("inside the fork")

        with pytest.raises(ShardExecutionError) as excinfo:
            supervise_shards(task, [0], jobs=1, policy=_FAST, use_fork=True)
        assert "inside the fork" in str(excinfo.value)

    def test_forked_sigkill_recovers(self):
        chaos = ChaosPlan(kill_shards=(0,), kill_after=0.0, kill_attempts=1)
        outcomes, report = supervise_shards(
            lambda s: s + 100, [0, 1], jobs=2, policy=_FAST, chaos=chaos,
            use_fork=True)
        assert outcomes == {0: 100, 1: 101}
        assert report.retries == {0: 1}
        assert [f.reason for f in report.failures] == ["worker-died"]

    def test_forked_hang_hits_timeout_then_recovers(self):
        chaos = ChaosPlan(hang_shards=(0,), kill_attempts=1)
        outcomes, report = supervise_shards(
            lambda s: s, [0], jobs=1, policy=_FAST, chaos=chaos,
            timeouts={0: 0.5}, use_fork=True)
        assert outcomes == {0: 0}
        assert [f.reason for f in report.failures] == ["timeout"]
        assert report.retries == {0: 1}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_factor=0.5).validate()
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=-1.0).validate()
        with pytest.raises(ValueError):
            ChaosPlan(kill_shards=(0,), kill_attempts=0)


class _ExplodingWorkload:
    """A memberless shard workload whose materialization always raises."""

    plan = SimpleNamespace(member_weights=lambda: [])
    members = ()

    def scripts(self):
        raise RuntimeError("boom")


class TestForkStateHygiene:
    def _run(self, n_jobs: int):
        config = ClusterConfig(seed=3)
        addresses = config.process_addresses()
        assignments = [[(0, addresses[0])], [(1, addresses[1])]]
        with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
            replay_shard.run_shards_supervised(
                config, assignments, [1.0, 1.0],
                [_ExplodingWorkload(), _ExplodingWorkload()],
                n_jobs=n_jobs, policy=_FAST)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_fork_state_cleared_when_workers_raise(self, n_jobs):
        with pytest.raises(ShardExecutionError):
            self._run(n_jobs)
        assert replay_shard._FORK_STATE is None


# ---------------------------------------------------------------------------
# Full-replay chaos: bit-identity of the recovered trace
# ---------------------------------------------------------------------------

class TestChaosRecovery:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_sigkilled_worker_yields_bit_identical_trace(self, n_jobs):
        plan = _plan()
        _, undisturbed = _replay_plan(plan, n_jobs=n_jobs)
        chaos = ChaosPlan(kill_shards=(0,), kill_after=0.0, kill_attempts=1)
        cluster, recovered = _replay_plan(plan, n_jobs=n_jobs, chaos=chaos,
                                          policy=_FAST)
        assert recovered.content_digest() == undisturbed.content_digest()
        assert recovered == undisturbed
        assert validate_dataset(recovered) == []
        stats = cluster.last_replay_stats
        assert stats["shard_retries"] == {0: 1}
        assert [f["reason"] for f in stats["shard_failures"]] == \
            ["worker-died"]
        assert stats["quarantined_shards"] == []
        assert len(stats["shard_seconds"]) == stats["n_shards"]

    def test_healthy_supervised_run_records_completion_order(self):
        plan = _plan()
        cluster, _ = _replay_plan(plan, n_jobs=2)
        stats = cluster.last_replay_stats
        assert sorted(stats["completion_order"]) == \
            list(range(stats["n_shards"]))
        assert stats["shard_failures"] == []


class TestCheckpointResume:
    def test_resume_skips_finished_shards(self, tmp_path):
        plan = _plan()
        undisturbed_cluster, undisturbed = _replay_plan(plan, n_jobs=2)
        cluster, first = _replay_plan(plan, n_jobs=2,
                                      checkpoint_dir=tmp_path)
        n_shards = cluster.last_replay_stats["n_shards"]
        assert sorted(cluster.last_replay_stats["shards_checkpointed"]) == \
            list(range(n_shards))
        assert cluster.last_replay_stats["checkpoint_dir"] is not None

        # "Kill the whole process and rerun": a fresh cluster resumes from
        # the spilled outcomes without executing anything.
        resumed_cluster, resumed = _replay_plan(plan, n_jobs=2,
                                                checkpoint_dir=tmp_path,
                                                resume=True)
        stats = resumed_cluster.last_replay_stats
        assert sorted(stats["shards_resumed"]) == list(range(n_shards))
        assert stats["completion_order"] == []
        assert resumed.content_digest() == undisturbed.content_digest()
        assert resumed == first
        # The fleet counters come from the shard summaries only, so the
        # checkpoints must carry every one of them.
        assert _fleet_counters(resumed_cluster, resumed) == \
            _fleet_counters(undisturbed_cluster, undisturbed)

    def test_resume_keeps_fault_counters(self, tmp_path):
        config = WorkloadConfig.scaled(users=50, days=0.5, seed=11)
        faults = default_fault_plan(config.start_time, 0.5 * DAY, seed=11)
        plan = SyntheticTraceGenerator(config).plan()

        def replay(**kwargs):
            cluster = U1Cluster(ClusterConfig(seed=11, faults=faults))
            return cluster, cluster.replay_plan(plan, **kwargs)

        undisturbed_cluster, undisturbed = replay()
        replay(checkpoint_dir=tmp_path)
        resumed_cluster, resumed = replay(checkpoint_dir=tmp_path,
                                          resume=True)
        assert resumed_cluster.last_replay_stats["completion_order"] == []
        assert resumed.content_digest() == undisturbed.content_digest()
        assert any(undisturbed_cluster.last_replay_stats[
            "fault_counters"].values())  # the windows fired
        assert _fleet_counters(resumed_cluster, resumed) == \
            _fleet_counters(undisturbed_cluster, undisturbed)

    def test_partial_checkpoints_reexecute_only_missing(self, tmp_path):
        plan = _plan()
        cluster, undisturbed = _replay_plan(plan, n_jobs=1,
                                            checkpoint_dir=tmp_path)
        n_shards = cluster.last_replay_stats["n_shards"]
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        # Simulate a run killed partway: shards 0 and 2 never checkpointed.
        (run_dir / "shard-0000.npz").unlink()
        (run_dir / "shard-0002.npz").unlink()

        resumed_cluster, resumed = _replay_plan(plan, n_jobs=4,
                                                checkpoint_dir=tmp_path,
                                                resume=True)
        stats = resumed_cluster.last_replay_stats
        assert sorted(stats["completion_order"]) == [0, 2]
        assert sorted(stats["shards_resumed"]) == \
            [s for s in range(n_shards) if s not in (0, 2)]
        assert resumed.content_digest() == undisturbed.content_digest()

    def test_corrupt_checkpoint_reexecutes(self, tmp_path):
        plan = _plan()
        _, undisturbed = _replay_plan(plan, n_jobs=1,
                                      checkpoint_dir=tmp_path)
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        (run_dir / "shard-0001.npz").write_bytes(b"not an npz file")

        resumed_cluster, resumed = _replay_plan(plan, n_jobs=1,
                                                checkpoint_dir=tmp_path,
                                                resume=True)
        stats = resumed_cluster.last_replay_stats
        assert stats["completion_order"] == [1]
        assert resumed.content_digest() == undisturbed.content_digest()

    def test_different_config_never_shares_checkpoints(self, tmp_path):
        plan = _plan()
        _replay_plan(plan, n_jobs=1, checkpoint_dir=tmp_path)
        _replay_plan(plan, n_jobs=1, seed=12, checkpoint_dir=tmp_path)
        run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(run_dirs) == 2

    def test_completed_run_finalizes_manifest(self, tmp_path):
        plan = _plan()
        _replay_plan(plan, n_jobs=2, checkpoint_dir=tmp_path)
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        assert len(manifest["shards"]) == manifest["n_shards"]
        assert manifest["inputs"]["n_shards"] == manifest["n_shards"]


# ---------------------------------------------------------------------------
# Graceful shutdown: drain, flush, interrupted manifest, resumable
# ---------------------------------------------------------------------------

def _manifest(checkpoint_root):
    run_dir = next(p for p in checkpoint_root.iterdir() if p.is_dir())
    return json.loads((run_dir / "MANIFEST.json").read_text())


class TestGracefulShutdown:
    def test_inprocess_interrupt_stops_dispatch(self):
        controller = ShutdownController()
        executed = []

        def task(shard_id):
            executed.append(shard_id)
            if shard_id == 1:
                controller.request(signal.SIGTERM)
            return shard_id

        with pytest.raises(RunInterrupted) as excinfo:
            supervise_shards(task, range(4), jobs=1, use_fork=False,
                             shutdown=controller)
        assert executed == [0, 1]
        assert excinfo.value.completed == 2
        assert excinfo.value.remaining == 2
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.report.interrupted == [2, 3]

    def test_interrupt_carries_report_and_manifest_block(self):
        controller = ShutdownController()

        def task(shard_id):
            if shard_id == 1:
                controller.request(signal.SIGTERM)
            return shard_id

        with pytest.raises(RunInterrupted) as excinfo:
            supervise_shards(task, range(4), jobs=1, use_fork=False,
                             shutdown=controller)
        stats = excinfo.value.report.as_stats()
        assert stats["completion_order"] == [0, 1]
        assert stats["shards_interrupted"] == [2, 3]
        assert excinfo.value.interrupt == {
            "reason": "signal", "signum": signal.SIGTERM,
            "completed": 2, "remaining": 2}

    def test_rss_interrupt_block_records_the_limit(self):
        controller = ShutdownController(max_rss_bytes=1)
        with pytest.raises(RunInterrupted) as excinfo:
            supervise_shards(lambda s: s, range(3), jobs=1, use_fork=False,
                             shutdown=controller)
        interrupt = excinfo.value.interrupt
        assert interrupt["reason"] == "rss"
        assert interrupt["remaining"] == 3 - interrupt["completed"]
        assert interrupt["max_rss_mb"] == pytest.approx(1 / 2**20, abs=1e-4)
        assert interrupt["rss_high_water_mb"] > 0
        assert excinfo.value.report.as_stats()["shards_interrupted"] == \
            list(range(interrupt["completed"], 3))

    def test_rss_watchdog_interrupts(self):
        controller = ShutdownController(max_rss_bytes=1)
        with pytest.raises(RunInterrupted, match="rss limit"):
            supervise_shards(lambda s: s, range(3), jobs=1, use_fork=False,
                             shutdown=controller)

    def test_forked_drain_records_in_flight_results(self):
        # Shutdown is requested while both workers hold a shard: the drain
        # must still record their results instead of discarding them.
        controller = ShutdownController()
        policy = SupervisorPolicy(backoff_base=0.0, shutdown_grace=30.0)

        def task(shard_id):
            import time as _time
            _time.sleep(0.3)
            return shard_id * 10

        import threading
        threading.Timer(0.1, controller.request, args=(signal.SIGTERM,)) \
            .start()
        with pytest.raises(RunInterrupted) as excinfo:
            supervise_shards(task, range(8), jobs=2, policy=policy,
                             use_fork=True, shutdown=controller)
        # The two in-flight shards drained; the rest never dispatched.
        assert excinfo.value.completed >= 2
        assert excinfo.value.remaining == 8 - excinfo.value.completed

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_interrupted_run_resumes_bit_identical(self, n_jobs, tmp_path):
        plan = _plan()
        _, undisturbed = _replay_plan(plan, n_jobs=n_jobs)

        controller = ShutdownController()
        real_save = CheckpointStore.save

        def save_then_request(store, outcome):
            path = real_save(store, outcome)
            controller.request(signal.SIGTERM)
            return path

        with mock.patch.object(CheckpointStore, "save", save_then_request):
            with pytest.raises(RunInterrupted) as excinfo:
                _replay_plan(plan, n_jobs=n_jobs, checkpoint_dir=tmp_path,
                             shutdown=controller)
        assert excinfo.value.completed >= 1
        assert excinfo.value.remaining >= 1
        manifest = _manifest(tmp_path)
        assert manifest["status"] == "interrupted"
        assert len(manifest["shards"]) == excinfo.value.completed

        cluster, resumed = _replay_plan(plan, n_jobs=n_jobs,
                                        checkpoint_dir=tmp_path, resume=True)
        stats = cluster.last_replay_stats
        assert len(stats["shards_resumed"]) == excinfo.value.completed
        assert len(stats["completion_order"]) == excinfo.value.remaining
        assert resumed.content_digest() == undisturbed.content_digest()
        assert resumed == undisturbed
        assert _manifest(tmp_path)["status"] == "complete"
