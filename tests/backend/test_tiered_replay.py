"""Tier accounting under the sharded replay: merge equivalence at any jobs.

The tier counters ride the existing counter-summary path
(``StorageAccounting.merge`` / ``ObjectStore.absorb_summary``), so a tiered
replay must produce identical tier/retrieval counters whether the shards run
sequentially or across forked workers — and an identical trace to boot.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.util.units import HOUR, MB
from repro.whatif.tiering import TieringPolicy
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

_POLICY = TieringPolicy(age_threshold=2 * HOUR, hot_capacity_bytes=8 * MB,
                        eviction="lru")


def _plan(seed: int = 23, users: int = 60, days: float = 1.0):
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    return SyntheticTraceGenerator(config).plan()


def _tiered_replay(plan, n_jobs: int):
    cluster = U1Cluster(ClusterConfig(seed=23, tiering=_POLICY))
    dataset = cluster.replay_plan(plan, n_jobs=n_jobs)
    return cluster, dataset


class TestTieredShardMerge:
    @pytest.fixture(scope="class")
    def replays(self):
        plan = _plan()
        # Pretend the machine has plenty of CPUs so n_jobs > 1 really runs
        # the forked worker pool even on small CI boxes.
        with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
            return {jobs: _tiered_replay(plan, jobs) for jobs in (1, 2, 4)}

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_tier_counters_identical_across_job_counts(self, replays, jobs):
        sequential, _ = replays[1]
        parallel, _ = replays[jobs]
        assert sequential.object_store.accounting \
            == parallel.object_store.accounting

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_datasets_identical_across_job_counts(self, replays, jobs):
        _, sequential = replays[1]
        _, parallel = replays[jobs]
        assert sequential == parallel

    def test_tiering_actually_fired(self, replays):
        cluster, _ = replays[1]
        accounting = cluster.object_store.accounting
        assert accounting.migrations > 0
        assert accounting.cold_bytes > 0
        assert accounting.hot_bytes + accounting.cold_bytes \
            == accounting.bytes_stored
        assert accounting.hot_hits + accounting.cold_hits \
            == accounting.get_requests
        assert 0.0 <= accounting.hot_hit_rate <= 1.0

    def test_timeline_end_recorded(self, replays):
        cluster, _ = replays[1]
        assert cluster.last_replay_stats["timeline_end"] > 0.0


class TestTieringIsTraceNeutral:
    def test_tiered_and_untiered_replays_emit_the_same_trace(self):
        plan = _plan(seed=29, users=40)
        untiered = U1Cluster(ClusterConfig(seed=29)).replay_plan(plan)
        tiered = U1Cluster(ClusterConfig(seed=29, tiering=_POLICY)) \
            .replay_plan(plan)
        assert tiered == untiered
