"""Faulted replay determinism: fault exposure is a pure function of the
plan, never of the worker count — the trace is equal at any ``--jobs``."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from unittest import mock

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.faults.spec import (
    AuthOutage,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
    flapping,
)
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from repro.workload.population import UserClass

SEED = 17
USERS = 60
DAYS = 1.0

_STORAGE_NUMERIC = ("timestamp", "user_id", "session_id", "operation",
                    "size_bytes", "shard_id", "retries")
_RPC_NUMERIC = ("timestamp", "user_id", "rpc", "shard_id", "service_time")
_SESSION_NUMERIC = ("timestamp", "user_id", "session_id", "event",
                    "storage_operations")


def _workload_config():
    # A denser write workload than the paper's 5.57% active sessions: at
    # this scale that share realises only a handful of active sessions, and
    # whether any of them falls inside a fault window depends on the seed.
    return WorkloadConfig.scaled(users=USERS, days=DAYS, seed=SEED,
                                 active_session_fraction=0.25)


#: The user classes whose sessions may upload.
_UPLOAD_CAPABLE = (UserClass.UPLOAD_ONLY, UserClass.HEAVY, UserClass.OCCASIONAL)


def _read_only_shard(start: float, end: float) -> int:
    """The metadata shard with the most planned operations of upload-capable
    users in sessions overlapping ``[start, end)``."""
    n_shards = ClusterConfig(seed=SEED).metadata_shards
    ops = Counter()
    for user_plan in _plan().users:
        if user_plan.user.user_class in _UPLOAD_CAPABLE:
            for spec in user_plan.sessions:
                if spec.n_ops and spec.start < end and spec.end > start:
                    ops[user_plan.user.user_id % n_shards] += spec.n_ops
    return ops.most_common(1)[0][0]


def _fault_plan():
    # Wider windows than default_fault_plan so every fault kind is
    # guaranteed traffic at this small test scale.
    start = _workload_config().start_time
    q = DAYS * DAY / 4.0
    return FaultPlan(faults=(
        *flapping(start + 0.25 * q, start + 2.0 * q, period=q / 4.0,
                  process_index=0, inflation=4.0),
        LossyLink(start + 0.5 * q, start + 2.5 * q, failure_rate=0.15),
        ReadOnlyShard(start + 1.0 * q, start + 2.0 * q,
                      shard_id=_read_only_shard(start + 1.0 * q,
                                                start + 2.0 * q)),
        StorageNodeOutage(start + 1.5 * q, start + 3.0 * q, node_index=1,
                          n_nodes=3),
        AuthOutage(start + 3.0 * q, start + 3.3 * q),
    ), seed=SEED)


def _cluster():
    return U1Cluster(ClusterConfig(seed=SEED, faults=_fault_plan()))


def _plan():
    return SyntheticTraceGenerator(_workload_config()).plan()


class TestFaultedJobCountEquivalence:
    """ISSUE 6 acceptance: the faulted replay is bit-identical at any
    worker count, including the new error_kind/retries outcome columns
    and the fault counters."""

    @pytest.fixture(scope="class")
    def replays(self):
        plan = _plan()
        with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
            out = {}
            for jobs in (1, 2, 4):
                cluster = _cluster()
                out[jobs] = (cluster, cluster.replay_plan(plan, n_jobs=jobs))
            return out

    def test_faults_actually_fired(self, replays):
        cluster, dataset = replays[1]
        counters = cluster.last_replay_stats["fault_counters"]
        assert counters["requests_faulted"] > 0
        assert counters["requests_failed"] > 0
        assert counters["service_unavailable"] > 0
        assert counters["shard_read_only"] > 0
        assert counters["storage_node_down"] > 0
        assert counters["degraded_rpcs"] > 0
        # The outcome columns record the failures row-for-row.
        codes, kinds = dataset.storage_codes("error_kind")
        failed = sum(1 for kind in kinds if kind) and int(
            np.count_nonzero(codes != kinds.index("")))
        assert failed == counters["requests_failed"]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_faulted_datasets_bit_identical(self, replays, jobs):
        _, sequential = replays[1]
        _, parallel = replays[jobs]
        for name in _STORAGE_NUMERIC:
            assert np.array_equal(sequential.storage_column(name),
                                  parallel.storage_column(name)), name
        for name in _RPC_NUMERIC:
            assert np.array_equal(sequential.rpc_column(name),
                                  parallel.rpc_column(name)), name
        for name in _SESSION_NUMERIC:
            assert np.array_equal(sequential.session_column(name),
                                  parallel.session_column(name)), name
        # Record-level equality covers the string columns (error_kind,
        # content_hash, server) the numeric sweep above skips.
        assert sequential == parallel

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fault_counters_identical_across_job_counts(self, replays, jobs):
        sequential, _ = replays[1]
        parallel, _ = replays[jobs]
        assert (sequential.last_replay_stats["fault_counters"]
                == parallel.last_replay_stats["fault_counters"])
        assert (sequential.last_replay_stats["metadata_shard_errors"]
                == parallel.last_replay_stats["metadata_shard_errors"])

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fused_bit_identical_across_job_counts(self, replays, jobs):
        sequential_cluster, sequential = replays[1]
        parallel_cluster, parallel = replays[jobs]
        assert sequential == parallel
        assert (sequential_cluster.last_replay_stats["fault_counters"]
                == parallel_cluster.last_replay_stats["fault_counters"])

    def test_faulted_replay_deterministic_across_runs(self, replays):
        # A fresh plan and cluster replay the same trace and counters.
        a_cluster, a = replays[1]
        b_cluster = _cluster()
        b = b_cluster.replay_plan(_plan())
        assert a == b
        assert (a_cluster.last_replay_stats["fault_counters"]
                == b_cluster.last_replay_stats["fault_counters"])


class TestFaultStatsSurface:
    def test_per_shard_counters_sum_to_total(self):
        cluster = _cluster()
        cluster.replay_plan(_plan(), n_jobs=1)
        stats = cluster.last_replay_stats
        per_shard = stats["shard_fault_counters"]
        assert len(per_shard) == stats["n_shards"]
        totals = stats["fault_counters"]
        for key, value in totals.items():
            if isinstance(value, float):
                assert sum(c[key] for c in per_shard) == pytest.approx(value)
            else:
                assert sum(c[key] for c in per_shard) == value
        # The read-only shard rejections surface per metadata shard too.
        shard_errors = stats["metadata_shard_errors"]
        assert sum(shard_errors) == totals["shard_read_only"]

    def test_stats_cover_one_replay_on_a_reused_cluster(self):
        # The stats describe only the latest replay the cluster ran.
        cluster = _cluster()
        plan = _plan()
        cluster.replay_plan(plan, n_jobs=1)
        first = cluster.last_replay_stats
        cluster.replay_plan(plan, n_jobs=1)
        second = cluster.last_replay_stats
        assert first["fault_counters"]["shard_read_only"] > 0
        assert second["fault_counters"] == first["fault_counters"]
        assert second["metadata_shard_errors"] == \
            first["metadata_shard_errors"]
        assert sum(second["metadata_shard_errors"]) == \
            second["fault_counters"]["shard_read_only"]

    def test_zero_fault_replay_has_no_metadata_shard_errors(self):
        cluster = U1Cluster(ClusterConfig(seed=SEED))
        cluster.replay_plan(_plan(), n_jobs=1)
        assert cluster.last_replay_stats["metadata_shard_errors"] == \
            [0] * cluster.config.metadata_shards

    def test_zero_fault_replay_records_clean_outcome_columns(self):
        cluster = U1Cluster(ClusterConfig(seed=SEED))
        dataset = cluster.replay_plan(_plan())
        assert not np.any(dataset.storage_column("retries"))
        codes, kinds = dataset.storage_codes("error_kind")
        assert set(kinds) == {""}
        assert cluster.last_replay_stats["fault_counters"] \
            ["requests_faulted"] == 0
