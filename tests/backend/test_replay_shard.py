"""Tests for the sharded replay engine: determinism, partitioning, merge."""

from __future__ import annotations

import numpy as np
import pytest

from unittest import mock

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import (
    fork_available,
    lpt_assignment,
    partition_members,
)
from repro.trace.dataset import ColumnBlock, TraceDataset
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from tests.conftest import (
    events_of,
    make_storage,
    replay_scripts,
    script,
    scripts_of,
    trace_load,
)


def _plan(seed: int = 11, users: int = 80, days: float = 1.0):
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    return SyntheticTraceGenerator(config).plan()


def _replay(plan, n_jobs: int, seed: int = 11):
    cluster = U1Cluster(ClusterConfig(seed=seed))
    dataset = cluster.replay_plan(plan, n_jobs=n_jobs)
    return cluster, dataset


_STORAGE_COLUMNS = ("timestamp", "server", "process", "user_id", "session_id",
                    "operation", "node_id", "volume_id", "volume_type",
                    "node_kind", "size_bytes", "content_hash", "extension",
                    "is_update", "shard_id", "caused_by_attack")
_RPC_COLUMNS = ("timestamp", "server", "process", "user_id", "session_id",
                "rpc", "shard_id", "service_time", "api_operation",
                "caused_by_attack")
_SESSION_COLUMNS = ("timestamp", "server", "process", "user_id", "session_id",
                    "event", "caused_by_attack", "session_length",
                    "storage_operations")


@pytest.fixture(scope="module")
def replays():
    """The default workload replayed once per worker count: ``{jobs:
    (cluster, dataset)}``, shared by every class of this module."""
    plan = _plan()
    # Pretend the machine has plenty of CPUs so n_jobs > 1 really runs the
    # forked worker pool (the point of the tests) even on small CI boxes
    # where run_shards_supervised would otherwise cap the worker count.
    with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
        return {jobs: _replay(plan, jobs) for jobs in (1, 2, 4)}


class TestJobCountEquivalence:
    """The headline guarantee: output is bit-identical for any worker count."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_datasets_bit_identical_across_job_counts(self, replays, jobs):
        _, sequential = replays[1]
        _, parallel = replays[jobs]
        for name in ("timestamp", "user_id", "session_id", "size_bytes",
                     "caused_by_attack", "operation"):
            assert np.array_equal(sequential.storage_column(name),
                                  parallel.storage_column(name)), name
        for name in ("timestamp", "user_id", "rpc", "shard_id",
                     "service_time"):
            assert np.array_equal(sequential.rpc_column(name),
                                  parallel.rpc_column(name)), name
        for name in ("timestamp", "user_id", "event", "session_length",
                     "storage_operations"):
            assert np.array_equal(sequential.session_column(name),
                                  parallel.session_column(name)), name
        # Field-by-field record equality across all three streams (covers
        # the string-valued columns the checks above skip).
        assert sequential == parallel

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_cluster_counters_identical_across_job_counts(self, replays, jobs):
        sequential_cluster, sequential = replays[1]
        parallel_cluster, parallel = replays[jobs]
        assert sequential_cluster.processes == parallel_cluster.processes
        assert (sequential_cluster.gateway.total_assigned()
                == parallel_cluster.gateway.total_assigned())
        n_shards = sequential_cluster.config.metadata_shards
        assert (trace_load(sequential, n_shards)
                == trace_load(parallel, n_shards))
        assert (sequential_cluster.object_store.accounting
                == parallel_cluster.object_store.accounting)

    def test_replay_is_deterministic_across_runs(self, replays):
        # A fresh generator, plan and cluster replay the same trace.
        assert _replay(_plan(), 1)[1] == replays[1][1]

    def test_stats_record_jobs_and_shards(self, replays):
        cluster, _ = replays[4]
        stats = cluster.last_replay_stats
        assert stats["n_shards"] == ClusterConfig().effective_replay_shards()
        expected_jobs = 4 if fork_available() else 1
        assert stats["n_jobs"] == expected_jobs
        assert len(stats["shard_seconds"]) == stats["n_shards"]
        assert stats["merge_seconds"] >= 0.0


class TestPartitioning:
    def test_partition_is_disjoint_and_complete(self):
        plan = _plan(seed=3, users=40)
        parts = partition_members(plan, 8)
        assert len(parts) == 8
        assert sorted(m for part in parts for m in part) \
            == list(range(plan.n_members))
        n_scripts = 0
        for part in parts:
            assert part == sorted(part)
            table = materialize_members(plan, part)
            n_scripts += len(table)
            starts = table.start.tolist()
            assert starts == sorted(starts)
        assert n_scripts == len(materialize_members(plan))

    def test_effective_shards_capped_by_process_count(self):
        config = ClusterConfig(api_machines=1, processes_per_machine=2,
                               replay_shards=8)
        assert config.effective_replay_shards() == 2
        # A tiny cluster still replays correctly.
        cluster = U1Cluster(config)
        dataset = cluster.replay_plan(_plan(seed=5, users=20))
        assert not dataset.is_empty

    def test_replay_shards_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(replay_shards=0).validate()


class TestSortedBlockMerge:
    def test_merge_equals_stable_global_sort(self):
        dataset = _replay(_plan(seed=13, users=30), 1, seed=13)[1]
        ts = dataset.storage_column("timestamp")
        assert bool(np.all(ts[1:] >= ts[:-1]))
        ts_rpc = dataset.rpc_column("timestamp")
        assert bool(np.all(ts_rpc[1:] >= ts_rpc[:-1]))

    def test_from_sorted_blocks_accepts_datasets_and_column_blocks(self):
        late = TraceDataset(storage=[make_storage(timestamp=2.0, user_id=1)])
        early = TraceDataset(storage=[make_storage(timestamp=1.0, user_id=2)])
        early_blocks = tuple(ColumnBlock.from_stream(stream) for stream in
                             (early._storage, early._rpc, early._sessions))
        merged = TraceDataset.from_sorted_blocks([late, early_blocks])
        assert [r.user_id for r in merged.storage] == [2, 1]
        assert len(merged._rpc) == 0
        # Packing a dataset block leaves the dataset intact.
        assert [r.user_id for r in late.storage] == [1]

    def test_tie_break_preserves_block_order(self):
        merged = TraceDataset.from_sorted_blocks([
            TraceDataset(storage=[make_storage(timestamp=5.0, server="first")]),
            TraceDataset(storage=[make_storage(timestamp=5.0,
                                               server="second")]),
        ])
        servers = [r[1] for r in merged._storage.rows()]
        assert servers == ["first", "second"]


class TestShardedStateAbsorption:
    def test_fleet_statistics_survive_sharded_replay(self):
        cluster, _ = _replay(_plan(seed=21, users=60), 2, seed=21)
        assert all(v == 0 for v in cluster.gateway._open_connections)
        assert sum(cluster.gateway.total_assigned().values()) > 0
        assert len(cluster.object_store) > 0


class TestScriptOrderIndependenceOfMerge:
    def test_single_session_script_replays_on_one_process(self):
        _, dataset = replay_scripts(ClusterConfig(seed=1),
                                    [script(9, 1, 100.0, 200.0)])
        placements = {(r.server, r.process) for r in dataset.sessions}
        assert len(placements) == 1


class TestLptAssignment:
    def test_deterministic_and_order_independent(self):
        weights = [(1, 5.0), (2, 3.0), (3, 8.0), (4, 1.0), (5, 3.0)]
        a = lpt_assignment(weights, 2)
        b = lpt_assignment(list(reversed(weights)), 2)
        assert a == b
        assert set(a.values()) <= {0, 1}

    def test_flood_member_is_isolated(self):
        # One member carries most of the weight: LPT gives it its own shard
        # instead of piling modulo-neighbours onto it.
        weights = [(0, 100.0)] + [(i, 1.0) for i in range(1, 17)]
        assignment = lpt_assignment(weights, 4)
        flood_shard = assignment[0]
        assert all(assignment[i] != flood_shard for i in range(1, 17))

    def test_thin_shard_takes_lightest_members(self):
        # Member 0 is heavy but has one session: alone on its shard it
        # could reach only one of that shard's processes.
        weights = [(0, 100.0)] + [(i, float(i)) for i in range(1, 13)]
        sessions = {key: 1 for key, _ in weights}
        plain = lpt_assignment(weights, 2)
        assert [k for k, s in plain.items() if s == plain[0]] == [0]
        floored = lpt_assignment(weights, 2, sessions, min_sessions=3)
        assert sorted(k for k, s in floored.items()
                      if s == floored[0]) == [0, 1, 2]
        assert floored == lpt_assignment(list(reversed(weights)), 2,
                                         sessions, min_sessions=3)

    def test_floor_never_starves_a_donor(self):
        weights = [(0, 100.0), (1, 1.0), (2, 1.0), (3, 1.0)]
        sessions = {0: 1, 1: 1, 2: 1, 3: 1}
        assignment = lpt_assignment(weights, 2, sessions, min_sessions=3)
        # The other shard holds exactly the floor, so it spares nothing.
        assert assignment == lpt_assignment(weights, 2)

    def test_zero_weight_members_do_not_perturb(self):
        weights = [(i, float(i % 5) + 1.0) for i in range(20)]
        with_zeros = weights + [(100 + i, 0.0) for i in range(7)]
        base = lpt_assignment(weights, 3)
        extended = lpt_assignment(with_zeros, 3)
        assert all(extended[key] == shard for key, shard in base.items())

    def test_partition_members_is_jobs_independent_by_construction(self):
        plan = _plan()
        assert partition_members(plan, 4) == partition_members(plan, 4)


class TestFusedPipeline:
    """The fused generate->replay path: materialization inside the shard
    workers changes nothing about the workload or the trace."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fused_bit_identical_across_job_counts(self, replays, jobs):
        _, sequential = replays[1]
        _, parallel = replays[jobs]
        for name in _STORAGE_COLUMNS:
            assert np.array_equal(sequential.storage_column(name),
                                  parallel.storage_column(name)), name
        for name in _RPC_COLUMNS:
            assert np.array_equal(sequential.rpc_column(name),
                                  parallel.rpc_column(name)), name
        for name in _SESSION_COLUMNS:
            assert np.array_equal(sequential.session_column(name),
                                  parallel.session_column(name)), name
        assert sequential == parallel

    def test_workload_identical_for_any_shard_partition(self):
        """Materialization is shard-count independent: the scripts the shard
        workers materialize from any member partition equal the parent's
        materialization of the whole plan, block column for block column."""
        plan = _plan()
        reference = scripts_of(materialize_members(plan))
        for n_parts in (1, 2, 4, 8):
            merged = []
            for members in partition_members(plan, n_parts):
                merged.extend(scripts_of(materialize_members(plan, members)))
            merged.sort(key=lambda s: (s.start, s.session_id))
            assert len(merged) == len(reference)
            for a, b in zip(reference, merged):
                assert (a.session_id, a.user_id, a.start, a.end,
                        a.auth_failed, a.caused_by_attack) == \
                    (b.session_id, b.user_id, b.start, b.end,
                     b.auth_failed, b.caused_by_attack)
                assert events_of(a) == events_of(b)

    def test_stats_record_balance_and_ipc(self, replays):
        cluster, _ = replays[1]
        stats = cluster.last_replay_stats
        assert stats["shard_imbalance"] >= 1.0
        assert stats["ipc_block_bytes"] > 0
        assert len(stats["shard_generate_seconds"]) == stats["n_shards"]
        assert stats["events_replayed"] > 0


class TestColumnarOutcome:
    """Shard outcomes cross the boundary as columns and merge column-wise."""

    @pytest.fixture(scope="class")
    def merged(self, replays):
        return replays[1][1]

    def test_every_seeded_column_matches_lazy_recompute(self, merged):
        """Each merged field equals the column packed from the decoded row
        tuples."""
        rebuilt = TraceDataset()
        for label in ("_storage", "_rpc", "_sessions"):
            for row in getattr(merged, label).rows():
                getattr(rebuilt, label).append(row)
        for name in _STORAGE_COLUMNS:
            assert np.array_equal(merged.storage_column(name),
                                  rebuilt.storage_column(name)), name
        for name in _RPC_COLUMNS:
            assert np.array_equal(merged.rpc_column(name),
                                  rebuilt.rpc_column(name)), name
        for name in _SESSION_COLUMNS:
            assert np.array_equal(merged.session_column(name),
                                  rebuilt.session_column(name)), name

    def test_columns_are_pre_seeded_after_merge(self, merged):
        # Every field is resident in the stream's columns (object fields
        # factorised) with nothing left to pack, so no analysis pays lazy
        # materialisation.
        for stream, fields in ((merged._storage, _STORAGE_COLUMNS),
                               (merged._rpc, _RPC_COLUMNS),
                               (merged._sessions, _SESSION_COLUMNS)):
            assert not stream._buf
            for name in fields:
                value = stream._cols[name]
                assert (type(value) is tuple) == (stream.spec.kinds[name]
                                                  is object), name

    def test_record_views_decode_from_columns(self, merged):
        records = merged.storage
        assert len(records) == len(merged._storage)
        first = records[0]
        assert first.timestamp == merged.storage_column("timestamp")[0]

    def test_outcome_blocks_are_numpy_columns(self):
        from repro.trace.dataset import ColumnBlock

        plan = _plan(seed=5, users=20)
        cluster = U1Cluster(ClusterConfig(seed=5))
        cluster.replay_plan(plan)
        # Re-run one shard directly to inspect its outcome payload.
        from repro.backend.replay_shard import (
            PlannedShardWorkload,
            process_slices,
            run_shards_supervised,
        )
        n_shards = cluster.config.effective_replay_shards()
        workloads = [PlannedShardWorkload(plan, members)
                     for members in partition_members(plan, n_shards)]
        outcomes, _, _ = run_shards_supervised(
            cluster.config, process_slices(cluster.config),
            cluster.shard_factors, workloads)
        assert any(outcome.n_events for outcome in outcomes)
        for outcome in outcomes:
            for block in (outcome.storage, outcome.rpc, outcome.sessions):
                assert isinstance(block, ColumnBlock)
                for arr in block.cols.values():
                    assert isinstance(arr, np.ndarray)
            assert outcome.ipc_bytes == (outcome.storage.nbytes
                                         + outcome.rpc.nbytes
                                         + outcome.sessions.nbytes)
            assert outcome.generate_seconds >= 0.0


class TestFreshSeedDigestEquality:
    """Safety net at a seed no other test uses: the pipeline produces
    bit-identical datasets at any worker count — asserted through the
    dataset content digest."""

    SEED = 2027

    def test_fused_unfused_and_job_counts_share_one_digest(self):
        plan = _plan(seed=self.SEED, users=60, days=1.0)
        digests = {}
        with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
            for jobs in (1, 2, 4):
                _, dataset = _replay(plan, jobs, seed=self.SEED)
                digests[f"fused-j{jobs}"] = dataset.content_digest()
        assert len(set(digests.values())) == 1, digests
