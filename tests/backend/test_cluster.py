"""Tests for the assembled U1 cluster and workload replay."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.backend import (
    api_server,
    auth,
    latency,
    notifications,
    rpc_server,
    tracing,
)
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import ProcessTotals
from repro.faults import runtime
from repro.faults.spec import default_fault_plan
from repro.trace.records import ApiOperation, RpcName, SessionEvent
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from tests.conftest import Script, replay_scripts, script, trace_load


class TestClusterConfig:
    def test_defaults_match_paper_deployment(self):
        config = ClusterConfig()
        assert config.api_machines == 6
        assert config.metadata_shards == 10
        assert config.multipart_chunk_bytes == 5 * 1024 * 1024
        config.validate()

    def test_machine_names_follow_logfile_style(self):
        names = ClusterConfig(api_machines=8).machine_names()
        assert len(names) == 8
        assert "whitecurrant" in names
        assert len(set(names)) == 8

    @pytest.mark.parametrize("kwargs", [
        {"api_machines": 0},
        {"metadata_shards": 0},
        {"interrupted_upload_fraction": 1.5},
        {"multipart_chunk_bytes": 0},
        {"processes_per_machine": 0},
        {"replay_shards": 0},
    ])
    def test_validation_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs).validate()


class TestAssembly:
    def test_only_replay_shards_build_servers(self, monkeypatch):
        """A cluster keeps configuration and totals; the servers that serve
        requests exist only inside replay shards."""
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built by U1Cluster")

        for cls in (api_server.ApiServerProcess, api_server.SessionRegistry,
                    rpc_server.RpcWorker, tracing.TraceSink,
                    auth.AuthenticationService, notifications.NotificationBus,
                    latency.ServiceTimeModel, runtime.FaultInjector):
            monkeypatch.setattr(cls, "__init__", refuse)
        config = ClusterConfig(seed=3, faults=default_fault_plan(0.0, 3600.0))
        cluster = U1Cluster(config)
        assert cluster.processes == [ProcessTotals(address)
                                     for address in config.process_addresses()]
        assert cluster.shard_factors == latency.shard_skew_factors(
            3, config.metadata_shards, config.latency)


class TestReplayHandCraftedScripts:
    def _scripts(self) -> list[Script]:
        session = script(5, 1, 1000.0, 2000.0, times=[1010.0, 1020.0],
                         operation=[ApiOperation.MAKE, ApiOperation.UPLOAD],
                         node_id=7, volume_id=3, size_bytes=[0, 1000],
                         content_hash=["", "sha1:h7"], extension=["", "txt"])
        failed = script(6, 2, 1500.0, 1501.0, auth_failed=True)
        return [session, failed]

    def test_replay_emits_all_record_streams(self):
        _, dataset = replay_scripts(ClusterConfig(seed=1), self._scripts())
        assert len(dataset.storage) == 2
        events = Counter(r.event for r in dataset.sessions)
        assert events[SessionEvent.CONNECT] == 1
        assert events[SessionEvent.DISCONNECT] == 1
        assert events[SessionEvent.AUTH_FAIL] == 1
        assert events[SessionEvent.AUTH_REQUEST] == 2
        rpcs = Counter(r.rpc for r in dataset.rpc)
        assert rpcs[RpcName.MAKE_FILE] >= 1
        assert rpcs[RpcName.MAKE_CONTENT] == 1

    def test_replay_routes_by_user_id(self):
        _, dataset = replay_scripts(ClusterConfig(seed=1, metadata_shards=10),
                                    self._scripts())
        assert all(r.shard_id == 5 % 10 for r in dataset.rpc if r.user_id == 5)
        assert all(r.shard_id == 5 % 10 for r in dataset.storage)

    def test_every_user_stays_on_its_shard(self):
        scripts = [script(user, user, 1000.0 + user, 2000.0,
                          times=[1010.0 + user, 1020.0 + user],
                          operation=[ApiOperation.MAKE, ApiOperation.UPLOAD],
                          node_id=7, volume_id=3, size_bytes=[0, 1000],
                          content_hash=["", f"sha1:u{user}"],
                          extension=["", "txt"])
                   for user in range(6)]
        _, dataset = replay_scripts(ClusterConfig(seed=1, metadata_shards=3),
                                    scripts)
        assert {(r.user_id, r.shard_id) for r in dataset.rpc} == {
            (user, user % 3) for user in range(6)}
        assert {(r.user_id, r.shard_id) for r in dataset.storage} == {
            (user, user % 3) for user in range(6)}

    def test_session_sticks_to_one_process(self):
        _, dataset = replay_scripts(ClusterConfig(seed=1), self._scripts())
        placements = {(r.server, r.process) for r in dataset.storage}
        assert len(placements) == 1

    def test_gateway_connections_released_after_replay(self):
        shard, _ = replay_scripts(ClusterConfig(seed=1), self._scripts())
        assert all(v == 0 for v in shard.gateway._open_connections)


class TestReplaySyntheticWorkload:
    def test_full_pipeline_produces_consistent_trace(self, simulated_cluster_and_dataset):
        cluster, dataset = simulated_cluster_and_dataset
        assert dataset.rpc, "back-end replay must produce RPC records"
        # Every storage record's session has a matching connect record.
        connected = {r.session_id for r in dataset.sessions
                     if r.event is SessionEvent.CONNECT}
        assert {r.session_id for r in dataset.storage} <= connected
        # RPC decomposition: at least one RPC per storage operation on average.
        assert len(dataset.rpc) >= len(dataset.storage)
        # The object store holds content and saw dedup hits.
        assert len(cluster.object_store) > 0
        assert cluster.object_store.accounting.dedup_hits > 0
        # Every shard received users (modulo routing over many users).
        load = trace_load(dataset, cluster.config.metadata_shards)
        assert all(count > 0 for count in load["users_per_shard"])
        # The load balancer spread sessions across all processes.
        totals = cluster.gateway.total_assigned()
        assert all(count > 0 for count in totals.values())

    def test_trace_load_is_attributed_to_cluster_processes(
            self, simulated_cluster_and_dataset):
        cluster, dataset = simulated_cluster_and_dataset
        load = trace_load(dataset, cluster.config.metadata_shards)
        addresses = {tuple(address)
                     for address in cluster.config.process_addresses()}
        for stream, rows in (("storage", dataset.storage),
                             ("rpc", dataset.rpc)):
            assert set(load[stream]) <= addresses
            assert sum(load[stream].values()) == len(rows)
        # A session's requests run on the process it connected to.
        placed = {r.session_id: (r.server, r.process) for r in dataset.sessions
                  if r.event is SessionEvent.CONNECT}
        assert all(placed[r.session_id] == (r.server, r.process)
                   for r in dataset.storage)

    def test_users_per_shard_counts_each_user_once(
            self, simulated_cluster_and_dataset):
        cluster, dataset = simulated_cluster_and_dataset
        n_shards = cluster.config.metadata_shards
        users = dataset.rpc_column("user_id")
        # Every RPC row runs on the shard its user routes to ...
        assert (dataset.rpc_column("shard_id") == users % n_shards).all()
        # ... so the per-shard user counts partition the users, each once.
        load = trace_load(dataset, n_shards)
        assert sum(load["users_per_shard"]) == len(set(users.tolist()))

    def test_dedup_disabled_increases_stored_bytes(self):
        config = WorkloadConfig.scaled(users=120, days=2, seed=5)
        plan = SyntheticTraceGenerator(config).plan()
        with_dedup = U1Cluster(ClusterConfig(seed=5, dedup_enabled=True))
        without_dedup = U1Cluster(ClusterConfig(seed=5, dedup_enabled=False))
        with_dedup.replay_plan(plan)
        without_dedup.replay_plan(plan)
        assert (without_dedup.object_store.accounting.bytes_uploaded >=
                with_dedup.object_store.accounting.bytes_uploaded)

