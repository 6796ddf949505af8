"""Offline what-if simulator vs the live back-end: the equivalence pins.

The offline passes run over the *baseline* replay's trace columns; the live
side replays the same workload plan with the policy applied for real.  With a
single replay shard (global store), uninterrupted uploads and a pinned
finalize instant, the two must agree to the counter — which is what makes
the sweep's what-if numbers trustworthy.
"""

from __future__ import annotations

import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.util.units import DAY, HOUR, MB
from repro.whatif.simulator import PolicySpec, StorageTrace, simulate_policy
from repro.whatif.sweep import default_policies, run_sweep
from repro.whatif.tiering import TieringPolicy
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members

SEED = 17


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig.scaled(users=60, days=1.0, seed=SEED)
    return SyntheticTraceGenerator(config).plan()


def live_replay(workload, **overrides):
    """A live replay under equivalence conditions (see the module docstring)."""
    cluster = U1Cluster(ClusterConfig(seed=SEED, replay_shards=1,
                                      interrupted_upload_fraction=0.0,
                                      auth_failure_fraction=0.0,
                                      **overrides))
    dataset = cluster.replay_plan(workload)
    return cluster, dataset


@pytest.fixture(scope="module")
def baseline(workload):
    cluster, dataset = live_replay(workload)
    return cluster, dataset, StorageTrace.from_dataset(dataset), \
        max(script.end for script in materialize_members(workload))


class TestOfflineMatchesLive:
    def test_baseline_accounting_and_object_count(self, baseline):
        cluster, _, trace, end = baseline
        outcome = simulate_policy(trace, PolicySpec("baseline"), end_time=end)
        assert outcome.accounting == cluster.object_store.accounting
        assert outcome.object_count == len(cluster.object_store)

    def test_no_dedup_accounting(self, workload, baseline):
        _, _, trace, end = baseline
        cluster, _ = live_replay(workload, dedup_enabled=False)
        outcome = simulate_policy(trace, PolicySpec("no-dedup", dedup=False),
                                  end_time=end)
        assert outcome.accounting == cluster.object_store.accounting

    def test_delta_updates_accounting(self, workload, baseline):
        _, _, trace, end = baseline
        cluster, _ = live_replay(workload, delta_updates_enabled=True)
        outcome = simulate_policy(
            trace, PolicySpec("delta", delta_update_factor=0.05),
            end_time=end)
        assert outcome.accounting == cluster.object_store.accounting

    @pytest.mark.parametrize("policy", [
        TieringPolicy(age_threshold=2 * HOUR),
        TieringPolicy(age_threshold=2 * HOUR, promote_on_access=False),
        TieringPolicy(age_threshold=2 * HOUR, hot_capacity_bytes=4 * MB,
                      eviction="lru"),
        TieringPolicy(age_threshold=2 * HOUR, hot_capacity_bytes=4 * MB,
                      eviction="lfu", promote_on_access=False),
        TieringPolicy(age_threshold=6 * HOUR, hot_capacity_bytes=16 * MB,
                      eviction="size"),
    ], ids=["age", "age-no-promote", "lru-cap", "lfu-cap", "size-cap"])
    def test_tiering_hit_and_migration_counters(self, workload, baseline,
                                                policy):
        """The acceptance pin: offline hit/migration counters equal a live
        tiered replay's accounting, field for field."""
        _, _, trace, end = baseline
        cluster, _ = live_replay(workload, tiering=policy)
        outcome = simulate_policy(trace, PolicySpec("tier", tiering=policy),
                                  end_time=end)
        live = cluster.object_store.accounting
        assert outcome.accounting == live
        # The interesting counters actually fired on this workload.
        assert live.migrations > 0
        assert live.hot_hits + live.cold_hits == live.get_requests

    def test_tiered_replay_trace_is_bit_identical_to_baseline(self, workload,
                                                              baseline):
        _, dataset, _, _ = baseline
        _, tiered = live_replay(
            workload, tiering=TieringPolicy(age_threshold=2 * HOUR))
        assert tiered == dataset

    def test_finalize_instant_matches_timeline_end_stat(self, workload,
                                                        baseline):
        cluster, _, _, end = baseline
        assert cluster.last_replay_stats["timeline_end"] == pytest.approx(end)


class TestStorageTrace:
    def test_decodes_only_store_relevant_records(self, baseline):
        _, dataset, trace, _ = baseline
        assert 0 < len(trace) <= len(dataset.storage)
        assert trace.n_records == len(dataset.storage)

    def test_empty_dataset(self):
        from repro.trace.dataset import TraceDataset

        trace = StorageTrace.from_dataset(TraceDataset())
        assert len(trace) == 0
        outcome = simulate_policy(trace, PolicySpec("baseline"))
        assert outcome.accounting.bytes_stored == 0


class TestSweep:
    def test_default_sweep_covers_required_policies(self, baseline):
        _, _, trace, end = baseline
        sweep = run_sweep(trace, end_time=end)
        names = [outcome.spec.name for outcome in sweep.outcomes]
        assert len(names) >= 4
        assert names[0] == "baseline"
        assert {"baseline", "no-dedup", "delta-updates", "tier-age"} \
            <= set(names)
        assert sweep.seconds > 0.0

    def test_sweep_results_are_economically_sane(self, baseline):
        _, _, trace, end = baseline
        sweep = run_sweep(trace, end_time=end)
        baseline_out = sweep.baseline
        no_dedup = sweep.outcome("no-dedup")
        delta = sweep.outcome("delta-updates")
        assert no_dedup.accounting.bytes_stored \
            >= baseline_out.accounting.bytes_stored
        assert delta.accounting.bytes_uploaded \
            <= baseline_out.accounting.bytes_uploaded
        capped = sweep.outcome("tier-lru-cap")
        assert capped.accounting.cold_bytes > 0
        assert 0.0 <= capped.accounting.hot_hit_rate <= 1.0
        # The auto-sized hot budget sits below what age demotion alone
        # reaches, so the eviction path genuinely fires (more migrations
        # than the pure age policy).
        assert capped.accounting.migrations \
            > sweep.outcome("tier-age").accounting.migrations

    def test_sweep_json_payload(self, baseline):
        import json

        _, _, trace, end = baseline
        payload = run_sweep(trace, end_time=end).to_json()
        assert payload["n_policies"] == len(payload["policies"])
        assert payload["whatif_sweep_seconds"] > 0.0
        assert payload["cold_bytes"] >= 0
        assert 0.0 <= payload["hot_hit_rate"] <= 1.0
        json.dumps(payload)  # must be JSON-serialisable

    def test_sweep_accepts_dataset_and_explicit_policies(self, baseline):
        _, dataset, _, end = baseline
        sweep = run_sweep(dataset, policies=default_policies()[:2],
                          end_time=end)
        assert [o.spec.name for o in sweep.outcomes] == ["baseline",
                                                         "no-dedup"]
        with pytest.raises(ValueError):
            run_sweep(dataset, policies=[])

    def test_format_table_lists_every_policy(self, baseline):
        _, _, trace, end = baseline
        sweep = run_sweep(trace, end_time=end)
        table = sweep.format_table()
        for outcome in sweep.outcomes:
            assert outcome.spec.name in table
