"""Offline what-if simulator vs the live back-end: the equivalence pins.

The offline passes run over the *baseline* replay's trace columns; the live
side replays the same workload plan with the dedup or delta knob applied for
real.  With a single replay shard (global store) and uninterrupted uploads,
the untiered counters must agree to the counter — which is what makes the
sweep's what-if numbers trustworthy.  That holds under faults too: the
requests that failed on a fault stay out of both stores.  Tiering has no live counterpart: its
counters are pinned to the brute-force reference of ``test_tiering.py``
run over the metadata pass's tier-event log, and the log itself is tied to
the untiered store.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.uploadjob import UPLOAD_CHUNK_BYTES
from repro.faults.spec import default_fault_plan
from repro.util.units import DAY, HOUR, MB
from repro.whatif.simulator import (
    _RELEVANT,
    PolicySpec,
    StorageTrace,
    _metadata_pass,
    simulate_policy,
)
from repro.whatif.sweep import default_policies, run_sweep
from repro.whatif.tiering import (
    ADMIT,
    DOWNLOAD,
    REMOVE,
    TIER_FIELDS,
    TieringPolicy,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from tests.whatif.test_tiering import ReferenceTiers

SEED = 17


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig.scaled(users=60, days=1.0, seed=SEED)
    return SyntheticTraceGenerator(config).plan()


def live_replay(workload, seed=SEED, **overrides):
    """A live replay under equivalence conditions (see the module docstring)."""
    cluster = U1Cluster(ClusterConfig(seed=seed, replay_shards=1,
                                      interrupted_upload_fraction=0.0,
                                      auth_failure_fraction=0.0,
                                      **overrides))
    dataset = cluster.replay_plan(workload)
    return cluster, dataset


@pytest.fixture(scope="module")
def baseline(workload):
    cluster, dataset = live_replay(workload)
    return cluster, dataset, StorageTrace.from_dataset(dataset), \
        float(materialize_members(workload).end.max())


#: Untiered store semantics of the what-if specs, with the live knobs that
#: realise each.
SEMANTICS = {
    "baseline": ({}, {}),
    "no-dedup": ({"dedup": False}, {"dedup_enabled": False}),
    "delta": ({"delta_update_factor": 0.05}, {"delta_updates_enabled": True}),
}

POLICIES = {
    "age": TieringPolicy(age_threshold=2 * HOUR),
    "age-no-promote": TieringPolicy(age_threshold=2 * HOUR,
                                    promote_on_access=False),
    "lru-cap": TieringPolicy(age_threshold=2 * HOUR, hot_capacity_bytes=4 * MB,
                             eviction="lru"),
    "lfu-cap": TieringPolicy(age_threshold=2 * HOUR, hot_capacity_bytes=4 * MB,
                             eviction="lfu", promote_on_access=False),
    "size-cap": TieringPolicy(age_threshold=6 * HOUR,
                              hot_capacity_bytes=16 * MB, eviction="size"),
}


@pytest.fixture(scope="module")
def live_stores(workload):
    """The live object store of each untiered semantics."""
    return {name: live_replay(workload, **knobs)[0].object_store
            for name, (_, knobs) in SEMANTICS.items()}


def recorded_pass(trace, end, semantics: str):
    """The metadata pass of ``semantics`` with its tier-event log."""
    if semantics == "baseline":
        return trace.shared_pass(UPLOAD_CHUNK_BYTES, end)
    spec = PolicySpec(semantics, **SEMANTICS[semantics][0])
    return _metadata_pass(trace, spec, UPLOAD_CHUNK_BYTES, end, record=True)


def untiered(accounting) -> dict:
    return {name: value for name, value in dataclasses.asdict(accounting).items()
            if name not in TIER_FIELDS}


def check_tiered_outcome(baseline, live_stores, semantics, policy):
    """Untiered counters equal the live replay's; tier counters equal the
    brute-force reference over the pass's tier-event log."""
    _, _, trace, end = baseline
    outcome = simulate_policy(
        trace, PolicySpec("tier", tiering=policy, **SEMANTICS[semantics][0]),
        end_time=end)
    accounting = outcome.accounting
    assert untiered(accounting) == untiered(live_stores[semantics].accounting)
    resolved = recorded_pass(trace, end, semantics)
    expected = ReferenceTiers(policy, resolved.sizes).run(resolved.events, end)
    assert {name: getattr(accounting, name) for name in TIER_FIELDS} \
        == expected
    assert all(type(getattr(accounting, name)) is int for name in TIER_FIELDS)
    # The interesting counters actually fired on this workload.
    assert accounting.migrations > 0
    assert accounting.hot_hits + accounting.cold_hits \
        == accounting.get_requests
    assert accounting.hot_bytes + accounting.cold_bytes \
        == accounting.bytes_stored


class TestOfflineMatchesLive:
    def test_baseline_accounting_and_object_count(self, baseline):
        cluster, _, trace, end = baseline
        outcome = simulate_policy(trace, PolicySpec("baseline"), end_time=end)
        assert outcome.accounting == cluster.object_store.accounting
        assert outcome.object_count == len(cluster.object_store)

    def test_no_dedup_accounting(self, baseline, live_stores):
        _, _, trace, end = baseline
        outcome = simulate_policy(trace, PolicySpec("no-dedup", dedup=False),
                                  end_time=end)
        assert outcome.accounting == live_stores["no-dedup"].accounting

    def test_delta_updates_accounting(self, baseline, live_stores):
        _, _, trace, end = baseline
        outcome = simulate_policy(
            trace, PolicySpec("delta", delta_update_factor=0.05),
            end_time=end)
        assert outcome.accounting == live_stores["delta"].accounting

    @pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
    def test_tiering_hit_and_migration_counters(self, baseline, live_stores,
                                                policy):
        """The acceptance pin over the baseline semantics."""
        check_tiered_outcome(baseline, live_stores, "baseline", policy)

    @pytest.mark.parametrize("semantics", ["no-dedup", "delta"])
    @pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
    def test_tiering_over_changed_semantics(self, baseline, live_stores,
                                            semantics, policy):
        check_tiered_outcome(baseline, live_stores, semantics, policy)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_tier_event_log_matches_untiered_store(self, baseline,
                                                   live_stores, semantics):
        _, _, trace, end = baseline
        resolved = recorded_pass(trace, end, semantics)
        store = live_stores[semantics]
        assert resolved.accounting == store.accounting
        kinds = [kind for kind, _, _ in resolved.events]
        removed = {seg for kind, seg, _ in resolved.events if kind == REMOVE}
        assert kinds.count(ADMIT) == len(resolved.sizes)
        assert kinds.count(ADMIT) - kinds.count(REMOVE) \
            == resolved.object_count == len(store)
        assert sum(size for seg, size in enumerate(resolved.sizes)
                   if seg not in removed) == store.accounting.bytes_stored
        assert kinds.count(DOWNLOAD) == store.accounting.get_requests

    def test_finalize_instant_matches_timeline_end_stat(self, baseline):
        cluster, _, _, end = baseline
        assert cluster.last_replay_stats["timeline_end"] == pytest.approx(end)


class TestFaultedReplay:
    """A live replay under the reference incident day: the storage rows
    that failed on a fault never reached the live store, nor the offline
    one."""

    @pytest.fixture(scope="class")
    def faulted(self):
        # Large enough that faults fail uploads, downloads and unlinks, not
        # only metadata reads.
        config = WorkloadConfig.scaled(users=250, days=2.0, seed=2014)
        plan = default_fault_plan(config.start_time, 2 * DAY, seed=2014)
        return live_replay(SyntheticTraceGenerator(config).plan(),
                           seed=2014, faults=plan)

    def test_baseline_matches_live_store(self, faulted):
        cluster, dataset = faulted
        failed = dataset.storage_column("error_kind") != ""
        assert failed.any(), "the fault plan failed no storage request"
        trace = StorageTrace.from_dataset(dataset)
        outcome = simulate_policy(
            trace, PolicySpec("baseline"),
            end_time=cluster.last_replay_stats["timeline_end"])
        assert outcome.accounting == cluster.object_store.accounting
        assert outcome.object_count == len(cluster.object_store)

    def test_failed_rows_are_not_decoded(self, faulted):
        _, dataset = faulted
        relevant = np.isin(dataset.storage_column("operation"), _RELEVANT)
        served = dataset.storage_column("error_kind") == ""
        trace = StorageTrace.from_dataset(dataset)
        assert len(trace) == int(np.sum(relevant & served)) \
            < int(np.sum(relevant))
        assert trace.n_records == len(dataset.storage)


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
