"""Offline mitigation simulator vs the live faulted replay: the pins.

A live replay shard and the offline pass run one fault procedure: mask the
request columns with ``FaultSchedule.faulted_rows``, resolve the rows it
hits with ``FaultInjector.resolve`` and count them with
``FaultAccounting.add_dispositions``.  The shard does it before dispatch
and counts the requests it recorded; the offline pass does it on the
unmitigated faulted trace, whose storage rows are those requests.  For
every listed policy the fault accounting must therefore match a live replay
that ran it counter-for-counter.  Under degraded-process windows the two
accumulated-seconds floats match to rounding (the offline pass inverts the
recorded inflation, so the sums associate differently), and under retry the
two ``degraded_*`` counters are those of the unmitigated replay (the rule
in ``faults/simulator.py``).  The columnar decode and the row prefilter are
also pinned against scalar reference loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.faults.mitigation import MitigationPolicy, default_mitigations
from repro.faults.runtime import _float_bits, compile_plan
from repro.faults.simulator import (
    FaultTrace,
    _request_rows,
    simulate_mitigation,
)
from repro.faults.spec import (
    AuthOutage,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
    default_fault_plan,
    flapping,
)
from repro.faults.sweep import run_fault_sweep
from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import MUTATING_OPERATIONS
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

SEED = 17

#: Seeds of the policy-by-policy live pins (workload, cluster and plan).
PIN_SEEDS = (SEED, 2014, 7)

#: The counters a live retry replay may move under degraded-process
#: windows; offline they stay those of the unmitigated replay.
DEGRADED_COUNTERS = ("degraded_rpcs", "degraded_extra_seconds")


def _workload_config(seed: int = SEED):
    return WorkloadConfig.scaled(users=60, days=1.0, seed=seed)


def _fault_plan(degraded: bool = False, seed: int = SEED) -> FaultPlan:
    start = _workload_config(seed).start_time
    q = DAY / 4.0
    faults = [
        LossyLink(start + 0.5 * q, start + 2.5 * q, failure_rate=0.15),
        # Shard 2 is where this workload's mutating users hash to.
        ReadOnlyShard(start + 1.0 * q, start + 2.0 * q, shard_id=2),
        StorageNodeOutage(start + 1.5 * q, start + 3.0 * q, node_index=1,
                          n_nodes=3),
        AuthOutage(start + 3.0 * q, start + 3.3 * q),
    ]
    if degraded:
        faults = list(flapping(start + 0.25 * q, start + 2.0 * q,
                               period=q / 4.0, process_index=0,
                               inflation=4.0)) + faults
    return FaultPlan(faults=tuple(faults), seed=seed)


#: The plans every listed policy is pinned on: the degraded-free plan above
#: and the ``repro faultsweep`` incident day (it flaps a process too).
PIN_PLANS = {
    "degraded-free": lambda seed: _fault_plan(seed=seed),
    "default": lambda seed: default_fault_plan(
        _workload_config(seed).start_time, DAY, seed=seed),
}


@pytest.fixture(scope="module")
def workload():
    return SyntheticTraceGenerator(_workload_config()).plan()


def live_replay(workload, plan, mitigation=None, seed=SEED):
    """A live faulted replay under the equivalence conditions."""
    overrides = {} if mitigation is None else {"mitigation": mitigation}
    cluster = U1Cluster(ClusterConfig(seed=seed, replay_shards=1,
                                      interrupted_upload_fraction=0.0,
                                      auth_failure_fraction=0.0,
                                      faults=plan, **overrides))
    dataset = cluster.replay_plan(workload)
    return cluster, dataset


def _decoded(cluster, dataset) -> FaultTrace:
    return FaultTrace.from_dataset(
        dataset,
        processes_per_machine=cluster.config.processes_per_machine,
        machine_names=cluster.config.machine_names())


@pytest.fixture(scope="module")
def pin_baselines():
    """``(plan, seed) -> (workload, plan, unmitigated cluster, dataset,
    decoded trace)``, built on first use."""
    cache = {}

    def get(plan_name, seed):
        key = (plan_name, seed)
        if key not in cache:
            workload = SyntheticTraceGenerator(_workload_config(seed)).plan()
            plan = PIN_PLANS[plan_name](seed)
            cluster, dataset = live_replay(workload, plan, seed=seed)
            cache[key] = (workload, plan, cluster, dataset,
                          _decoded(cluster, dataset))
        return cache[key]

    return get


def _assert_counters_equal(offline: dict, live: dict) -> None:
    """Integers exactly; the accumulated-seconds floats to rounding (the
    offline pass inverts the recorded inflation, so sums associate
    differently)."""
    assert set(offline) == set(live)
    for key, value in live.items():
        if isinstance(value, float):
            assert offline[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert offline[key] == value, key


@pytest.fixture(scope="module")
def baseline(pin_baselines):
    """Unmitigated faulted replay of the degraded-free plan."""
    _, _, cluster, dataset, _ = pin_baselines("degraded-free", SEED)
    return cluster, dataset, FaultTrace.from_dataset(dataset)


@pytest.fixture(scope="module")
def degraded_baseline(workload):
    """Unmitigated faulted replay of the plan with a flapping process."""
    cluster, dataset = live_replay(workload, _fault_plan(degraded=True))
    return cluster, dataset, _decoded(cluster, dataset)


def _retry_policy() -> MitigationPolicy:
    policy = next(p for p in default_mitigations() if p.name == "retry-3")
    assert policy.kind == "retry"
    return policy


class TestOfflineMatchesLive:
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    @pytest.mark.parametrize("plan_name", sorted(PIN_PLANS))
    @pytest.mark.parametrize("policy", default_mitigations(),
                             ids=lambda policy: policy.name)
    def test_retry_policy_pins_live_mitigated_replay(self, pin_baselines,
                                                     policy, plan_name, seed):
        """Every policy the sweep lists equals a live replay that ran it,
        counter for counter: exactly on the degraded-free plan; on the
        flapping incident day the floats to rounding, with retry's
        ``degraded_*`` counters those of the unmitigated replay."""
        workload, plan, cluster, _, trace = pin_baselines(plan_name, seed)
        unmitigated = cluster.last_replay_stats["fault_counters"]
        if policy.kind == "none":
            live = unmitigated  # the baseline replay ran do-nothing
        else:
            live_cluster, _ = live_replay(workload, plan, mitigation=policy,
                                          seed=seed)
            live = live_cluster.last_replay_stats["fault_counters"]
            assert live["retries"] > 0
            assert live["requests_recovered"] > 0
        assert live["requests_faulted"] > 0
        offline = simulate_mitigation(trace, cluster.fault_schedule,
                                      policy).accounting.as_dict()
        if plan_name == "degraded-free":
            assert offline == live
        else:
            if policy.kind == "retry":
                live = {**live, **{key: unmitigated[key]
                                   for key in DEGRADED_COUNTERS}}
            _assert_counters_equal(offline, live)

    def test_degraded_counters_pin_to_rounding(self, degraded_baseline):
        """With degraded-process windows the integer counters still pin
        exactly; the two accumulated-seconds floats pin to rounding."""
        cluster, _, trace = degraded_baseline
        outcome = simulate_mitigation(trace, cluster.fault_schedule,
                                      MitigationPolicy("do-nothing", "none"))
        live = cluster.last_replay_stats["fault_counters"]
        assert live["degraded_rpcs"] > 0
        _assert_counters_equal(outcome.accounting.as_dict(), live)

    @pytest.mark.parametrize(
        "policy", [p for p in default_mitigations() if p.kind == "retry"],
        ids=lambda policy: policy.name)
    def test_live_retry_moves_only_degraded_counters(
            self, workload, degraded_baseline, policy):
        """Under a flapping process a live retry replay differs from the
        offline pass in exactly the two ``degraded_*`` counters; the
        offline ones stay those of the unmitigated replay."""
        cluster, _, trace = degraded_baseline
        live_cluster, _ = live_replay(workload, _fault_plan(degraded=True),
                                      mitigation=policy)
        live = live_cluster.last_replay_stats["fault_counters"]
        offline = simulate_mitigation(trace, cluster.fault_schedule,
                                      policy).accounting.as_dict()
        assert live["requests_recovered"] > 0
        assert set(offline) == set(live)
        differ = {key for key, value in live.items()
                  if offline[key] != pytest.approx(value, rel=1e-9)}
        assert differ == set(DEGRADED_COUNTERS)
        unmitigated = cluster.last_replay_stats["fault_counters"]
        for key in differ:
            assert offline[key] == pytest.approx(unmitigated[key],
                                                 rel=1e-9), key

    def test_degraded_plan_requires_worker_mapping(self, degraded_baseline):
        cluster, dataset, _ = degraded_baseline
        bare = FaultTrace.from_dataset(dataset)
        with pytest.raises(ValueError, match="degraded-process"):
            simulate_mitigation(bare, cluster.fault_schedule,
                                MitigationPolicy("do-nothing", "none"))

    def test_auth_outage_failures_match_session_stream(self, baseline):
        cluster, dataset, trace = baseline
        stats = trace.schedule_stats(cluster.fault_schedule)
        assert stats.auth_outage_failures \
            == cluster.last_replay_stats["fault_counters"][
                "auth_outage_failures"]
        assert stats.auth_outage_failures > 0


class TestColumnarDecode:
    """The vectorised decode and row prefilter against scalar references."""

    def test_latency_grouping_matches_scalar_loop(self, baseline):
        _, dataset, trace = baseline
        # Reference: the first storage row of each (session, timestamp) key
        # owns the RPC rows with that key; service times add in row order.
        ts = dataset.storage_column("timestamp").tolist()
        request_index = {}
        for i, session in enumerate(
                dataset.storage_column("session_id").tolist()):
            request_index.setdefault((session, ts[i]), i)
        latency = np.zeros(len(ts), dtype=np.float64)
        rpc_ts = dataset.rpc_column("timestamp").tolist()
        service = dataset.rpc_column("service_time").tolist()
        rpc_request = []
        for j, session in enumerate(
                dataset.rpc_column("session_id").tolist()):
            row = request_index.get((session, rpc_ts[j]), -1)
            rpc_request.append(row)
            if row >= 0:
                latency[row] += service[j]
        assert trace.rpc_request.tolist() == rpc_request
        assert trace.latency.tobytes() == latency.tobytes()
        assert max(rpc_request) >= 0

    def test_request_rows_key_on_session_and_timestamp(self):
        # Row 2 repeats row 0's key (the first row owns it); rows 0 and 1
        # share a timestamp but not a session; two RPC keys match nothing.
        sessions = np.array([5, 6, 5, 7])
        ts = np.array([1.0, 1.0, 1.0, 2.0])
        rows = _request_rows(sessions, ts, np.array([6, 5, 7, 8, 5]),
                             np.array([1.0, 1.0, 2.0, 1.0, 2.0]))
        assert rows.tolist() == [1, 0, 3, -1, -1]

    def test_trace_without_rpc_rows_has_float_latency(self, baseline):
        cluster, dataset, _ = baseline
        bare = FaultTrace.from_dataset(TraceDataset(storage=dataset.storage))
        assert bare.latency.dtype == np.float64
        assert not bare.latency.any()
        outcome = simulate_mitigation(bare, cluster.fault_schedule,
                                      MitigationPolicy("do-nothing", "none"))
        # Failed requests cost the client timeout, not a truncated zero.
        assert outcome.accounting.requests_failed > 0
        assert outcome.p999_latency > 0.0

    def test_fault_rows_are_exactly_first_attempt_hits(self, baseline):
        cluster, dataset, trace = baseline
        schedule = cluster.fault_schedule
        operations = {code: op for op, code in OPERATION_CODE.items()}
        ops = [operations[code]
               for code in dataset.storage_column("operation").tolist()]
        hashes = dataset.storage_column("content_hash").tolist()
        lo, hi = schedule.envelope
        in_envelope, expected = 0, []
        for i, (row_ts, user, session, shard) in enumerate(zip(
                dataset.storage_column("timestamp").tolist(),
                dataset.storage_column("user_id").tolist(),
                dataset.storage_column("session_id").tolist(),
                dataset.storage_column("shard_id").tolist())):
            if not lo <= row_ts < hi:
                continue
            in_envelope += 1
            op = ops[i]
            outcome = schedule.attempt_outcome(
                row_ts, _float_bits(row_ts), user, session,
                op in MUTATING_OPERATIONS,
                hashes[i] if op.is_transfer else "", shard, 0)
            if outcome is not None:
                expected.append(i)
        rows = trace.schedule_stats(schedule).fault_rows.tolist()
        assert rows == expected
        assert 0 < len(rows) < in_envelope

    def test_schedule_memo_never_aliases(self, baseline):
        """Schedules built and dropped in turn each get their own stats,
        even when a new schedule reuses a freed one's address."""
        _, dataset, trace = baseline
        ts = dataset.storage_column("timestamp")
        distinct = np.unique(ts)
        edges = distinct[np.linspace(0, len(distinct) - 1, 21).astype(int)]
        for k in range(20):
            lo, hi = float(edges[k]), float(edges[k + 1])
            schedule = compile_plan(FaultPlan(
                faults=(LossyLink(lo, hi, failure_rate=1.0),), seed=SEED))
            rows = trace.schedule_stats(schedule).fault_rows
            expected = np.flatnonzero((ts >= lo) & (ts < hi))
            assert len(expected) > 0
            assert rows.tolist() == expected.tolist(), k
            del schedule


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self, baseline):
        cluster, dataset, _ = baseline
        return run_fault_sweep(dataset, cluster.fault_schedule,
                               config=cluster.config)

    def test_default_sweep_covers_required_policies(self, sweep):
        names = [o.policy.name for o in sweep.outcomes]
        assert names == ["do-nothing", "retry-1", "retry-3"]
        assert sweep.seconds > 0.0

    def test_mitigations_beat_doing_nothing(self, sweep):
        base = sweep.baseline
        assert base.policy.kind == "none"
        assert base.error_rate > 0.0
        retry = sweep.outcome("retry-3")
        assert retry.accounting.user_visible_errors \
            <= base.accounting.user_visible_errors
        assert retry.accounting.requests_recovered > 0
        assert retry.ops_overhead > 0.0
        # The best policy is at least as good as doing nothing.
        assert sweep.best.penalty <= base.penalty

    def test_outcome_lookup_and_json_payload(self, sweep):
        import json

        with pytest.raises(KeyError):
            sweep.outcome("no-such-policy")
        payload = sweep.to_json()
        assert payload["n_policies"] == len(payload["policies"])
        assert payload["faultsweep_seconds"] > 0.0
        assert payload["faultsweep_per_policy_seconds"] == pytest.approx(
            payload["faultsweep_seconds"] / payload["n_policies"])
        assert set(payload["faultsweep_policy_seconds"]) \
            == {o.policy.name for o in sweep.outcomes}
        assert payload["best_policy"] in payload["faultsweep_policy_seconds"]
        json.dumps(payload)  # must be JSON-serialisable

    def test_format_table_lists_every_policy(self, sweep):
        table = sweep.format_table()
        for outcome in sweep.outcomes:
            assert outcome.policy.name in table

    def test_sweep_accepts_raw_plan_and_rejects_empty_policies(self,
                                                               baseline):
        _, dataset, _ = baseline
        sweep = run_fault_sweep(dataset, _fault_plan(),
                                policies=default_mitigations()[:2])
        assert [o.policy.name for o in sweep.outcomes] \
            == ["do-nothing", "retry-1"]
        with pytest.raises(ValueError):
            run_fault_sweep(dataset, _fault_plan(), policies=[])


class TestLiveConfigGuards:
    def test_hedge_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mitigation kind"):
            MitigationPolicy("hedge", "hedge").validate()

    def test_live_retry_mitigation_accepted(self):
        ClusterConfig(faults=_fault_plan(),
                      mitigation=_retry_policy()).validate()

    def test_empty_plan_compiles_inactive(self):
        cluster = U1Cluster(ClusterConfig(seed=SEED, faults=FaultPlan()))
        assert cluster.fault_schedule is not None
        assert not cluster.fault_schedule.active

    def test_healthy_cluster_has_no_schedule(self):
        assert U1Cluster(ClusterConfig(seed=SEED)).fault_schedule is None
