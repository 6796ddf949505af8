"""The one fault procedure, mask then residue, that live and offline share.

A replay shard resolves its requests before dispatch: it masks its request
columns with ``FaultSchedule.faulted_rows`` and resolves only the rows the
mask hits with ``request_disposition``.  The reference here calls
``request_disposition`` on every row instead; the two must agree row for
row.  The property suite then checks the whole contract on generated fault
plans: a live replay's ``fault_counters`` equal ``simulate_mitigation`` on
the do-nothing trace, except the two ``degraded_*`` counters of a live
retry replay (the rule in ``faults/simulator.py``).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.replay_shard import ReplayShard
from repro.faults.accounting import DISPOSITION_KINDS
from repro.faults.mitigation import default_mitigations
from repro.faults.runtime import compile_plan, request_disposition
from repro.faults.simulator import FaultTrace, simulate_mitigation
from repro.faults.spec import (
    AuthOutage,
    DegradedProcess,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
)
from repro.trace.records import MUTATING_OPERATIONS, ApiOperation
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from tests.conftest import script, table_of

POLICIES = default_mitigations()

#: The counters a live retry replay may move under degraded-process
#: windows; offline they stay those of the do-nothing replay.
DEGRADED_COUNTERS = ("degraded_rpcs", "degraded_extra_seconds")

_EVENT_OPERATIONS = [op for op in ApiOperation
                     if op is not ApiOperation.AUTHENTICATE]


# ---------------------------------------------------------------------------
# Mask then residue equals the decision procedure on every row
# ---------------------------------------------------------------------------

#: The shard's request clock runs over [0, 40).
_CLOCK = 40.0


@st.composite
def _window(draw, horizon: float = _CLOCK, slots: int = 40):
    start = draw(st.integers(0, slots - 1))
    end = draw(st.integers(start + 1, slots))
    return start * horizon / slots, end * horizon / slots


@st.composite
def _shard_faults(draw):
    """A fault of one of the request-path kinds over the shard's clock."""
    start, end = draw(_window())
    kind = draw(st.sampled_from(("lossy", "read-only", "storage-down",
                                 "auth")))
    if kind == "lossy":
        return LossyLink(start, end, failure_rate=draw(
            st.sampled_from((0.1, 0.5, 1.0))))
    if kind == "read-only":
        return ReadOnlyShard(start, end, shard_id=draw(st.integers(0, 2)))
    if kind == "storage-down":
        n_nodes = draw(st.integers(2, 4))
        return StorageNodeOutage(start, end,
                                 node_index=draw(st.integers(0, n_nodes - 1)),
                                 n_nodes=n_nodes, failover=draw(st.booleans()))
    return AuthOutage(start, end)


@st.composite
def _scripts(draw):
    """Session scripts over the shard's clock; event times are fractional,
    so the lossy hash sees varied timestamp bits."""
    scripts = []
    for index in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, 36))
        n = draw(st.integers(0, 6))
        times = sorted(start + draw(st.integers(0, 400)) / 100.0
                       for _ in range(n))
        scripts.append(script(
            draw(st.integers(0, 7)), index + 1, float(start),
            max([float(start)] + times) + 1.0,
            auth_failed=draw(st.booleans()), times=times,
            operation=draw(st.lists(st.sampled_from(_EVENT_OPERATIONS),
                                    min_size=n, max_size=n)),
            content_hash=draw(st.lists(st.sampled_from(("", "a", "b", "c",
                                                         "d", "e")),
                                       min_size=n, max_size=n))))
    return scripts


class TestShardDispositionsMatchReference:
    @settings(max_examples=120, deadline=None)
    @given(scripts=_scripts(),
           faults=st.lists(_shard_faults(), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 16),
           policy=st.sampled_from(POLICIES))
    def test_mask_then_residue_equals_every_row(self, scripts, faults, seed,
                                                policy):
        plan = FaultPlan(faults=tuple(faults), seed=seed)
        config = ClusterConfig(seed=0, api_machines=1, processes_per_machine=2,
                               metadata_shards=3, replay_shards=1,
                               faults=plan, mitigation=policy)
        schedule = compile_plan(plan, n_processes=2, n_shards=3)
        shard = ReplayShard(config, 0, list(enumerate(
            config.process_addresses())), [1.0] * 3, fault_schedule=schedule)
        table = table_of(scripts)
        auth_failed, resolved = shard._resolve_faults(table)

        expected, expected_auth = [], []
        for s in scripts:
            expected_auth.append(s.auth_failed or any(
                start <= s.start < end for start, end in schedule.auth))
            for event in s.events:
                op = event.operation
                expected.append(request_disposition(
                    schedule, policy, event.time, s.user_id, s.session_id,
                    op in MUTATING_OPERATIONS,
                    event.content_hash if op.is_transfer else "",
                    s.user_id % 3))
        got = [("", 0, 0.0, False)] * len(expected)
        for row, code, retries, backoff, failover in zip(
                *(column.tolist() for column in resolved)):
            got[row] = (DISPOSITION_KINDS[code], retries, backoff, failover)
        assert got == expected
        assert auth_failed.tolist() == expected_auth

        # What the dispatch loop reads by timeline ordinal: the events
        # follow the opens, and only failing requests are marked.
        n = len(scripts)
        assert shard.failing == [False] * n + [
            bool(kind) for kind, _, _, _ in expected]


# ---------------------------------------------------------------------------
# Live counters equal the offline pass on generated fault plans
# ---------------------------------------------------------------------------

_WORKLOAD = WorkloadConfig.scaled(users=60, days=1.0, seed=17)


@functools.cache
def _workload():
    return SyntheticTraceGenerator(_WORKLOAD).plan()


@st.composite
def _day_window(draw):
    start, end = draw(_window(horizon=DAY, slots=24))
    return _WORKLOAD.start_time + start, _WORKLOAD.start_time + end


@st.composite
def _plan_faults(draw):
    """A fault of any kind over the workload's day, on its fleet (24
    processes, 10 metadata shards)."""
    start, end = draw(_day_window())
    kind = draw(st.sampled_from(("degraded", "lossy", "read-only",
                                 "storage-down", "auth")))
    if kind == "degraded":
        return DegradedProcess(start, end,
                               process_index=draw(st.integers(0, 23)),
                               inflation=draw(st.sampled_from((2.0, 4.0))))
    if kind == "lossy":
        return LossyLink(start, end, failure_rate=draw(
            st.sampled_from((0.05, 0.3, 1.0))))
    if kind == "read-only":
        return ReadOnlyShard(start, end, shard_id=draw(st.integers(0, 9)))
    if kind == "storage-down":
        n_nodes = draw(st.integers(2, 4))
        return StorageNodeOutage(start, end,
                                 node_index=draw(st.integers(0, n_nodes - 1)),
                                 n_nodes=n_nodes, failover=draw(st.booleans()))
    return AuthOutage(start, end)


def _live(plan: FaultPlan, policy):
    """A live replay under the equivalence conditions."""
    cluster = U1Cluster(ClusterConfig(seed=17, replay_shards=1,
                                      interrupted_upload_fraction=0.0,
                                      auth_failure_fraction=0.0,
                                      faults=plan, mitigation=policy))
    dataset = cluster.replay_plan(_workload())
    return cluster, dataset


def _counters(plan: FaultPlan, policies=POLICIES):
    """Per policy, ``(policy, offline, live)`` fault counters; under retry
    the live ones carry the do-nothing replay's ``degraded_*``."""
    cluster, dataset = _live(plan, POLICIES[0])
    unmitigated = cluster.last_replay_stats["fault_counters"]
    assert sum(cluster.last_replay_stats["metadata_shard_errors"]) \
        == unmitigated["shard_read_only"]
    trace = FaultTrace.from_dataset(
        dataset, processes_per_machine=cluster.config.processes_per_machine,
        machine_names=cluster.config.machine_names())
    for policy in policies:
        offline = simulate_mitigation(trace, cluster.fault_schedule,
                                      policy).accounting.as_dict()
        live = unmitigated
        if policy.kind != "none":
            live_cluster, _ = _live(plan, policy)
            live = {**live_cluster.last_replay_stats["fault_counters"],
                    **{key: unmitigated[key] for key in DEGRADED_COUNTERS}}
        yield policy, offline, live


class TestLiveMatchesOfflineOnGeneratedPlans:
    @settings(max_examples=25, deadline=None)
    @given(faults=st.lists(_plan_faults(), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 16))
    def test_fault_counters(self, faults, seed):
        """Every counter pins: integers exactly, the degraded seconds to
        rounding (the offline pass inverts the recorded inflation)."""
        plan = FaultPlan(faults=tuple(faults), seed=seed)
        for policy, offline, live in _counters(plan):
            assert set(offline) == set(live)
            for key, value in live.items():
                if key == "degraded_extra_seconds":
                    assert offline[key] == pytest.approx(value, rel=1e-9), \
                        (policy.name, key)
                else:
                    assert offline[key] == value, (policy.name, key)

    def test_denied_open_leaves_no_degraded_row(self):
        """An open an auth outage denies on a degraded worker: its failed
        validation RPC leaves no RPC row, so the live ``degraded_rpcs``
        does not count it either."""
        start = _WORKLOAD.start_time
        plan = FaultPlan(faults=(
            AuthOutage(start + 8 * 3600.0, start + 16 * 3600.0),
            DegradedProcess(start + 3 * 3600.0, start + 14 * 3600.0,
                            process_index=0, inflation=2.0)), seed=3806)
        [(_, offline, live)] = _counters(plan, POLICIES[:1])
        assert offline["degraded_rpcs"] == live["degraded_rpcs"]
