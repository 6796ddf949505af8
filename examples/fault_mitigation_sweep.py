#!/usr/bin/env python3
"""Fault injection and offline mitigation sweeps: one bad day, three answers.

The paper's operational sections describe the failure modes a Personal
Cloud back-end actually lives with: slow or flapping API processes, lossy
links between the proxies and the metadata cluster, shards pinned
read-only during maintenance, and storage nodes dropping out.  This
example scripts one such "incident day" as a declarative, seed-determinis-
tic :class:`~repro.faults.spec.FaultPlan`, replays the workload through
the real back-end **once** with the faults injected, and then answers
"what should the operator have done?" entirely offline: the mitigation
sweep (:mod:`repro.faults.sweep`) re-resolves every faulted request under
three policies — do-nothing and two client retry budgets — for a fraction
of the cost of a single replay.

Every policy is exact: each pins the fault counters of a live replay under
it counter-for-counter, a property the test-suite enforces.

Run with::

    python examples/fault_mitigation_sweep.py
"""

from __future__ import annotations

import time

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.faults.spec import (
    AuthOutage,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
    flapping,
)
from repro.faults.sweep import run_fault_sweep
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


def incident_day(start: float, span: float, seed: int) -> FaultPlan:
    """A hand-written incident timeline (quarters of the trace span)."""
    q = span / 4.0
    return FaultPlan(faults=(
        # An API worker flaps for the first half: degraded for half of
        # every cycle, serving RPCs 4x slower while degraded.  (Worker 1
        # is one of the busiest under this diurnal workload, so the
        # degradation lands on real traffic.)
        *flapping(start + 0.25 * q, start + 2.0 * q, period=q / 4.0,
                  process_index=1, inflation=4.0),
        # A lossy link drops 8% of requests through the middle of the day.
        LossyLink(start + 1.5 * q, start + 2.5 * q, failure_rate=0.08),
        # Metadata shard 0 goes read-only for a maintenance window.
        ReadOnlyShard(start + 1.75 * q, start + 2.25 * q, shard_id=0),
        # One of four storage nodes dies with no failover configured.
        StorageNodeOutage(start + 2.0 * q, start + 3.0 * q, node_index=1,
                          n_nodes=4, failover=False),
        # The auth service rejects every new session for a short outage.
        AuthOutage(start + 3.0 * q, start + 3.25 * q),
    ), seed=seed)


def main() -> int:
    config = WorkloadConfig.scaled(users=400, days=3, seed=23)
    span = config.duration_days * DAY
    plan = incident_day(config.start_time, span, seed=23)
    print(f"Workload: {config.n_users} users over "
          f"{config.duration_days:.0f} days, {len(plan.faults)} fault "
          f"windows scheduled\n")

    # ONE faulted replay through the real back-end.  The plan is compiled
    # once in the planning pass, so the same trace comes out bit-identical
    # at any --jobs; mitigation stays at the do-nothing default because the
    # unmitigated trace is the complete request log every policy can be
    # re-evaluated against.
    cluster = U1Cluster(ClusterConfig(seed=23, faults=plan))
    started = time.perf_counter()
    dataset = cluster.replay_plan(SyntheticTraceGenerator(config).plan())
    replay_seconds = time.perf_counter() - started

    live = cluster.last_replay_stats["fault_counters"]
    print("What the users saw (live, unmitigated):")
    print(f"  requests hit by faults:  {live['requests_faulted']}")
    print(f"  user-visible errors:     "
          f"{live['requests_failed'] + live['auth_outage_failures']} "
          f"(incl. {live['auth_outage_failures']} auth denials)")
    print(f"  degraded RPCs:           {live['degraded_rpcs']} "
          f"(+{live['degraded_extra_seconds']:.1f}s of service time)")
    per_shard = cluster.last_replay_stats["metadata_shard_errors"]
    print(f"  read-only rejections by metadata shard: {per_shard}\n")

    # ... then every mitigation as an offline pass over the faulted trace.
    sweep = run_fault_sweep(dataset, cluster.fault_schedule,
                            config=cluster.config)
    print("What each mitigation would have made of it (offline):")
    print(sweep.format_table())

    best = sweep.best
    base = sweep.baseline
    print(f"\nBest policy: {best.policy.name} — error rate "
          f"{base.error_rate:.3%} -> {best.error_rate:.3%}, p99.9 "
          f"inflation {base.p999_inflation:.2f}x -> "
          f"{best.p999_inflation:.2f}x at +{best.ops_overhead:.3f} extra "
          f"attempts per request.")
    print(f"One faulted replay {replay_seconds:.2f}s + "
          f"{len(sweep.outcomes)}-policy sweep {sweep.seconds:.2f}s "
          f"(vs ~{len(sweep.outcomes)}x the replay to test each live).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
