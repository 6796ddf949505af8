#!/usr/bin/env python3
"""Capacity planning: how back-end load scales with the user population.

The paper's headline operational observation is that a 20-machine database
cluster (10 shards) served 1.29 M users without congestion, because only a
tiny fraction of the user population is active at any time.  This example
sweeps the population size, replays each workload through the simulated
back-end and reports the resulting RPC volume, per-shard load and object
store footprint — the numbers an operator would use to size a deployment.

Run with::

    python examples/capacity_planning.py
"""

from __future__ import annotations

import time

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.load_balancing import shard_load
from repro.core.sessions import session_analysis
from repro.core.user_activity import online_active_users
from repro.util.units import GB, MINUTE
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


POPULATIONS = (100, 300, 600, 1200)
DAYS = 4.0
SEED = 7


def run_one(users: int) -> dict:
    config = WorkloadConfig.scaled(users=users, days=DAYS, seed=SEED)
    cluster = U1Cluster(ClusterConfig(seed=SEED))
    started = time.time()
    dataset = cluster.replay_plan(SyntheticTraceGenerator(config).plan())
    elapsed = time.time() - started

    shards = shard_load(dataset, bin_width=MINUTE, n_shards=10)
    sessions = session_analysis(dataset)
    activity = online_active_users(dataset)
    peak_online = float(activity.online.max())
    return {
        "users": users,
        "rpc_calls": len(dataset.rpc),
        "storage_ops": len(dataset.storage),
        "peak_online_users": peak_online,
        "active_session_share": sessions.active_share,
        "peak_shard_rpm": float(shards.counts.sum(axis=0).max()),
        "stored_gb": cluster.object_store.accounting.bytes_stored / GB,
        "sim_seconds": elapsed,
    }


def main() -> int:
    print(f"{'users':>7} {'storage ops':>12} {'RPC calls':>10} {'peak online':>12} "
          f"{'active sess.':>12} {'peak shard rpm':>15} {'stored GB':>10} {'sim s':>7}")
    results = []
    for users in POPULATIONS:
        row = run_one(users)
        results.append(row)
        print(f"{row['users']:>7} {row['storage_ops']:>12} {row['rpc_calls']:>10} "
              f"{row['peak_online_users']:>12.0f} {row['active_session_share']:>12.3f} "
              f"{row['peak_shard_rpm']:>15.0f} {row['stored_gb']:>10.2f} "
              f"{row['sim_seconds']:>7.1f}")

    first, last = results[0], results[-1]
    growth = last["users"] / first["users"]
    rpc_growth = last["rpc_calls"] / max(first["rpc_calls"], 1)
    print(f"\nPopulation grew {growth:.0f}x; RPC volume grew {rpc_growth:.1f}x "
          f"(roughly linear, as the user-per-shard model predicts).")
    print("Active sessions stay a small, roughly constant fraction of all "
          "sessions — the reason a modest metadata cluster can serve a very "
          "large user population.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
