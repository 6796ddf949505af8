#!/usr/bin/env python3
"""Quickstart: generate a synthetic U1 month, replay it, print the analyses.

This is the five-minute tour of the library:

1. build a :class:`~repro.workload.config.WorkloadConfig` scaled down to a
   laptop-sized population;
2. generate the client workload and replay it through the simulated U1
   back-end (:class:`~repro.backend.cluster.U1Cluster`);
3. run every analysis of the paper and print a consolidated report.

Run with::

    python examples/quickstart.py [users] [days] [seed]
"""

from __future__ import annotations

import sys
import time

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.report import format_report
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


def main(argv: list[str]) -> int:
    users = int(argv[1]) if len(argv) > 1 else 400
    days = float(argv[2]) if len(argv) > 2 else 5.0
    seed = int(argv[3]) if len(argv) > 3 else 2014

    print(f"Generating a synthetic U1 workload: {users} users over {days} days "
          f"(seed {seed}) ...")
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    generator = SyntheticTraceGenerator(config)

    print("Replaying the workload through the simulated back-end "
          "(6 API machines, 10 metadata shards, S3-like object store) ...")
    started = time.time()
    cluster = U1Cluster(ClusterConfig(seed=seed))
    dataset = cluster.replay_plan(generator.plan())
    elapsed = time.time() - started
    print(f"Replay finished in {elapsed:.1f}s: {len(dataset.storage)} storage records, "
          f"{len(dataset.rpc)} RPC records, {len(dataset.sessions)} session records.\n")

    print(format_report(dataset))

    accounting = cluster.object_store.accounting
    print("\n-- Back-end accounting " + "-" * 43)
    print(f"Objects stored: {len(cluster.object_store)}; "
          f"dedup hits: {accounting.dedup_hits}; "
          f"storage saved by dedup: {accounting.dedup_saved_bytes / 2**20:.1f} MB")
    print(f"Estimated monthly S3 storage bill at this scale: "
          f"${accounting.monthly_cost_estimate():.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
