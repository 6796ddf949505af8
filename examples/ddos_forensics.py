#!/usr/bin/env python3
"""DDoS forensics: detect and characterise abuse episodes in a U1 trace.

Section 5.4 of the paper reports three DDoS attacks in the measurement month,
each sharing a single account's credentials across thousands of clients to
distribute illegal content.  This example:

1. generates a month-like synthetic trace containing the attack episodes;
2. detects anomalous windows from per-hour request rates (the same signal
   Fig. 5 plots);
3. attributes each window to the responsible account by ranking per-user
   request counts inside the window;
4. names the accounts to ban — the countermeasure the U1 engineers applied
   manually in the authentication service.

Run with::

    python examples/ddos_forensics.py
"""

from __future__ import annotations

from collections import Counter

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.anomaly import attack_amplification, detect_anomalies
from repro.util.units import HOUR
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


def main() -> int:
    config = WorkloadConfig.scaled(users=600, days=10, seed=123)
    cluster = U1Cluster(ClusterConfig(seed=123))
    print("Simulating 10 days of U1 activity including abuse episodes ...")
    dataset = cluster.replay_plan(SyntheticTraceGenerator(config).plan())

    print("\nScanning per-hour session request rates for anomalies ...")
    windows = detect_anomalies(dataset, family="session", threshold=4.0)
    amplification = attack_amplification(dataset)
    print(f"Detected {len(windows)} anomalous window(s); peak amplification: "
          f"session {amplification['session']:.1f}x, auth {amplification['auth']:.1f}x, "
          f"storage {amplification['storage']:.1f}x (paper: 5-15x / up to 245x).")

    start, _ = dataset.time_span()
    to_ban: set[int] = set()
    for index, window in enumerate(windows, start=1):
        subset = dataset.filter_time(window.start, window.end)
        per_user = Counter(r.user_id for r in subset.storage)
        per_user.update(r.user_id for r in subset.sessions)
        suspect, requests = per_user.most_common(1)[0]
        total = sum(per_user.values())
        truth = {r.user_id for r in subset.storage if r.caused_by_attack}
        print(f"\nWindow {index}: day {(window.start - start) / 86400:.1f}, "
              f"duration {window.duration / HOUR:.1f} h, "
              f"{window.amplification:.1f}x over baseline")
        print(f"  dominant account: user {suspect} with {requests}/{total} requests "
              f"({requests / total:.0%})")
        print(f"  ground-truth attacker ids in window: {sorted(truth) or 'none'}")
        if suspect in truth:
            print("  -> attribution matches the injected attacker; ban the account")
            to_ban.add(suspect)
        else:
            print("  -> attribution does not match an injected attacker "
                  "(legitimate hot spot)")

    print(f"\nAccounts to ban in the authentication service: {sorted(to_ban)}")
    print("In production this reaction was manual; the paper calls for "
          "automatic countermeasures like this one.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
