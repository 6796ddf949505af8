"""Ablation — user-id shard routing (production) vs round-robin routing.

The paper attributes the short-window shard imbalance of Fig. 14 to the
combination of the user-per-shard data model with uneven, bursty user
activity.  Routing each RPC round-robin (breaking the user-per-shard
invariant) removes most of that imbalance, quantifying how much of it is
caused by the data model rather than by raw load variability.
"""

from __future__ import annotations

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.load_balancing import shard_load
from repro.util.units import MINUTE

from .conftest import print_rows


def _replay(plan, routing: str):
    cluster = U1Cluster(ClusterConfig(seed=99, shard_routing=routing))
    return cluster.replay_plan(plan, n_jobs=2)


def test_ablation_shard_routing(benchmark, workload_plan):
    by_user = benchmark(_replay, workload_plan, "user_id")
    round_robin = _replay(workload_plan, "round_robin")

    user_series = shard_load(by_user, bin_width=MINUTE, n_shards=10)
    rr_series = shard_load(round_robin, bin_width=MINUTE, n_shards=10)
    rows = [
        ("short-window CV, user-id routing", "high (paper)",
         f"{user_series.short_window_imbalance():.2f}"),
        ("short-window CV, round-robin routing", "-",
         f"{rr_series.short_window_imbalance():.2f}"),
        ("whole-trace CV, user-id routing", "0.049 (full scale)",
         f"{user_series.long_term_imbalance():.3f}"),
        ("whole-trace CV, round-robin routing", "-",
         f"{rr_series.long_term_imbalance():.3f}"),
    ]
    print_rows("Ablation: shard routing policy", rows)
    # Round-robin routing balances shards much better in short windows, at
    # the cost of giving up the lockless user-per-shard model.
    assert rr_series.short_window_imbalance() < user_series.short_window_imbalance()
    assert rr_series.long_term_imbalance() < user_series.long_term_imbalance()
