"""Ablation — file-level cross-user deduplication on vs off.

Section 9: "a simple optimization like file-based deduplication could readily
save 17% of the storage costs".  This ablation replays the same workload with
dedup enabled and disabled and compares the bytes physically stored and
shipped to the object store.
"""

from __future__ import annotations

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.util.units import GB

from .conftest import print_rows


def _replay(plan, dedup_enabled: bool) -> U1Cluster:
    cluster = U1Cluster(ClusterConfig(seed=77, dedup_enabled=dedup_enabled))
    cluster.replay_plan(plan, n_jobs=2)
    return cluster


def test_ablation_dedup(benchmark, workload_plan):
    with_dedup = benchmark(_replay, workload_plan, True)
    without_dedup = _replay(workload_plan, False)

    stored_with = with_dedup.object_store.accounting.bytes_stored
    stored_without = without_dedup.object_store.accounting.bytes_stored
    saved = 1.0 - stored_with / max(stored_without, 1)
    rows = [
        ("bytes stored with dedup", "-", f"{stored_with / GB:.2f} GB"),
        ("bytes stored without dedup", "-", f"{stored_without / GB:.2f} GB"),
        ("storage saved by dedup", "0.17", f"{saved:.3f}"),
        ("dedup hits", "-", str(with_dedup.object_store.accounting.dedup_hits)),
        ("estimated monthly S3 bill with dedup", "~$20k (full scale)",
         f"${with_dedup.object_store.accounting.monthly_cost_estimate():.2f}"),
    ]
    print_rows("Ablation: file-level cross-user deduplication", rows)
    assert stored_with <= stored_without
    assert with_dedup.object_store.accounting.dedup_hits > 0
    assert saved > 0.02
