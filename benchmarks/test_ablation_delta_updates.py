"""Ablation — delta updates (absent from the real U1 client).

File updates caused 18.5 % of U1's upload traffic because the client always
re-uploads the whole file.  This ablation enables delta updates in the
simulated back-end (only the changed fraction is shipped) and measures the
upload-byte saving the paper argues U1 left on the table.
"""

from __future__ import annotations

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.util.units import GB

from .conftest import print_rows


def _replay(plan, delta_enabled: bool) -> U1Cluster:
    cluster = U1Cluster(ClusterConfig(seed=55, delta_updates_enabled=delta_enabled))
    cluster.replay_plan(plan, n_jobs=2)
    return cluster


def test_ablation_delta_updates(benchmark, workload_plan):
    baseline = benchmark(_replay, workload_plan, False)
    with_delta = _replay(workload_plan, True)

    uploaded_baseline = baseline.object_store.accounting.bytes_uploaded
    uploaded_delta = with_delta.object_store.accounting.bytes_uploaded
    saving = 1.0 - uploaded_delta / max(uploaded_baseline, 1)
    rows = [
        ("bytes uploaded, full re-upload (U1)", "-",
         f"{uploaded_baseline / GB:.2f} GB"),
        ("bytes uploaded, delta updates", "-", f"{uploaded_delta / GB:.2f} GB"),
        ("upload traffic saved by delta updates", "up to ~0.185",
         f"{saving:.3f}"),
    ]
    print_rows("Ablation: delta updates", rows)
    assert uploaded_delta <= uploaded_baseline
    assert saving > 0.01
