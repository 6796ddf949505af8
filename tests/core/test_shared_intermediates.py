"""The analyses that take a shared intermediate (``series=``,
``traffic=``, ``times=``) give what they compute on their own."""

from __future__ import annotations

import numpy as np

from repro.core import rpc_performance, storage_workload, user_traffic
from repro.core.anomaly import detect_anomalies, request_rate_series
from repro.trace.records import ApiOperation
from repro.util.timebin import binned_counts
from repro.util.units import HOUR


def test_rw_ratio_from_the_fig2a_series(simulated_dataset):
    series = storage_workload.traffic_timeseries(simulated_dataset)
    own = storage_workload.rw_ratio_analysis(simulated_dataset)
    shared = storage_workload.rw_ratio_analysis(simulated_dataset,
                                                series=series)
    assert np.array_equal(own.ratios, shared.ratios)
    assert np.array_equal(own.acf, shared.acf)
    assert own.boxplot == shared.boxplot


def test_inequality_and_classes_from_the_fig7b_traffic(simulated_dataset):
    traffic = user_traffic.per_user_traffic(simulated_dataset)
    own = user_traffic.traffic_inequality(simulated_dataset)
    shared = user_traffic.traffic_inequality(simulated_dataset,
                                             traffic=traffic)
    assert (own.gini, own.top_1_percent_share, own.active_users) \
        == (shared.gini, shared.top_1_percent_share, shared.active_users)
    assert np.array_equal(own.lorenz_traffic, shared.lorenz_traffic)
    assert user_traffic.classify_users(simulated_dataset) \
        == user_traffic.classify_users(simulated_dataset, traffic=traffic)


def test_scatter_from_the_fig12_times(simulated_dataset):
    times = rpc_performance.rpc_service_times(simulated_dataset)
    assert rpc_performance.rpc_scatter(simulated_dataset) \
        == rpc_performance.rpc_scatter(simulated_dataset, times=times)


def test_per_user_traffic_counts_users_without_sets(simulated_dataset):
    traffic = user_traffic.per_user_traffic(simulated_dataset)
    legit = simulated_dataset.without_attack_traffic()
    assert traffic.all_users == len(legit.user_ids())
    uploads = {}
    for record in legit.storage:
        if record.operation is ApiOperation.UPLOAD:
            uploads[record.user_id] = uploads.get(record.user_id, 0) \
                + record.size_bytes
    assert uploads and traffic.upload_bytes == uploads


def test_one_family_detection_uses_the_four_family_series(simulated_dataset):
    rates = request_rate_series(simulated_dataset)
    binner = simulated_dataset.span_binner(HOUR)
    assert np.array_equal(
        rates.storage,
        binned_counts(binner, simulated_dataset.storage_bins(binner)))
    for family in ("rpc", "session", "auth", "storage"):
        windows = detect_anomalies(simulated_dataset, family=family)
        assert all(w.family == family for w in windows)
        peaks = {w.peak_rate for w in windows}
        assert peaks <= set(rates.series(family).tolist())
