"""Tests for the Fig. 9 burstiness / power-law analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.burstiness import burstiness_analysis, inter_operation_times
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    # User 1 uploads at known gaps of 10, 20 and 3600 seconds.
    times = [0, 10, 30, 3630]
    for i, ts in enumerate(times):
        storage.append(make_storage(timestamp=ts, user_id=1, node_id=i + 1,
                                    operation=ApiOperation.UPLOAD))
    # A download in between must not affect upload inter-arrival times.
    storage.append(make_storage(timestamp=15, user_id=1, node_id=50,
                                operation=ApiOperation.DOWNLOAD))
    # User 2 contributes a single upload -> no gap.
    storage.append(make_storage(timestamp=5, user_id=2, node_id=60,
                                operation=ApiOperation.UPLOAD))
    return TraceDataset(storage=storage)


class TestInterOperationTimes:
    def test_gaps_are_per_user_and_per_operation(self, crafted):
        gaps = inter_operation_times(crafted, ApiOperation.UPLOAD)
        assert sorted(gaps) == [10.0, 20.0, 3600.0]

    def test_no_gaps_for_rare_operation(self, crafted):
        gaps = inter_operation_times(crafted, ApiOperation.MOVE)
        assert gaps.size == 0


class TestBurstinessAnalysis:
    def test_requires_enough_samples(self, crafted):
        with pytest.raises(ValueError):
            burstiness_analysis(crafted, ApiOperation.UPLOAD, min_samples=30)

    def test_synthetic_pareto_gaps_are_recognised(self):
        rng = np.random.default_rng(0)
        gaps = 2.0 * (1.0 - rng.random(800)) ** (-1.0 / 1.5)
        dataset = TraceDataset(storage=[
            make_storage(timestamp=t, user_id=1, node_id=i + 1,
                         operation=ApiOperation.UPLOAD)
            for i, t in enumerate(np.cumsum(gaps).tolist())])
        analysis = burstiness_analysis(dataset, ApiOperation.UPLOAD)
        assert 1.1 < analysis.alpha < 2.0
        assert analysis.is_non_poisson
        xs, ps = analysis.ccdf()
        assert ps[0] == 1.0 and xs.size == ps.size

    def test_simulated_dataset_matches_fig9_shape(self, simulated_dataset):
        upload = burstiness_analysis(simulated_dataset, ApiOperation.UPLOAD)
        unlink = burstiness_analysis(simulated_dataset, ApiOperation.UNLINK)
        # Fig. 9: 1 < alpha < 2 over the central region, strongly non-Poisson.
        # Small synthetic populations fluctuate, so accept a wider band while
        # still requiring a heavy (alpha < 2.5) power-law tail.
        assert 0.45 < upload.alpha < 2.5
        assert 0.45 < unlink.alpha < 2.5
        assert upload.is_non_poisson
        assert unlink.is_non_poisson
        assert upload.coefficient_of_variation > 1.5
