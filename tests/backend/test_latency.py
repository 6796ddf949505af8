"""Unit tests for the RPC service-time model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.latency import (
    DEFAULT_MEDIANS_MS,
    LatencyParameters,
    ServiceTimeModel,
    shard_skew_factors,
)
from repro.trace.dataset import RPC_CODE
from repro.trace.records import RpcName


@pytest.fixture
def model(rng) -> ServiceTimeModel:
    return ServiceTimeModel(rng, shard_skew_factors(0, 10))


def _samples(model: ServiceTimeModel, rpc: RpcName, n: int,
             shard: int = 0) -> np.ndarray:
    """``n`` service times of ``rpc`` on ``shard``: ``n`` factors drawn
    one at a time, resolved through the model."""
    first = model.draw(n)
    return model.service_times(np.full(n, RPC_CODE[rpc]), np.full(n, shard),
                               np.arange(first, first + n))


class TestServiceTimeModel:
    def test_every_rpc_has_a_median(self):
        assert set(DEFAULT_MEDIANS_MS) == set(RpcName)

    def test_class_ordering_of_medians(self, model):
        read = model._median_seconds[RpcName.GET_NODE]
        write = model._median_seconds[RpcName.MAKE_FILE]
        cascade = model._median_seconds[RpcName.DELETE_VOLUME]
        assert read < write < cascade
        assert cascade / read > 10  # more than an order of magnitude (Fig. 13)

    def test_samples_are_positive_and_centre_near_median(self, model):
        samples = _samples(model, RpcName.GET_NODE, 3000)
        assert np.all(samples > 0)
        median = np.median(samples)
        assert median == pytest.approx(model._median_seconds[RpcName.GET_NODE], rel=0.3)

    def test_long_tail_present(self, model):
        samples = _samples(model, RpcName.MAKE_FILE, 5000)
        median = np.median(samples)
        tail_share = np.mean(samples > 10 * median)
        # The paper reports 7 %-22 % of samples far from the median.
        assert 0.02 < tail_share < 0.30

    def test_expected_ordering_starts_with_reads(self, model):
        medians = model._median_seconds
        ordering = sorted(medians, key=medians.get)
        assert ordering[0] in (RpcName.GET_ROOT, RpcName.GET_VOLUME_ID, RpcName.GET_NODE)
        assert ordering[-1] is RpcName.DELETE_VOLUME

    def test_custom_medians_override(self, rng):
        model = ServiceTimeModel(rng, shard_skew_factors(0, 10),
                                 medians_ms={RpcName.GET_NODE: 100.0})
        assert model._median_seconds[RpcName.GET_NODE] == pytest.approx(0.1)

    def test_shard_skew_is_bounded(self, rng):
        parameters = LatencyParameters(shard_skew=0.05, tail_probability=0.0)
        model = ServiceTimeModel(rng, shard_skew_factors(0, 10, parameters),
                                 parameters=parameters)
        per_shard = []
        for shard in range(10):
            samples = _samples(model, RpcName.GET_NODE, 500, shard)
            per_shard.append(np.median(samples))
        assert max(per_shard) / min(per_shard) < 1.3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatencyParameters(tail_probability=1.5)
        with pytest.raises(ValueError):
            LatencyParameters(sigma=0.0)
        with pytest.raises(ValueError):
            LatencyParameters(tail_exponent=-1.0)

