"""Unit tests for repro.workload.opmodel."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.trace.records import ApiOperation
from repro.workload.opmodel import (
    CHAIN_OP_INDEX,
    CHAIN_OPS,
    BurstGapSampler,
    INITIAL_OPERATIONS,
    TRANSITION_TABLE,
    compiled_chain,
    initial_state,
)
from repro.workload.population import UserClass


class TestTransitionTable:
    def test_probabilities_are_positive_and_normalisable(self):
        for source, edges in TRANSITION_TABLE.items():
            assert edges, f"{source} has no outgoing edges"
            total = sum(weight for _, weight in edges)
            assert total > 0
            for _, weight in edges:
                assert weight > 0

    def test_initial_operations_are_session_startup_ops(self):
        ops = {op for op, _ in INITIAL_OPERATIONS}
        assert ApiOperation.LIST_VOLUMES in ops
        assert ApiOperation.LIST_SHARES in ops
        assert ApiOperation.UPLOAD not in ops

    def test_make_mostly_leads_to_upload(self):
        edges = dict(TRANSITION_TABLE[ApiOperation.MAKE])
        assert edges[ApiOperation.UPLOAD] == max(edges.values())

    def test_transfers_self_reinforce(self):
        upload_edges = dict(TRANSITION_TABLE[ApiOperation.UPLOAD])
        download_edges = dict(TRANSITION_TABLE[ApiOperation.DOWNLOAD])
        assert upload_edges[ApiOperation.UPLOAD] >= 0.3
        assert download_edges[ApiOperation.DOWNLOAD] >= 0.3


def _next_ops(rng, current, n, user_class=UserClass.HEAVY, bias=1.0,
              allow_volume_ops=True) -> Counter:
    """``n`` draws of the operation after ``current`` from the compiled
    tables the materializer walks."""
    chain = compiled_chain(user_class, allow_volume_ops)
    state = CHAIN_OP_INDEX[current]
    return Counter(CHAIN_OPS[chain.step(state, u, bias)]
                   for u in rng.random(n).tolist())


class TestOperationChain:
    def test_sampled_transitions_follow_the_table(self, rng):
        allowed = {op for op, _ in TRANSITION_TABLE[ApiOperation.UPLOAD]}
        assert set(_next_ops(rng, ApiOperation.UPLOAD, 200)) <= allowed

    def test_upload_only_users_rarely_download(self, rng):
        samples = _next_ops(rng, ApiOperation.GET_DELTA, 600,
                            user_class=UserClass.UPLOAD_ONLY)
        assert samples[ApiOperation.DOWNLOAD] < 30

    def test_download_bias_shifts_towards_downloads(self, rng):
        low = _next_ops(rng, ApiOperation.UPLOAD, 800, bias=0.2)
        high = _next_ops(rng, ApiOperation.UPLOAD, 800, bias=4.0)
        assert high[ApiOperation.DOWNLOAD] > low[ApiOperation.DOWNLOAD]

    def test_volume_ops_can_be_disabled(self, rng):
        samples = _next_ops(rng, ApiOperation.UNLINK, 300,
                            allow_volume_ops=False)
        assert not {ApiOperation.CREATE_UDF, ApiOperation.DELETE_VOLUME} & set(samples)

    def test_initial_operation_distribution(self, rng):
        counts = Counter(CHAIN_OPS[initial_state(u)]
                         for u in rng.random(1000).tolist())
        assert counts[ApiOperation.LIST_VOLUMES] > counts[ApiOperation.RESCAN_FROM_SCRATCH]


class TestBurstGapSampler:
    def test_gaps_respect_threshold_and_cap(self, rng):
        sampler = BurstGapSampler(rng, alpha=1.5, theta=2.0, cap=100.0)
        gaps = sampler.sample_many(5000)
        assert gaps.min() >= 2.0
        assert gaps.max() <= 100.0

    def test_gaps_are_heavy_tailed(self, rng):
        sampler = BurstGapSampler(rng, alpha=1.5, theta=1.0, cap=1e9)
        gaps = sampler.sample_many(20000)
        assert gaps.std() / gaps.mean() > 1.5
        assert np.median(gaps) < gaps.mean()

    def test_single_sample(self, rng):
        sampler = BurstGapSampler(rng)
        assert sampler.sample() >= 1.0

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            BurstGapSampler(rng, alpha=1.0)
        with pytest.raises(ValueError):
            BurstGapSampler(rng, theta=0.0)
