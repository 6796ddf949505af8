"""Tests for the vectorized per-session materializer (PR 5).

Two contracts are pinned here:

* **Bit-identity** — array-drawing a session's structure (gap blocks,
  inverse-CDF chain walks, typed operand blocks) must keep the realised
  workload a pure function of ``(config, plan member)``: the trace is
  equal at any ``--jobs`` count, at a seed the older equivalence suites do
  not use.
* **Distributions** — the array-drawn operation chain must realise the
  tabulated transition matrix: the compiled inverse-CDF rows, the
  vectorised block resolution and the scalar steps all agree with the
  (class-reweighted) ``TRANSITION_TABLE`` probabilities, and with each
  other uniform for uniform.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.backend import replay_shard
from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.trace.records import ApiOperation
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from repro.workload.opmodel import (
    CHAIN_OP_INDEX,
    CHAIN_OPS,
    INITIAL_OPERATIONS,
    TRANSITION_TABLE,
    compiled_chain,
)
from repro.workload.population import UserClass
from tests.conftest import events_of, scripts_of

SEED = 23


@pytest.fixture(scope="module")
def plan():
    config = WorkloadConfig.scaled(users=80, days=1.5, seed=SEED)
    return SyntheticTraceGenerator(config).plan()


def _replay_plan(plan, n_jobs):
    cluster = U1Cluster(ClusterConfig(seed=SEED))
    return cluster.replay_plan(plan, n_jobs=n_jobs)


class TestBitIdentity:
    """The same trace at any --jobs, at a fresh seed."""

    @pytest.fixture(scope="class")
    def datasets(self, plan):
        with mock.patch.object(replay_shard, "usable_cpus", return_value=8):
            return {jobs: _replay_plan(plan, jobs) for jobs in (1, 2, 3)}

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_sweep_is_bit_identical(self, datasets, jobs):
        sequential = datasets[1]
        parallel = datasets[jobs]
        for name in ("timestamp", "operation", "node_id", "size_bytes",
                     "content_hash", "user_id", "session_id", "is_update"):
            assert np.array_equal(sequential.storage_column(name),
                                  parallel.storage_column(name)), name
        assert sequential == parallel

    def test_materialization_is_repeatable(self, plan):
        a = scripts_of(materialize_members(plan))
        b = scripts_of(materialize_members(plan))
        assert [s.session_id for s in a] == [s.session_id for s in b]
        for x, y in zip(a, b):
            assert events_of(x) == events_of(y)


def _expected_row_distribution(state: ApiOperation, user_class: UserClass,
                               bias: float, allow_volume_ops: bool
                               ) -> dict[int, float]:
    """Transition probabilities from ``TRANSITION_TABLE``, re-weighted the
    way the compiled chain is documented to: class upload/download
    multipliers (with the Make-row upload floor), diurnal download bias,
    volume-op masking."""
    from repro.workload.opmodel import _CLASS_BIAS, _MAKE_UPLOAD_BIAS_FLOOR

    class_bias = _CLASS_BIAS[user_class]
    weights: dict[int, float] = {}
    for target, weight in TRANSITION_TABLE[state]:
        if target is ApiOperation.UPLOAD:
            upload_mult = class_bias.upload
            if state is ApiOperation.MAKE:
                upload_mult = max(upload_mult, _MAKE_UPLOAD_BIAS_FLOOR)
            weight *= upload_mult
        elif target is ApiOperation.DOWNLOAD:
            weight *= class_bias.download * bias
        elif target in (ApiOperation.CREATE_UDF, ApiOperation.DELETE_VOLUME) \
                and not allow_volume_ops:
            continue
        weights[CHAIN_OP_INDEX[target]] = \
            weights.get(CHAIN_OP_INDEX[target], 0.0) + weight
    total = sum(weights.values())
    return {index: weight / total for index, weight in weights.items()}


class TestChainDistribution:
    """The array-drawn chain realises the tabulated transition matrix."""

    @pytest.mark.parametrize("user_class", [UserClass.HEAVY,
                                            UserClass.DOWNLOAD_ONLY])
    @pytest.mark.parametrize("state", [ApiOperation.UPLOAD,
                                       ApiOperation.MAKE,
                                       ApiOperation.GET_DELTA])
    def test_block_resolution_matches_table(self, state, user_class):
        n = 40_000
        bias = 1.2
        rng = np.random.default_rng(7)
        chain = compiled_chain(user_class, True)
        matrix = chain.next_matrix(rng.random(n), np.full(n, bias))
        drawn = matrix[CHAIN_OP_INDEX[state]]
        expected = _expected_row_distribution(state, user_class, bias, True)
        for index, probability in expected.items():
            observed = float(np.mean(drawn == index))
            # 5-sigma binomial tolerance: loose enough to never flake,
            # tight enough to catch a mis-compiled row or biased inverse
            # CDF.
            sigma = (probability * (1 - probability) / n) ** 0.5
            assert abs(observed - probability) < 5 * sigma + 1e-9, (
                f"{state} -> {CHAIN_OPS[index]}: observed {observed:.4f}, "
                f"expected {probability:.4f}")
        # Nothing outside the row is ever drawn.
        assert set(np.unique(drawn)) <= set(expected)

    def test_volume_ops_masked_in_compiled_rows(self):
        rng = np.random.default_rng(3)
        chain = compiled_chain(UserClass.HEAVY, False)
        matrix = chain.next_matrix(rng.random(5000), np.ones(5000))
        forbidden = {CHAIN_OP_INDEX[ApiOperation.CREATE_UDF],
                     CHAIN_OP_INDEX[ApiOperation.DELETE_VOLUME]}
        assert not forbidden & set(np.unique(matrix))

    def test_initial_distribution_matches_table(self):
        rng = np.random.default_rng(11)
        chain = compiled_chain(UserClass.HEAVY, True)
        n = 30_000
        ops = [chain.walk(u, np.empty(0), np.empty(0))[0]
               for u in rng.random(n).tolist()]
        counts = np.bincount(ops, minlength=len(CHAIN_OPS))
        total_weight = sum(w for _, w in INITIAL_OPERATIONS)
        for op, weight in INITIAL_OPERATIONS:
            probability = weight / total_weight
            observed = counts[CHAIN_OP_INDEX[op]] / n
            sigma = (probability * (1 - probability) / n) ** 0.5
            assert abs(observed - probability) < 5 * sigma

    def test_block_walk_equals_scalar_walk(self):
        """The vectorised (state, step) resolution and the scalar inverse
        CDF consume identical uniforms to identical sequences."""
        rng = np.random.default_rng(5)
        for user_class in UserClass:
            chain = compiled_chain(user_class, True)
            n = 300
            u = rng.random(n)
            bias = 0.8 + 0.9 * rng.random(n)
            initial_u = float(rng.random())
            blocked = chain.walk(initial_u, u, bias, block_threshold=1)
            scalar = chain.walk(initial_u, u, bias, block_threshold=10 ** 9)
            assert blocked == scalar

    def test_walk_length_and_membership(self):
        chain = compiled_chain(UserClass.OCCASIONAL, True)
        rng = np.random.default_rng(9)
        ops = chain.walk(0.4, rng.random(128), np.ones(128))
        assert len(ops) == 129
        assert all(0 <= op < len(CHAIN_OPS) for op in ops)
