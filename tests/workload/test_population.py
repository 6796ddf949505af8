"""Unit tests for repro.workload.population."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.config import WorkloadConfig
from repro.workload.population import UserClass, build_population


@pytest.fixture(scope="module")
def population():
    config = WorkloadConfig.scaled(users=4000, days=5, seed=3)
    return build_population(config, np.random.default_rng(3))


class TestBuildPopulation:
    def test_size_and_ids(self, population):
        assert len(population) == 4000
        assert [u.user_id for u in population[:3]] == [1, 2, 3]
        assert len({u.user_id for u in population}) == 4000

    def test_class_mix_close_to_configured(self, population):
        shares = {cls: 0 for cls in UserClass}
        for user in population:
            shares[user.user_class] += 1
        n = len(population)
        assert shares[UserClass.OCCASIONAL] / n == pytest.approx(0.8582, abs=0.03)
        assert shares[UserClass.UPLOAD_ONLY] / n == pytest.approx(0.0722, abs=0.02)
        assert shares[UserClass.DOWNLOAD_ONLY] / n == pytest.approx(0.0234, abs=0.015)
        assert shares[UserClass.HEAVY] / n == pytest.approx(0.0462, abs=0.02)

    def test_activity_weights_are_skewed(self, population):
        weights = np.array([u.activity_weight for u in population])
        assert weights.max() / np.median(weights) > 50

    def test_occasional_users_have_tiny_weight(self, population):
        for user in population:
            if user.user_class is UserClass.OCCASIONAL:
                assert user.activity_weight <= 0.05

    def test_heavy_users_have_substantial_weight(self, population):
        for user in population:
            if user.user_class is UserClass.HEAVY:
                assert user.activity_weight >= 1.0

    def test_udf_and_shared_volume_shares(self, population):
        with_udf = sum(1 for u in population if u.udf_volumes > 0) / len(population)
        with_shared = sum(1 for u in population if u.shared_volumes > 0) / len(population)
        assert with_udf == pytest.approx(0.58, abs=0.05)
        assert with_shared == pytest.approx(0.018, abs=0.01)

    def test_zero_volume_bounds_with_zero_fractions(self):
        config = WorkloadConfig.scaled(users=50, days=1, seed=5).replace(
            udf_user_fraction=0.0, max_udf_volumes=0,
            shared_user_fraction=0.0, max_shared_volumes=0)
        users = build_population(config)
        assert all(u.udf_volumes == 0 and u.shared_volumes == 0 for u in users)

    def test_reproducible_given_seed(self):
        config = WorkloadConfig.scaled(users=50, days=1, seed=5)
        a = build_population(config)
        b = build_population(config)
        assert [(u.user_class, u.activity_weight) for u in a] == \
               [(u.user_class, u.activity_weight) for u in b]

    def test_invalid_config_rejected(self):
        config = WorkloadConfig.scaled(users=10, days=1).replace(occasional_fraction=0.2)
        with pytest.raises(ValueError):
            build_population(config)
