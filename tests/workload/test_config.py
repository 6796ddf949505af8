"""Unit tests for repro.workload.config."""

from __future__ import annotations

import pytest

from repro.trace.records import TRACE_EPOCH
from repro.util.units import DAY
from repro.workload.config import AttackConfig, WorkloadConfig


class TestDefaults:
    def test_defaults_match_paper_scale(self):
        config = WorkloadConfig()
        assert config.n_users == 1_294_794
        assert config.duration_days == 30.0
        assert len(config.attacks) == 3

    def test_default_fractions_match_paper(self):
        config = WorkloadConfig()
        assert config.occasional_fraction == pytest.approx(0.8582)
        assert config.update_fraction == pytest.approx(0.10)
        assert config.duplicate_fraction == pytest.approx(0.17)
        assert config.active_session_fraction == pytest.approx(0.0557)
        assert config.auth_failure_fraction == pytest.approx(0.0276)

    def test_defaults_validate(self):
        WorkloadConfig().validate()


class TestScaled:
    def test_scaled_shrinks_population_and_window(self):
        config = WorkloadConfig.scaled(users=500, days=3, seed=9)
        assert config.n_users == 500
        assert config.duration_days == 3
        assert config.seed == 9
        config.validate()

    def test_scaled_rescales_attack_schedule(self):
        config = WorkloadConfig.scaled(users=100, days=3)
        for attack in config.attacks:
            assert attack.start_day < 3

    def test_scaled_overrides(self):
        config = WorkloadConfig.scaled(users=10, days=1, update_fraction=0.5)
        assert config.update_fraction == 0.5

    @pytest.mark.parametrize("users,days", [(0, 1), (10, 0), (-5, 2)])
    def test_scaled_rejects_bad_sizes(self, users, days):
        with pytest.raises(ValueError):
            WorkloadConfig.scaled(users=users, days=days)

    def test_end_time(self):
        config = WorkloadConfig.scaled(users=10, days=2)
        assert config.end_time == TRACE_EPOCH + 2 * DAY


class TestValidation:
    def test_class_fractions_must_sum_to_one(self):
        config = WorkloadConfig().replace(occasional_fraction=0.5)
        with pytest.raises(ValueError):
            config.validate()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            WorkloadConfig().replace(update_fraction=1.5).validate()
        with pytest.raises(ValueError):
            WorkloadConfig().replace(duplicate_fraction=-0.1).validate()

    def test_burst_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            WorkloadConfig().replace(burst_alpha=0.9).validate()

    def test_diurnal_ratio_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            WorkloadConfig().replace(diurnal_peak_to_trough=0.5).validate()

    @pytest.mark.parametrize("fraction, bound", [
        ("udf_user_fraction", "max_udf_volumes"),
        ("shared_user_fraction", "max_shared_volumes"),
    ])
    def test_volume_bound_needed_only_when_drawn(self, fraction, bound):
        WorkloadConfig().replace(**{fraction: 0.0, bound: 0}).validate()
        with pytest.raises(ValueError):
            WorkloadConfig().replace(**{fraction: 0.1, bound: 0}).validate()


class TestAttackConfig:
    def test_absolute_times(self):
        attack = AttackConfig(start_day=4.0, duration_hours=2.0)
        start = attack.start_time(TRACE_EPOCH)
        end = attack.end_time(TRACE_EPOCH)
        assert start == TRACE_EPOCH + 4 * DAY
        assert end - start == pytest.approx(2 * 3600.0)
