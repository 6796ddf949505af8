"""Unit tests for repro.workload.diurnal."""

from __future__ import annotations

import pytest

from repro.trace.records import TRACE_EPOCH
from repro.util.units import DAY, HOUR
from repro.workload.diurnal import DiurnalProfile


class TestDiurnalProfile:
    def test_peak_exceeds_trough_by_configured_ratio(self):
        profile = DiurnalProfile(peak_to_trough=10.0, weekend_factor=1.0)
        intensities = [profile.intensity(h * HOUR) for h in range(24)]
        assert max(intensities) / min(intensities) == pytest.approx(10.0, rel=0.05)

    def test_peak_is_in_the_afternoon(self):
        profile = DiurnalProfile(phase_hours=14.0, weekend_factor=1.0)
        intensities = {h: profile.intensity(h * HOUR) for h in range(24)}
        assert max(intensities, key=intensities.get) == 14

    def test_weekly_mean_is_about_one(self):
        profile = DiurnalProfile()
        week = [profile.intensity(h * HOUR) for h in range(7 * 24)]
        assert sum(week) / len(week) == pytest.approx(1.0, abs=0.15)

    def test_weekend_reduction(self):
        profile = DiurnalProfile(weekend_factor=0.85)
        # TRACE_EPOCH (2014-01-11) is a Saturday.
        saturday_noon = TRACE_EPOCH % DAY  # irrelevant absolute anchor
        saturday = profile.intensity(TRACE_EPOCH - TRACE_EPOCH % DAY + 12 * HOUR)
        monday = profile.intensity(TRACE_EPOCH - TRACE_EPOCH % DAY + 2 * DAY + 12 * HOUR)
        assert saturday < monday
        assert saturday_noon >= 0  # silence unused-variable linters

    def test_day_of_week_mapping(self):
        # 2014-01-11 is a Saturday (weekday 5).
        assert DiurnalProfile.day_of_week(TRACE_EPOCH) == 5
        assert DiurnalProfile.day_of_week(TRACE_EPOCH + 2 * DAY) == 0

    def test_download_bias_decays_over_the_morning(self):
        profile = DiurnalProfile()
        base = TRACE_EPOCH - TRACE_EPOCH % DAY
        at_6am = profile.download_bias(base + 6 * HOUR)
        at_noon = profile.download_bias(base + 12 * HOUR)
        at_3pm = profile.download_bias(base + 15 * HOUR)
        at_night = profile.download_bias(base + 22 * HOUR)
        assert at_6am > at_noon > at_3pm
        assert at_night == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiurnalProfile(peak_to_trough=0.5)
        with pytest.raises(ValueError):
            DiurnalProfile(weekend_factor=0.0)
