"""Tests for the Fig. 5 DDoS detection analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core.anomaly import (
    _hour_of_day_baseline,
    attack_amplification,
    detect_anomalies,
    request_rate_series,
)
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, SessionEvent
from repro.util.units import HOUR
from tests.conftest import make_session, make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    """Three days of steady traffic with a 2-hour 20x session spike on day 2."""
    storage = []
    sessions = []
    session_id = 0
    for hour in range(72):
        rate = 5
        attack = 50 <= hour < 52
        if attack:
            rate = 100
        for i in range(rate):
            session_id += 1
            sessions.append(make_session(timestamp=hour * HOUR + i,
                                         session_id=session_id,
                                         event=SessionEvent.CONNECT,
                                         caused_by_attack=attack))
            sessions.append(make_session(timestamp=hour * HOUR + i + 1,
                                         session_id=session_id,
                                         event=SessionEvent.AUTH_REQUEST,
                                         caused_by_attack=attack))
        storage.append(make_storage(timestamp=hour * HOUR, node_id=hour + 1,
                                    operation=ApiOperation.UPLOAD,
                                    caused_by_attack=attack))
    return TraceDataset(storage=storage, sessions=sessions)


class TestRequestRateSeries:
    def test_series_totals(self, crafted):
        rates = request_rate_series(crafted)
        assert rates.session.sum() == sum(1 for r in crafted.sessions
                                          if r.event is SessionEvent.CONNECT)
        assert rates.auth.sum() == sum(1 for r in crafted.sessions
                                       if r.event is SessionEvent.AUTH_REQUEST)
        assert rates.storage.sum() == len(crafted.storage)
        assert rates.rpc.sum() == 0

    def test_unknown_family(self, crafted):
        with pytest.raises(KeyError):
            request_rate_series(crafted).series("bogus")


class TestDetection:
    def test_detects_the_injected_spike(self, crafted):
        windows = detect_anomalies(crafted, family="session", threshold=4.0)
        assert len(windows) == 1
        window = windows[0]
        assert window.amplification > 10
        assert window.duration == pytest.approx(2 * HOUR)

    def test_no_false_positive_without_spike(self, crafted):
        legit = crafted.without_attack_traffic()
        assert detect_anomalies(legit, family="session", threshold=4.0) == []

    def test_threshold_validation(self, crafted):
        with pytest.raises(ValueError):
            detect_anomalies(crafted, threshold=1.0)

    def test_detects_attacks_in_simulated_dataset(self, simulated_dataset):
        windows = detect_anomalies(simulated_dataset, family="session", threshold=4.0)
        assert len(windows) >= 1
        # Detected windows must overlap ground-truth attack records.
        attack_times = [r.timestamp for r in simulated_dataset.sessions
                        if r.caused_by_attack]
        assert attack_times
        for window in windows:
            assert any(window.start - HOUR <= t <= window.end + HOUR
                       for t in attack_times)


class TestAmplification:
    def test_amplification_reflects_spike(self, crafted):
        amplification = attack_amplification(crafted)
        assert amplification["session"] > 10
        assert amplification["auth"] > 10
        assert amplification["storage"] < 5

    def test_simulated_dataset_amplification(self, simulated_dataset):
        amplification = attack_amplification(simulated_dataset)
        # Attacks multiply session/auth activity several-fold (paper: 5-15x)
        # and storage activity even more (4.6-245x).
        assert amplification["session"] > 3
        assert amplification["storage"] > 3


def _baseline_reference(series: np.ndarray, bins_per_day: int) -> np.ndarray:
    """The per-position median loop the vectorised baseline replaced."""
    baseline = np.empty_like(series)
    for offset in range(bins_per_day):
        values = series[offset::bins_per_day]
        if values.size == 0:
            continue
        positive = values[values > 0]
        med = float(np.median(positive)) if positive.size \
            else float(np.median(values))
        baseline[offset::bins_per_day] = max(med, 1.0)
    return baseline


class TestHourOfDayBaseline:
    @settings(max_examples=200, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.integers(1, 24 * 9), st.sampled_from([1, 2, 24, 1440]),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 1000.3]))
    def test_matches_the_median_loop(self, n, bins_per_day, seed, scale):
        rng = np.random.default_rng(seed)
        series = rng.integers(0, 6, n) * scale
        series[rng.random(n) < 0.4] = 0.0
        expected = _baseline_reference(series, bins_per_day)
        result = _hour_of_day_baseline(series, bins_per_day)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)
