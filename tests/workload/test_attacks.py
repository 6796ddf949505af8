"""Unit tests for repro.workload.attacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.records import ApiOperation
from repro.workload.attacks import build_attack_episodes
from repro.workload.config import AttackConfig, WorkloadConfig
from tests.conftest import events_of, scripts_of


@pytest.fixture
def config():
    return WorkloadConfig.scaled(users=100, days=10, seed=1)


class TestBuildEpisodes:
    def test_one_episode_per_configured_attack_inside_window(self, config):
        episodes = build_attack_episodes(config, first_attacker_id=1000,
                                         first_node_id=5000, first_volume_id=6000)
        assert len(episodes) == len(config.attacks)
        for episode, attack in zip(episodes, config.attacks):
            assert episode.start < episode.end <= config.end_time
            assert episode.config is attack

    def test_attacks_outside_window_are_dropped(self):
        config = WorkloadConfig.scaled(users=10, days=1).replace(
            attacks=(AttackConfig(start_day=5.0),))
        episodes = build_attack_episodes(config, 100, 200, 300)
        assert episodes == []

    def test_attacker_ids_do_not_collide(self, config):
        episodes = build_attack_episodes(config, first_attacker_id=config.n_users + 1,
                                         first_node_id=10_000, first_volume_id=20_000)
        ids = [e.attacker_user_id for e in episodes]
        assert len(set(ids)) == len(ids)
        assert min(ids) > config.n_users


class TestGenerateSessions:
    def test_sessions_amplify_baseline_and_are_flagged(self, config):
        episode = build_attack_episodes(config, 1000, 5000, 6000)[1]
        rng = np.random.default_rng(0)
        scripts = scripts_of(episode.generate_sessions(
            rng, baseline_sessions_per_hour=10.0,
            baseline_storage_ops_per_hour=50.0, session_id_start=0))
        duration_hours = (episode.end - episode.start) / 3600.0
        assert len(scripts) > 10 * duration_hours  # amplified vs baseline
        for script in scripts:
            assert script.caused_by_attack
            assert script.user_id == episode.attacker_user_id
            assert episode.start <= script.start <= episode.end
            for event in events_of(script):
                assert event.caused_by_attack
                assert event.operation in (ApiOperation.DOWNLOAD, ApiOperation.UPLOAD)
                assert event.node_id == episode.shared_node_id

    def test_caps_bound_the_episode_size(self, config):
        episode = build_attack_episodes(config, 1000, 5000, 6000)[1]
        rng = np.random.default_rng(0)
        scripts = scripts_of(episode.generate_sessions(
            rng, baseline_sessions_per_hour=1e6,
            baseline_storage_ops_per_hour=1e7, session_id_start=0,
            max_sessions=200, max_storage_ops=500))
        assert len(scripts) <= 200
        assert sum(s.n_events for s in scripts) <= 1500  # poisson slack

    def test_mostly_downloads(self, config):
        episode = build_attack_episodes(config, 1000, 5000, 6000)[0]
        rng = np.random.default_rng(1)
        scripts = scripts_of(episode.generate_sessions(rng, 20.0, 200.0, 0))
        events = [e for s in scripts for e in events_of(s)]
        downloads = sum(1 for e in events if e.operation is ApiOperation.DOWNLOAD)
        assert downloads / max(len(events), 1) > 0.8
