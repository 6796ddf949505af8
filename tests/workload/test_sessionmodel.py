"""Unit tests for repro.workload.sessionmodel (the population-wide planner)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.units import DAY, HOUR
from repro.workload.config import WorkloadConfig
from repro.workload.diurnal import DiurnalProfile
from repro.workload.generator import SyntheticTraceGenerator
from repro.workload.opmodel import BurstGapSampler
from repro.workload.population import User, UserClass, build_population
from repro.workload.sessionmodel import SessionModel


@pytest.fixture
def config():
    return WorkloadConfig.scaled(users=100, days=10, seed=0)


@pytest.fixture
def model(config, rng):
    return SessionModel(config, rng)


def _heavy_user(user_id: int = 1) -> User:
    return User(user_id=user_id, user_class=UserClass.HEAVY,
                activity_weight=5.0, udf_volumes=1, shared_volumes=0)


def _occasional_user(user_id: int = 2) -> User:
    return User(user_id=user_id, user_class=UserClass.OCCASIONAL,
                activity_weight=0.01, udf_volumes=0, shared_volumes=0)


def _heavy_users(n: int) -> list[User]:
    return [_heavy_user(i + 1) for i in range(n)]


def _mixed_users(n: int) -> list[User]:
    return [_heavy_user(i + 1) if i % 2 else _occasional_user(i + 1)
            for i in range(n)]


class TestSessionPlans:
    def test_sessions_fall_inside_window(self, model, config):
        for users in ([_heavy_user()], _mixed_users(40)):
            table = model.plan_sessions(users)
            assert len(table), "heavy users should have sessions over 10 days"
            assert np.all(table.start >= config.start_time)
            assert np.all(table.start < config.end_time)
            assert np.all(table.start + table.length <= config.end_time + 1e-6)
            assert np.all(table.length > 0)
            assert np.all(np.diff(table.owner) >= 0)

    def test_session_count_scales_with_configured_rate(self, model, config):
        # Thinned Poisson: the accepted count of one user is Poisson with
        # mean rate * integral of the diurnal intensity over the window.
        diurnal = DiurnalProfile(peak_to_trough=config.diurnal_peak_to_trough,
                                 weekend_factor=config.weekend_factor)
        step = 60.0
        grid = config.start_time + step * (
            np.arange(int(config.duration_days * DAY / step)) + 0.5)
        integral = float(diurnal.intensity_array(grid).sum()) * step
        expected = config.sessions_per_user_day / DAY * integral
        n_users = 200
        total = len(model.plan_sessions(_heavy_users(n_users)))
        mean = n_users * expected
        assert abs(total - mean) < 5.0 * np.sqrt(mean)

    def test_session_length_mixture(self, model):
        lengths = model.plan_sessions(_heavy_users(300)).length
        short = np.mean(lengths < 1.0)
        assert 0.2 < short < 0.45        # ~32 % sub-second sessions
        assert np.mean(lengths < 8 * HOUR) > 0.9   # ~97 % below 8 hours

    def test_heavy_users_are_active_more_often_than_occasional(self, model):
        users = _mixed_users(400)
        table = model.plan_sessions(users)
        heavy = np.array([u.user_class is UserClass.HEAVY
                          for u in users])[table.owner]
        assert table.active[heavy].mean() > 3 * table.active[~heavy].mean()

    def test_auth_failures_are_rare_but_present(self, model):
        failure_share = model.plan_sessions(_heavy_users(300)).auth_fails.mean()
        assert 0.005 < failure_share < 0.08

    def test_sub_second_sessions_are_never_active(self, model):
        table = model.plan_sessions(_mixed_users(400))
        assert not np.any(table.active & (table.length < 1.0))


# ---------------------------------------------------------------------------
# Distribution check against the scalar per-user planner
# ---------------------------------------------------------------------------

_ACTIVE_MULTIPLIER = {UserClass.OCCASIONAL: 0.35, UserClass.UPLOAD_ONLY: 4.0,
                      UserClass.DOWNLOAD_ONLY: 4.0, UserClass.HEAVY: 9.0}


def _reference_user_sessions(config: WorkloadConfig, rng: np.random.Generator,
                             user: User):
    """The per-user scalar planner the population-wide pass replaced:
    ``(start, length, active, auth_fails, n_ops)`` arrays of one user."""
    diurnal = DiurnalProfile(peak_to_trough=config.diurnal_peak_to_trough,
                             weekend_factor=config.weekend_factor)
    bound = diurnal.max_intensity(config.start_time)
    duration = config.duration_days * DAY
    n = int(rng.poisson(config.sessions_per_user_day / DAY * bound * duration))
    candidates = np.sort(config.start_time + rng.uniform(0.0, duration, size=n))
    shifted = candidates + user.phase_offset_hours * 3600.0
    accepted = rng.random(n) < diurnal.intensity_array(shifted) / bound
    starts = candidates[accepted & (candidates < config.end_time)]
    n = len(starts)
    short = rng.random(n) < config.short_session_fraction
    lengths = np.where(
        short, rng.uniform(0.05, 1.0, size=n),
        np.minimum(rng.lognormal(np.log(config.session_length_median),
                                 config.session_length_sigma, size=n),
                   config.session_length_cap))
    lengths = np.minimum(lengths, config.end_time - starts)
    probability = min(0.95, config.active_session_fraction
                      * _ACTIVE_MULTIPLIER[user.user_class]
                      * min(3.0, 1.0 + user.activity_weight / 10.0))
    active = (lengths >= 1.0) & (rng.random(n) < probability)
    auth_fails = rng.random(n) < config.auth_failure_fraction
    n_ops = np.zeros(n, dtype=np.int64)
    for i in np.flatnonzero(active & ~auth_fails):
        heavy_tail = (1.0 - rng.random()) ** (-1.0 / 1.15) - 1.0 + 0.3
        count = int(config.mean_ops_per_active_session * heavy_tail
                    * (0.5 + min(user.activity_weight, 50.0)) / 5.0) + 1
        n_ops[i] = min(count, config.max_ops_per_session)
    return starts, lengths, active, auth_fails, n_ops


def _proportions_agree(a: np.ndarray, b: np.ndarray) -> bool:
    p = (a.sum() + b.sum()) / (len(a) + len(b))
    sigma = np.sqrt(p * (1 - p) * (1 / len(a) + 1 / len(b)))
    return abs(a.mean() - b.mean()) <= 5 * sigma + 1e-12


def _means_agree(a: np.ndarray, b: np.ndarray) -> bool:
    sigma = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return abs(a.mean() - b.mean()) <= 5 * sigma


class TestAgainstScalarReference:
    @pytest.fixture(scope="class")
    def samples(self):
        config = WorkloadConfig.scaled(
            users=500, days=3, seed=0, occasional_fraction=0.25,
            upload_only_fraction=0.25, download_only_fraction=0.25,
            heavy_fraction=0.25)
        users = build_population(config)
        classes = np.array([u.user_class.value for u in users])
        out = {"reference": [], "population": []}
        for seed in range(4):
            rng = np.random.default_rng(seed)
            parts = [_reference_user_sessions(config, rng, u) for u in users]
            counts = np.array([len(p[0]) for p in parts])
            owner = np.repeat(np.arange(len(users)), counts)
            columns = [np.concatenate([p[k] for p in parts]) for k in range(5)]
            out["reference"].append((counts, classes[owner], *columns[1:]))
            table = SessionModel(config, np.random.default_rng(1000 + seed)
                                 ).plan_sessions(users)
            out["population"].append((
                np.bincount(table.owner, minlength=len(users)),
                classes[table.owner], table.length, table.active,
                table.auth_fails, table.n_ops))
        return {key: [np.concatenate(col) for col in zip(*runs)]
                for key, runs in out.items()}

    def test_sessions_per_user(self, samples):
        assert _means_agree(samples["reference"][0], samples["population"][0])

    def test_short_share_and_length_quantiles(self, samples):
        ref, new = samples["reference"][2], samples["population"][2]
        assert _proportions_agree(ref < 1.0, new < 1.0)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            cut = np.quantile(np.concatenate([ref, new]), q)
            assert _proportions_agree(ref < cut, new < cut), q

    def test_active_share_per_class(self, samples):
        for cls in UserClass:
            ref = samples["reference"][3][samples["reference"][1] == cls.value]
            new = samples["population"][3][samples["population"][1] == cls.value]
            assert ref.sum() > 0 and _proportions_agree(ref, new), cls

    def test_auth_failure_share(self, samples):
        assert _proportions_agree(samples["reference"][4],
                                  samples["population"][4])

    def test_mean_ops_per_class(self, samples):
        ref_ops, new_ops = samples["reference"][5], samples["population"][5]
        for cls in UserClass:
            ref = ref_ops[(samples["reference"][1] == cls.value) & (ref_ops > 0)]
            new = new_ops[(samples["population"][1] == cls.value) & (new_ops > 0)]
            assert len(ref) > 1 and _means_agree(ref, new), cls
        # The heavy tail makes the means noisy; the quantiles are not.
        ref, new = ref_ops[ref_ops > 0], new_ops[new_ops > 0]
        for q in (0.25, 0.5, 0.75, 0.9):
            cut = np.quantile(np.concatenate([ref, new]), q)
            assert _proportions_agree(ref < cut, new < cut), q


# ---------------------------------------------------------------------------
# Plan invariants and the fixed Generator-call budget
# ---------------------------------------------------------------------------

def _session_weight(spec, mean_gap: float) -> float:
    if spec.auth_fails:
        return 0.25
    if spec.active:
        return 1.0 + min(float(spec.n_ops), 1.0 + spec.length / mean_gap)
    return 1.0 + spec.length / (7.0 * HOUR)


class TestPlanInvariants:
    @settings(max_examples=50, deadline=None)
    @given(users=st.integers(1, 300), days=st.floats(0.5, 5.0),
           mix=st.lists(st.integers(1, 10), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_plan_invariants(self, users, days, mix, seed):
        total = sum(mix)
        config = WorkloadConfig.scaled(
            users=users, days=days, seed=seed,
            occasional_fraction=mix[0] / total,
            upload_only_fraction=mix[1] / total,
            download_only_fraction=mix[2] / total,
            heavy_fraction=1.0 - (mix[0] + mix[1] + mix[2]) / total)
        plan = SyntheticTraceGenerator(config).plan()
        mean_gap = BurstGapSampler.mean_truncated_gap(
            config.burst_alpha, config.burst_theta, config.burst_cap)
        specs = [spec for user in plan.users for spec in user.sessions]
        assert [s.session_id for s in specs] == list(range(1, len(specs) + 1))
        for user_plan in plan.users:
            starts = [s.start for s in user_plan.sessions]
            assert starts == sorted(starts)
            weight = 0.0
            for spec in user_plan.sessions:
                weight += _session_weight(spec, mean_gap)
            assert user_plan.planned_ops == weight
        for spec in specs:
            assert config.start_time <= spec.start < config.end_time
            assert spec.end <= config.end_time + 1e-6
            assert not (spec.active and spec.length < 1.0)
            if spec.active and not spec.auth_fails:
                assert 1 <= spec.n_ops <= config.max_ops_per_session
            else:
                assert spec.n_ops == 0
        again = SyntheticTraceGenerator(config).plan()
        assert again.users == plan.users
        assert again.attacks == plan.attacks
        assert again.popular_pool.entries == plan.popular_pool.entries


class _CountingGenerator:
    """Forwards to a Generator and counts the method calls made on it."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestGeneratorCallBudget:
    @staticmethod
    def _calls(n_users: int) -> tuple[int, int]:
        config = WorkloadConfig.scaled(users=n_users, days=2, seed=3)
        rng = _CountingGenerator(np.random.default_rng(3))
        users = build_population(config, rng)
        population_calls = rng.calls
        SessionModel(config, rng).plan_sessions(users)
        return population_calls, rng.calls - population_calls

    def test_calls_do_not_scale_with_population(self):
        small, large = self._calls(10), self._calls(1000)
        assert small == large
        assert min(small) > 0
