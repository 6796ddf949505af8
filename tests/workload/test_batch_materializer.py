"""Tests for shard-wide, column-at-a-time materialization.

Two contracts are pinned here:

* **Batch independence** — a member's scripts are a pure function of
  ``(config, plan member)``: any partition and ordering of the members, and
  any cut of a shard into batches, gives every member the same events.
* **Distributions** — the batch kernels that resolve a member's lanes
  realise the reference samplers: new-file entries match
  ``FileModel.sample_new_file``, update jitters match
  ``FileModel.sample_updated_content``, volume picks weight the root 3:1,
  and cold-session polls are U(4 h, 10 h) apart with a 0.6 GetDelta share.
  Tolerances are 5 binomial sigma.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.trace.dataset import VOLUME_TYPE_CODE
from repro.trace.records import ApiOperation, VolumeType
from repro.util.units import HOUR
from repro.workload import generator
from repro.workload.config import WorkloadConfig
from repro.workload.filemodel import (
    PROFILE_EXTENSIONS,
    FileModel,
    PopularContentPool,
    new_file_entries,
    update_jitter,
)
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from repro.workload.opmodel import compiled_chain
from repro.workload.plan import SessionSpec
from repro.workload.population import User, UserClass
from tests.conftest import events_of, scripts_of

N = 200_000


def _five_sigma(p: float, n: int, m: int | None = None) -> float:
    """5 binomial sigma of a share ``p`` over ``n`` (and ``m``) draws."""
    scale = 1.0 / n if m is None else 1.0 / n + 1.0 / m
    return 5.0 * (p * (1.0 - p) * scale) ** 0.5


def _quantiles_agree(observed: np.ndarray, reference: np.ndarray) -> None:
    """Each reference decile cuts ``observed`` at its share, within 5 sigma."""
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        cut = np.quantile(reference, q)
        share = float(np.mean(observed <= cut))
        assert abs(share - q) < _five_sigma(q, observed.size, reference.size), \
            (q, share)


@pytest.fixture(scope="module")
def plan():
    config = WorkloadConfig.scaled(users=100, days=2.0, seed=29,
                                   active_session_fraction=0.25)
    return SyntheticTraceGenerator(config).plan()


@pytest.fixture(scope="module")
def reference(plan):
    return _by_session(materialize_members(plan))


def _by_session(table) -> dict:
    out = {}
    for script in scripts_of(table):
        out[script.session_id] = (
            script.user_id, script.start, script.end, script.auth_failed,
            events_of(script))
    return out


class TestBatchIndependence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_partition_gives_every_member_the_same_events(
            self, plan, reference, data):
        order = data.draw(st.permutations(range(plan.n_members)))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, plan.n_members), max_size=4)))
        parts = [order[lo:hi] for lo, hi
                 in zip([0] + cuts, cuts + [plan.n_members])]
        merged = {}
        for part in parts:
            merged.update(_by_session(materialize_members(plan, part)))
        assert merged == reference

    def test_batch_cuts_change_nothing(self, plan, reference):
        # A tiny draw budget puts nearly every member in its own batch.
        with mock.patch.object(generator, "_BATCH_DRAWS", 64):
            assert _by_session(materialize_members(plan)) == reference


class TestLockstepScans:
    """The batch-wide scans equal their per-session loop references."""

    def test_timelines_equal_per_session_running_sums(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 40, size=300)
        first = rng.random(300) * 100.0
        values = rng.random(5000) * 3.0
        at = rng.integers(0, 4000, size=300)
        ends = first + rng.random(300) * 60.0
        times, kept = generator._timelines(first, values, at, 2, counts, ends)
        expected = []
        for i in range(300):
            session = list(accumulate(
                values[at[i]:at[i] + 2 * (counts[i] - 1):2].tolist(),
                initial=first[i]))[:counts[i]]
            expected.append([t for t in session if t < ends[i]])
        assert kept.tolist() == [len(e) for e in expected]
        assert times.tolist() == [t for e in expected for t in e]

    def test_walks_equal_compiled_chain_walks(self, plan):
        materializer = generator._BatchMaterializer(
            plan.config, plan.popular_pool, generator._diurnal(plan.config))
        users = [u for u in plan.users if u.sessions]
        sizes = [generator._member_sizes(u) for u in users]
        rngs = [np.random.default_rng(i) for i in range(len(users))]
        skeleton = np.concatenate([rng.random(sum(s))
                                   for rng, s in zip(rngs, sizes)])
        sessions = materializer._structure(users, sizes, skeleton)
        position = walked = 0
        for user, member_sizes, member in zip(users, sizes, sessions):
            for spec, size, entry in zip(user.sessions, member_sizes, member):
                if entry is not None and spec.active and entry[0]:
                    a, n, times = position, spec.n_ops, entry[0]
                    allow = (user.user.udf_volumes > 0
                             or skeleton[a + 2 * n] < 0.3)
                    chain = compiled_chain(user.user.user_class, allow)
                    u = skeleton[a + n + 1:a + n + len(times)]
                    bias = materializer._diurnal.download_bias_array(
                        np.asarray(times[1:]))
                    assert entry[1] == chain.walk(skeleton[a + n], u, bias)
                    walked += 1
                position += size
        assert walked > 10


class TestNewFileEntries:
    @pytest.fixture(scope="class")
    def pool(self):
        model = FileModel(np.random.default_rng(1), hash_namespace="pop-")
        return PopularContentPool.build(model, 500)

    @pytest.fixture(scope="class")
    def lanes(self, pool):
        rng = np.random.default_rng(2)
        pick, size = new_file_entries(pool, 0.17, 512 * 1024 * 1024,
                                      rng.random(N), rng.random(N),
                                      rng.standard_normal(N))
        return pick, size

    @pytest.fixture(scope="class")
    def scalar(self, pool):
        model = FileModel(np.random.default_rng(3), duplicate_fraction=0.17,
                          shared_pool=pool, hash_namespace="u1-")
        return [model.sample_new_file() for _ in range(N // 4)]

    def test_duplicate_share(self, lanes):
        pick, _ = lanes
        share = float(np.mean(pick >= 0))
        assert abs(share - 0.17) < _five_sigma(0.17, N)

    def test_extension_shares_match_reference(self, lanes, scalar):
        pick, _ = lanes
        fresh = pick[pick < 0]
        observed = np.bincount(-1 - fresh, minlength=len(PROFILE_EXTENSIONS))
        ref_ext = [ext for content_hash, _, ext in scalar
                   if content_hash.startswith("sha1:u1-")]
        for index, extension in enumerate(PROFILE_EXTENSIONS):
            p = ref_ext.count(extension) / len(ref_ext)
            share = observed[index] / fresh.size
            assert abs(share - p) < _five_sigma(max(p, 1e-3), fresh.size,
                                                len(ref_ext)), extension

    def test_size_quantiles_match_reference(self, lanes, scalar):
        pick, size = lanes
        observed = size[pick < 0]
        ref = np.asarray([s for content_hash, s, _ in scalar
                          if content_hash.startswith("sha1:u1-")])
        _quantiles_agree(observed, ref)
        assert observed.min() >= 1

    def test_duplicates_follow_the_pool_weights(self, pool, lanes):
        pick, _ = lanes
        duplicates = pick[pick >= 0]
        weights = np.arange(1, len(pool) + 1, dtype=float) ** -1.3
        p = weights[0] / weights.sum()
        share = float(np.mean(duplicates == 0))
        assert abs(share - p) < _five_sigma(p, duplicates.size)


class TestOperandLanes:
    def test_update_jitter_matches_reference(self):
        jitter = update_jitter(np.random.default_rng(4).standard_normal(N))
        model = FileModel(np.random.default_rng(5))
        old = 10 ** 12
        reference = np.asarray([model.sample_updated_content("txt", old)[1] / old
                                for _ in range(N // 4)])
        _quantiles_agree(jitter, reference)

    def test_volume_picks_weight_the_root_three_to_one(self, plan):
        materializer = generator._BatchMaterializer(
            plan.config, plan.popular_pool, generator._diurnal(plan.config))
        user = User(user_id=7, user_class=UserClass.HEAVY,
                    activity_weight=1.0, udf_volumes=2, shared_volumes=0)
        state = generator._UserState(user, 0, 0, 1)
        materializer._volume_u = np.random.default_rng(6).random(N).tolist()
        picks = [materializer._pick_volume(state, slot).volume_type
                 for slot in range(N)]
        share = picks.count(VOLUME_TYPE_CODE[VolumeType.ROOT]) / N
        assert abs(share - 0.6) < _five_sigma(0.6, N)


class TestColdPolls:
    @pytest.fixture(scope="class")
    def cold(self, plan):
        # Week-long cold sessions: ~30 polls each, few cut by the end.
        session_id = iter(range(1, 10 ** 6))
        users = tuple(
            replace(user_plan, sessions=tuple(
                SessionSpec(session_id=next(session_id),
                            start=plan.config.start_time + k * HOUR,
                            length=7 * 24 * HOUR, active=False,
                            auth_fails=False, n_ops=0)
                for k in range(50)))
            for user_plan in plan.users)
        cold_plan = replace(plan, users=users, attacks=())
        specs = {s.session_id: s for u in users for s in u.sessions}
        return specs, scripts_of(materialize_members(cold_plan))

    def test_polls_start_one_second_in(self, cold):
        specs, scripts = cold
        for script in scripts:
            if script.events:
                assert script.events[0].time == \
                    specs[script.session_id].start + 1.0

    def test_spacing_is_uniform_over_four_to_ten_hours(self, cold):
        specs, scripts = cold
        scaled = []
        for script in scripts:
            times = [e.time for e in script.events]
            end = specs[script.session_id].end
            # A spacing is only observed if the next poll fits before the
            # session ends: given room ``end - a``, it is U(4 h, min(10 h,
            # room)), which maps it to U(0, 1).
            for a, b in zip(times, times[1:]):
                top = min(10 * HOUR, end - a)
                scaled.append((b - a - 4 * HOUR) / (top - 4 * HOUR))
        scaled = np.asarray(scaled)
        assert scaled.size > 2000
        assert scaled.min() > -1e-6 and scaled.max() < 1 + 1e-6
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            share = float(np.mean(scaled <= q))
            assert abs(share - q) < _five_sigma(q, scaled.size), q

    def test_get_delta_share(self, cold):
        _, scripts = cold
        ops = [e.operation for script in scripts for e in script.events]
        assert set(ops) <= {ApiOperation.GET_DELTA, ApiOperation.QUERY_SET_CAPS}
        share = ops.count(ApiOperation.GET_DELTA) / len(ops)
        assert len(ops) > 2000
        assert abs(share - 0.6) < _five_sigma(0.6, len(ops))
