"""Distribution regression tests for the batched-sampling generator.

The vectorized engine draws from the same distributions as the historical
per-call sampling, but consumes the RNG stream in a different order, so the
emitted traces are different (equally likely) realisations.  These tests pin
the *distributional* properties of the materialized scripts — operation
mix, session counts, inter-operation gaps and the upload/download byte
ratio — with tolerances wide enough for realisation noise but tight enough
to catch a broken sampler.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.trace.records import ApiOperation
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from tests.conftest import events_of, scripts_of


@pytest.fixture(scope="module")
def scripts():
    config = WorkloadConfig.scaled(users=400, days=5, seed=7)
    return scripts_of(materialize_members(
        SyntheticTraceGenerator(config).plan()))


@pytest.fixture(scope="module")
def legit_events(scripts):
    return [e for s in scripts if not s.caused_by_attack for e in events_of(s)]


class TestSessionCounts:
    def test_session_count_matches_configured_rate(self, scripts):
        config = WorkloadConfig.scaled(users=400, days=5, seed=7)
        legit = [s for s in scripts if not s.caused_by_attack]
        expected = config.n_users * config.sessions_per_user_day * config.duration_days
        # The diurnal thinning keeps the configured mean rate; allow a wide
        # band for realisation noise.
        assert 0.5 * expected < len(legit) < 1.6 * expected

    def test_active_session_share(self, scripts):
        legit = [s for s in scripts if not s.caused_by_attack]
        active = sum(1 for s in legit
                     if any(e.operation.is_data_management for e in events_of(s)))
        # Only a minority of sessions perform data-management operations
        # (paper: 5.57 % active; the laptop-scale population is skewed
        # towards active users, hence the generous upper bound).
        assert 0.02 < active / len(legit) < 0.6


class TestOperationMix:
    def test_transfer_heavy_mix(self, legit_events):
        counts = Counter(e.operation for e in legit_events)
        total = sum(counts.values())
        transfers = counts[ApiOperation.UPLOAD] + counts[ApiOperation.DOWNLOAD]
        assert transfers > 0.35 * total
        # Deletions and moves exist but are clearly rarer than transfers.
        assert 0 < counts[ApiOperation.UNLINK] < transfers
        assert counts[ApiOperation.MOVE] < counts[ApiOperation.UNLINK] * 3

    def test_update_share_of_uploads(self, legit_events):
        uploads = [e for e in legit_events if e.operation is ApiOperation.UPLOAD]
        update_share = sum(e.is_update for e in uploads) / len(uploads)
        assert 0.05 < update_share < 0.25  # paper: ~10 %

    def test_upload_download_byte_ratio(self, legit_events):
        up = sum(e.size_bytes for e in legit_events
                 if e.operation is ApiOperation.UPLOAD)
        down = sum(e.size_bytes for e in legit_events
                   if e.operation is ApiOperation.DOWNLOAD)
        assert up > 0 and down > 0
        # The per-user activity is extremely heavy-tailed (Pareto ops per
        # session, lognormal sizes), so at laptop scale the aggregate R/W
        # byte ratio swings over an order of magnitude between equally
        # likely seeds; the bound only catches a broken sampler (one
        # direction collapsing entirely).
        assert 0.005 < down / up < 200.0
        n_up = sum(1 for e in legit_events if e.operation is ApiOperation.UPLOAD)
        n_down = sum(1 for e in legit_events if e.operation is ApiOperation.DOWNLOAD)
        assert 0.03 < n_down / n_up < 30.0


class TestGapsAndSizes:
    def test_intra_session_gaps_are_bursty(self, scripts):
        gaps = []
        for script in scripts:
            if script.caused_by_attack or script.n_events < 2:
                continue
            times = [e.time for e in events_of(script)]
            gaps.extend(b - a for a, b in zip(times, times[1:]))
        gaps = np.asarray([g for g in gaps if g > 0])
        assert gaps.size > 100
        # Pareto gaps: heavily over-dispersed relative to an exponential.
        assert gaps.std() / gaps.mean() > 1.5

    def test_file_sizes_dominated_by_small_files(self, legit_events):
        sizes = np.asarray([e.size_bytes for e in legit_events
                            if e.operation is ApiOperation.UPLOAD
                            and not e.is_update])
        assert np.mean(sizes < 1024 * 1024) > 0.7  # paper: ~90 % < 1 MB

    def test_reproducible_for_fixed_seed(self):
        config = WorkloadConfig.scaled(users=60, days=1, seed=11)
        a = scripts_of(materialize_members(SyntheticTraceGenerator(config).plan()))
        b = scripts_of(materialize_members(SyntheticTraceGenerator(config).plan()))
        assert [(s.session_id, s.start, s.n_events) for s in a] == \
               [(s.session_id, s.start, s.n_events) for s in b]
