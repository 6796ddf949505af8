"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend.datastore import ObjectStore
from repro.backend.uploadjob import UploadJob, UploadJobState
from repro.trace.anonymize import Anonymizer
from repro.util.inequality import gini_coefficient, lorenz_curve, top_share
from repro.util.powerlaw import fit_power_law
from repro.util.stats import EmpiricalCDF, autocorrelation, boxplot_summary
from repro.util.timebin import TimeBinner, bin_count_series

positive_floats = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                            allow_infinity=False)
non_negative_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                                allow_infinity=False)


# ---------------------------------------------------------------------------
# Empirical CDF
# ---------------------------------------------------------------------------

@given(st.lists(positive_floats, min_size=1, max_size=200))
def test_cdf_is_monotone_and_bounded(samples):
    cdf = EmpiricalCDF(samples)
    xs, ys = cdf.points()
    assert np.all(np.diff(ys) >= -1e-12)
    assert 0.0 <= ys[0] <= 1.0
    assert ys[-1] == 1.0
    assert cdf(min(samples) - 1.0) == 0.0
    assert cdf(max(samples)) == 1.0


@given(st.lists(positive_floats, min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_cdf_quantile_is_inverse_of_cdf(samples, q):
    cdf = EmpiricalCDF(samples)
    value = cdf.quantile(q)
    assert min(samples) <= value <= max(samples)
    # Linear interpolation of order statistics can undershoot by at most one
    # sample's worth of probability mass.
    assert cdf(value) >= q - 1.0 / len(samples) - 1e-9


# ---------------------------------------------------------------------------
# Lorenz / Gini
# ---------------------------------------------------------------------------

@given(st.lists(non_negative_floats, min_size=1, max_size=200))
def test_gini_is_bounded(values):
    gini = gini_coefficient(values)
    assert -1e-9 <= gini <= 1.0


@given(st.lists(non_negative_floats, min_size=2, max_size=200))
def test_lorenz_curve_is_convex_and_below_diagonal(values):
    xs, ys = lorenz_curve(values)
    assert np.all(ys <= xs + 1e-9)
    assert np.all(np.diff(ys) >= -1e-12)


@given(st.lists(positive_floats, min_size=1, max_size=200),
       st.floats(min_value=0.01, max_value=1.0))
def test_top_share_is_monotone_in_fraction(values, fraction):
    smaller = top_share(values, fraction / 2) if fraction / 2 >= 0.01 else 0.0
    larger = top_share(values, fraction)
    assert larger >= smaller - 1e-9
    assert larger <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=100))
def test_boxplot_ordering(values):
    summary = boxplot_summary(values)
    assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=3, max_size=100))
def test_autocorrelation_bounded(values):
    acf = autocorrelation(values, max_lag=min(10, len(values) - 1))
    assert acf[0] == 1.0
    assert np.all(np.abs(acf) <= 1.0 + 1e-9)


@given(st.floats(min_value=1.1, max_value=3.0), st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=20, deadline=None)
def test_power_law_fit_recovers_exponent(alpha, theta):
    rng = np.random.default_rng(0)
    samples = theta * (1.0 - rng.random(5000)) ** (-1.0 / alpha)
    fit = fit_power_law(samples, theta=theta)
    assert abs(fit.alpha - alpha) / alpha < 0.15


# ---------------------------------------------------------------------------
# Time binning
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=999.0, allow_nan=False), max_size=300),
       st.floats(min_value=1.0, max_value=200.0))
def test_bin_counts_preserve_in_range_events(timestamps, width):
    binner = TimeBinner(start=0.0, end=1000.0, width=width)
    counts = bin_count_series(binner, timestamps)
    assert counts.sum() == len(timestamps)
    assert counts.size == binner.n_bins


# ---------------------------------------------------------------------------
# Object store refcount invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=1, max_value=10_000)),
                min_size=1, max_size=100))
def test_object_store_accounting_invariants(operations):
    store = ObjectStore()
    for key_index, size in operations:
        store.put(f"hash-{key_index}", size)
    accounting = store.accounting
    assert accounting.bytes_stored <= accounting.logical_bytes
    assert accounting.dedup_saved_bytes >= 0
    assert 0.0 <= store.deduplication_ratio() < 1.0
    # Unlinking everything empties the store.
    for key_index, _ in operations:
        while store.unlink(f"hash-{key_index}"):
            pass
        while store._refcounts.get(f"hash-{key_index}", 0) > 0:
            store.unlink(f"hash-{key_index}")
    assert len(store) == 0


# ---------------------------------------------------------------------------
# Uploadjob state machine
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=40 * 1024 * 1024),
       st.integers(min_value=1024, max_value=8 * 1024 * 1024))
@settings(max_examples=50, deadline=None)
def test_uploadjob_completes_for_any_size(total_bytes, chunk_bytes):
    job = UploadJob(job_id=1, user_id=1, node_id=1, volume_id=1, content_hash="h",
                    total_bytes=total_bytes, created_at=0.0, chunk_bytes=chunk_bytes)
    job.assign_multipart_id("mp", when=1.0)
    parts = 0
    remaining = total_bytes
    while remaining > 0:
        part = min(chunk_bytes, remaining)
        parts = job.add_part(part, when=float(parts))
        remaining -= part
    assert parts == job.expected_parts
    assert job.is_complete
    job.commit(when=100.0)
    assert job.state is UploadJobState.COMMITTED


# ---------------------------------------------------------------------------
# Anonymiser
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200))
def test_anonymizer_is_injective_on_observed_users(user_ids):
    anonymizer = Anonymizer()
    mapping = {uid: anonymizer.anonymize_user_id(uid) for uid in user_ids}
    # Same input -> same output; distinct inputs -> distinct outputs.
    for uid in user_ids:
        assert anonymizer.anonymize_user_id(uid) == mapping[uid]
    assert len(set(mapping.values())) == len(set(user_ids))
