"""Per-state derived data of a TraceDataset: the time span, the bin-index
columns and the distinct id counts recompute whenever a stream installs new
content (appended rows, a re-sort), a view derives its own, and a report
over cached data equals one over fresh data."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.report import format_report, full_report
from repro.trace.dataset import _STORAGE_SPEC, TraceDataset
from repro.util.timebin import TimeBinner, bin_index_column
from repro.util.units import HOUR, MINUTE
from tests.conftest import TRACE_EPOCH, make_session, make_storage


def _row(record) -> tuple:
    return _STORAGE_SPEC.row_of(record)


@pytest.fixture
def dataset() -> TraceDataset:
    return TraceDataset(
        storage=[make_storage(timestamp=t, user_id=u, session_id=s,
                              caused_by_attack=attack)
                 for t, u, s, attack in ((100.0, 1, 10, False),
                                         (4000.0, 2, 20, True),
                                         (50.0, 1, 10, False),
                                         (7300.0, 3, 30, False))],
        sessions=[make_session(timestamp=t, user_id=u, session_id=s)
                  for t, u, s in ((20.0, 1, 10), (3700.0, 4, 40))])


def _check_derived(dataset: TraceDataset) -> None:
    """Every derived value equals its from-scratch computation."""
    timestamps = np.concatenate([dataset.storage_column("timestamp"),
                                 dataset.rpc_column("timestamp"),
                                 dataset.session_column("timestamp")])
    assert dataset.time_span() == (float(timestamps.min()),
                                   float(timestamps.max()))
    binner = dataset.span_binner(HOUR)
    assert binner == TimeBinner(timestamps.min(), timestamps.max() + HOUR, HOUR)
    # One column per binner: the hourly and per-minute columns coexist.
    for width in (HOUR, MINUTE, HOUR):
        binner = dataset.span_binner(width)
        for bins, column in ((dataset.storage_bins, dataset.storage_column),
                             (dataset.rpc_bins, dataset.rpc_column),
                             (dataset.session_bins, dataset.session_column)):
            assert np.array_equal(
                bins(binner), bin_index_column(binner, column("timestamp")))
    users = set(dataset.storage_column("user_id").tolist()) \
        | set(dataset.rpc_column("user_id").tolist()) \
        | set(dataset.session_column("user_id").tolist())
    sessions = set(dataset.storage_column("session_id").tolist()) \
        | set(dataset.session_column("session_id").tolist())
    assert dataset.user_ids() == users
    assert dataset.user_count() == len(users)
    assert dataset.session_ids() == sessions
    assert dataset.session_count() == len(sessions)


class TestInvalidation:
    def test_fresh(self, dataset):
        _check_derived(dataset)
        assert dataset.time_span() == (TRACE_EPOCH + 20.0, TRACE_EPOCH + 7300.0)
        assert dataset.user_count() == 4

    def test_after_appended_rows(self, dataset):
        _check_derived(dataset)
        dataset._storage.append(_row(make_storage(timestamp=9000.0,
                                                  user_id=77,
                                                  session_id=770)))
        _check_derived(dataset)
        assert dataset.time_span() == (TRACE_EPOCH + 20.0, TRACE_EPOCH + 9000.0)
        assert 77 in dataset.user_ids() and dataset.user_count() == 5
        assert dataset.storage_bins(dataset.span_binner(HOUR)).size == 5

    def test_after_sort(self, dataset):
        binner = dataset.span_binner(HOUR)
        before = dataset.storage_bins(binner).copy()
        _check_derived(dataset)
        dataset.sort()
        _check_derived(dataset)
        assert not np.array_equal(dataset.storage_bins(binner), before)
        assert np.array_equal(np.sort(dataset.storage_bins(binner)),
                              np.sort(before))

    def test_attack_free_view(self, dataset):
        _check_derived(dataset)
        legit = dataset.without_attack_traffic()
        _check_derived(legit)
        assert legit.user_ids() == {1, 3, 4}
        binner = dataset.span_binner(HOUR)
        assert legit.storage_bins(binner).size == 3
        # The view's cache is its own: appending to the base leaves it be.
        dataset._storage.append(_row(make_storage(timestamp=1.0, user_id=9)))
        _check_derived(dataset)
        _check_derived(legit)
        assert 9 not in legit.user_ids()
        _check_derived(dataset.without_attack_traffic())
        assert 9 in dataset.without_attack_traffic().user_ids()

    def test_empty_streams(self):
        dataset = TraceDataset(storage=[make_storage(timestamp=5.0)])
        _check_derived(dataset)
        with pytest.raises(ValueError):
            TraceDataset().time_span()


def _assert_same(a, b, path="report") -> None:
    """Field-for-field equality of two analysis results."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            _assert_same(getattr(a, field.name), getattr(b, field.name),
                         f"{path}.{field.name}")
    elif isinstance(a, dict):
        # Keys compare as sets: some analyses key by category, in the
        # stream's first-occurrence order, which depends on how it was built.
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif hasattr(a, "__dict__") and not isinstance(a, type):
        _assert_same(vars(a), vars(b), path)
    else:
        assert type(a) is type(b) and (a == b or a != a and b != b), path


class TestReportOverDerivedData:
    @pytest.fixture(scope="class")
    def merged(self):
        from repro.backend.cluster import ClusterConfig, U1Cluster
        from repro.workload.config import WorkloadConfig
        from repro.workload.generator import SyntheticTraceGenerator

        config = WorkloadConfig.scaled(users=120, days=2, seed=5)
        return U1Cluster(ClusterConfig(seed=5)).replay_plan(
            SyntheticTraceGenerator(config).plan(), n_jobs=1)

    def test_records_and_blocks_give_the_same_report(self, merged):
        by_records = TraceDataset(storage=merged.storage, rpc=merged.rpc,
                                  sessions=merged.sessions)
        assert by_records.content_digest() == merged.content_digest()
        _assert_same(full_report(by_records), full_report(merged))

    def test_cached_report_equals_fresh_report(self, merged):
        first = format_report(merged)
        fresh = TraceDataset(storage=merged.storage, rpc=merged.rpc,
                             sessions=merged.sessions)
        assert format_report(merged) == first == format_report(fresh)
