"""Property test: every way of building a dataset yields the same dataset.

Records are generated with unsorted and tied timestamps, repeated and empty
strings, ``None`` API operations and attack flags.  Each ingestion route —
the record-list constructor, a stream's row appender, ``append_block``, the
block merge over ``ColumnBlock``\\ s, the vectorised filters, the columnar
anonymiser and the logfile round trip — must agree with a reference built
from the plain record lists on ``rows()``, every decoded column, ``==`` and
``content_digest()``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.anonymize import Anonymizer
from repro.trace.dataset import ColumnBlock, TraceDataset
from repro.trace.logfile import read_trace_directory, write_trace_directory
from repro.trace.records import (
    ApiOperation,
    NodeKind,
    RpcName,
    RpcRecord,
    SessionEvent,
    SessionRecord,
    StorageRecord,
    VolumeType,
)
from tests.conftest import append_records

_SMALL = st.integers(0, 3)


def _traces(times, servers):
    """Storage, RPC and session record lists over the given timestamps and
    server names (every float field has at most 6 decimals)."""
    storage = st.builds(
        StorageRecord, timestamp=times, server=servers, process=_SMALL,
        user_id=_SMALL, session_id=_SMALL,
        operation=st.sampled_from(ApiOperation), node_id=_SMALL,
        volume_id=_SMALL, volume_type=st.sampled_from(VolumeType),
        node_kind=st.sampled_from(NodeKind), size_bytes=st.integers(0, 10**6),
        content_hash=st.sampled_from(["", "h1", "h2", "h3"]),
        extension=st.sampled_from(["", "txt", "jpg"]), is_update=st.booleans(),
        shard_id=st.integers(-1, 3), caused_by_attack=st.booleans(),
        error_kind=st.sampled_from(["", "service_unavailable"]),
        retries=_SMALL)
    rpc = st.builds(
        RpcRecord, timestamp=times, server=servers, process=_SMALL,
        user_id=_SMALL, session_id=_SMALL, rpc=st.sampled_from(RpcName),
        shard_id=_SMALL, service_time=st.sampled_from([0.001, 0.25, 3.0]),
        api_operation=st.none() | st.sampled_from(ApiOperation),
        caused_by_attack=st.booleans())
    sessions = st.builds(
        SessionRecord, timestamp=times, server=servers, process=_SMALL,
        user_id=_SMALL, session_id=_SMALL, event=st.sampled_from(SessionEvent),
        caused_by_attack=st.booleans(),
        session_length=st.sampled_from([-1.0, 0.0, 12.5]),
        storage_operations=_SMALL)
    return st.tuples(st.lists(storage, max_size=12), st.lists(rpc, max_size=12),
                     st.lists(sessions, max_size=12))


_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0])
_TRACES = _traces(_TIMES, st.sampled_from(["api0", "api1", ""]))
#: Logfile-safe traces: timestamps tied and on both sides of a UTC midnight
#: (2014-01-12), machine names non-empty and some with dashes.
_LOGGED = _traces(
    st.sampled_from([1389484799.5, 1389484800.0, 1389484800.0, 1389484800.25,
                     1389571199.999999]),
    st.sampled_from(["api0", "api-node-1", "whitecurrant"]))

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _row(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _streams(dataset: TraceDataset):
    return (dataset._storage, dataset._rpc, dataset._sessions)


def _assert_same(dataset: TraceDataset, trace: tuple[list, list, list]) -> None:
    """``dataset`` holds exactly the plain record lists of ``trace``."""
    reference = TraceDataset(*trace)
    for stream, ref_stream, records in zip(_streams(dataset),
                                           _streams(reference), trace):
        assert stream.rows() == [_row(r) for r in records]
        assert ref_stream.rows() == [_row(r) for r in records]
        for name in stream.spec.fields:
            column = stream.column(name)
            expected = ref_stream.column(name)
            assert column.dtype == expected.dtype, name
            assert column.tolist() == expected.tolist(), name
    assert dataset == reference
    assert dataset.content_digest() == reference.content_digest()


def _stable_sorted(records: list) -> list:
    return sorted(records, key=lambda r: r.timestamp)


@_SETTINGS
@given(_TRACES)
def test_constructor_add_and_row_routes(trace):
    constructed = TraceDataset(*trace)
    _assert_same(constructed, trace)
    # A stream's row appender (the trace sink's session-row route).
    appended = TraceDataset()
    for stream, records in zip(_streams(appended), trace):
        for record in records:
            stream.append(_row(record))
    _assert_same(appended, trace)
    constructed.sort()
    _assert_same(constructed, tuple(_stable_sorted(records) for records in trace))


@_SETTINGS
@given(_TRACES, st.data())
def test_merge_of_column_blocks(trace, data):
    """Blocks are sorted subsequences; the merge is a stable sort of their
    concatenation in block order."""
    n_blocks = data.draw(st.integers(1, 3))
    ordered = tuple(_stable_sorted(records) for records in trace)
    labels = tuple(data.draw(st.lists(st.integers(0, n_blocks - 1),
                                      min_size=len(records),
                                      max_size=len(records)))
                   for records in ordered)
    blocks = []
    for block in range(n_blocks):
        part = TraceDataset(*([r for r, label in zip(records, stream_labels)
                               if label == block]
                              for records, stream_labels in zip(ordered, labels)))
        if data.draw(st.booleans()):
            blocks.append(part)
        else:
            blocks.append(tuple(ColumnBlock.from_stream(stream)
                                for stream in _streams(part)))
    expected = tuple(
        _stable_sorted([r for block in range(n_blocks)
                        for r, label in zip(records, stream_labels)
                        if label == block])
        for records, stream_labels in zip(ordered, labels))
    _assert_same(TraceDataset.from_sorted_blocks(blocks), expected)


@_SETTINGS
@given(_TRACES, _TIMES, _TIMES, st.sets(_SMALL), _TRACES)
def test_views(trace, lo, hi, users, later):
    base = TraceDataset(*trace)

    def keep(predicate):
        return tuple([r for r in records if predicate(r)] for records in trace)

    window = base.filter_time(lo, hi)
    _assert_same(window, keep(lambda r: lo <= r.timestamp < hi))
    _assert_same(base.filter_users(users), keep(lambda r: r.user_id in users))
    legit = base.without_attack_traffic()
    _assert_same(legit, keep(lambda r: not r.caused_by_attack))
    _assert_same(legit.filter_users(users),
                 keep(lambda r: not r.caused_by_attack and r.user_id in users))
    # Appending to and re-sorting the base leaves earlier views unchanged.
    append_records(base, *later)
    base.sort()
    _assert_same(window, keep(lambda r: lo <= r.timestamp < hi))
    combined = tuple(_stable_sorted(records + extra)
                     for records, extra in zip(trace, later))
    _assert_same(base, combined)
    # The cached attack-free view follows the new content.
    _assert_same(base.without_attack_traffic(),
                 tuple([r for r in records if not r.caused_by_attack]
                       for records in combined))


def _pseudonymised(anonymizer: Anonymizer, record):
    """``record`` with the scalar pseudonyms applied field by field."""
    changes = {"user_id": anonymizer.anonymize_user_id(record.user_id),
               "session_id": anonymizer.anonymize_session_id(record.session_id)}
    if isinstance(record, StorageRecord):
        changes.update(
            node_id=anonymizer.anonymize_node_id(record.node_id),
            content_hash=anonymizer.anonymize_hash(record.content_hash),
            extension=record.extension if anonymizer.preserve_extensions else "")
    return dataclasses.replace(record, **changes)


def _logfile_order(records: list) -> list:
    """The order a stream reads back in: by timestamp, ties by logfile name
    (the order files are read), then by position (the order within a file)."""
    def name(record) -> str:
        day = dt.datetime.fromtimestamp(record.timestamp, tz=dt.timezone.utc)
        return f"{record.server}-{record.process}-{day:%Y%m%d}"
    return sorted(records, key=lambda r: (r.timestamp, name(r)))


@_SETTINGS
@given(_TRACES, st.sets(_SMALL), st.booleans())
def test_columnar_anonymizer_equals_scalar_pseudonyms(trace, users, keep_ext):
    anonymizer = Anonymizer(secret=b"property", preserve_extensions=keep_ext)
    dataset = TraceDataset(*trace)
    # A view keeps its base's categories, used or not.
    for source, records in ((dataset, trace),
                            (dataset.filter_users(users),
                             tuple([r for r in stream if r.user_id in users]
                                   for stream in trace))):
        expected = tuple([_pseudonymised(anonymizer, r) for r in stream]
                         for stream in records)
        _assert_same(anonymizer.anonymize(source), expected)


@_SETTINGS
@given(_LOGGED)
def test_logfile_round_trip(trace):
    with tempfile.TemporaryDirectory() as directory:
        write_trace_directory(directory, TraceDataset(*trace))
        loaded = read_trace_directory(directory)
    _assert_same(loaded, tuple(_logfile_order(records) for records in trace))
