"""Property test: every way of building a dataset yields the same dataset.

Records are generated with unsorted and tied timestamps, repeated and empty
strings, ``None`` API operations and attack flags.  Each ingestion route —
the record-list constructor, ``add_*``, ``append_*_row``, the block merge
over ``ColumnBlock``\\ s and the vectorised filters — must agree with a
reference built from the plain record lists on ``rows()``, every decoded
column, ``==`` and ``content_digest()``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.dataset import ColumnBlock, TraceDataset
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

_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0])
_SMALL = st.integers(0, 3)
_SERVERS = st.sampled_from(["api0", "api1", ""])

_STORAGE = st.builds(
    StorageRecord, timestamp=_TIMES, server=_SERVERS, process=_SMALL,
    user_id=_SMALL, session_id=_SMALL, operation=st.sampled_from(ApiOperation),
    node_id=_SMALL, volume_id=_SMALL, volume_type=st.sampled_from(VolumeType),
    node_kind=st.sampled_from(NodeKind), size_bytes=st.integers(0, 10**6),
    content_hash=st.sampled_from(["", "h1", "h2", "h3"]),
    extension=st.sampled_from(["", "txt", "jpg"]), is_update=st.booleans(),
    shard_id=st.integers(-1, 3), caused_by_attack=st.booleans(),
    error_kind=st.sampled_from(["", "service_unavailable"]), retries=_SMALL)
_RPC = st.builds(
    RpcRecord, timestamp=_TIMES, server=_SERVERS, process=_SMALL,
    user_id=_SMALL, session_id=_SMALL, rpc=st.sampled_from(RpcName),
    shard_id=_SMALL, service_time=st.sampled_from([0.001, 0.25, 3.0]),
    api_operation=st.none() | st.sampled_from(ApiOperation),
    caused_by_attack=st.booleans())
_SESSION = st.builds(
    SessionRecord, timestamp=_TIMES, server=_SERVERS, process=_SMALL,
    user_id=_SMALL, session_id=_SMALL, event=st.sampled_from(SessionEvent),
    caused_by_attack=st.booleans(),
    session_length=st.sampled_from([-1.0, 0.0, 12.5]),
    storage_operations=_SMALL)
_TRACES = st.tuples(st.lists(_STORAGE, max_size=12),
                    st.lists(_RPC, max_size=12),
                    st.lists(_SESSION, max_size=12))

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
    _assert_same(TraceDataset(*trace), trace)
    added = TraceDataset()
    appended = TraceDataset()
    for record in trace[0]:
        added.add_storage(record)
        appended.append_storage_row(*_row(record))
    for record in trace[1]:
        added.add_rpc(record)
        appended.append_rpc_row(*_row(record))
    for record in trace[2]:
        added.add_session(record)
        appended.append_session_row(*_row(record))
    _assert_same(added, trace)
    _assert_same(appended, trace)
    added.sort()
    _assert_same(added, tuple(_stable_sorted(records) for records in trace))


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
    for record in later[0]:
        base.add_storage(record)
    for record in later[1]:
        base.append_rpc_row(*_row(record))
    for record in later[2]:
        base.add_session(record)
    base.sort()
    _assert_same(window, keep(lambda r: lo <= r.timestamp < hi))
    combined = tuple(_stable_sorted(records + extra)
                     for records, extra in zip(trace, later))
    _assert_same(base, combined)
    # The cached attack-free view follows the new content.
    _assert_same(base.without_attack_traffic(),
                 tuple([r for r in records if not r.caused_by_attack]
                       for records in combined))
