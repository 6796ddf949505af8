"""The in-memory trace dataset consumed by all analyses.

A :class:`TraceDataset` is the merge of every per-process logfile for the
measurement window (Section 4.1): storage records, RPC records and session
records.  The class offers the slicing primitives the analyses need —
filtering by time window, by user, by operation — plus merging and sorting,
mirroring how the paper reconstructs per-user sequential activity ("to have a
strictly sequential notion of the activity of a user we should take into
account the U1 session and sort the trace by timestamp").

Columnar storage
----------------
Each stream has one representation: a set of per-field NumPy column arrays,
plus an append buffer of row tuples (positional, in record-field order) that
is packed into the columns when the stream is next read.

* Numeric fields are typed arrays.  Enum fields are ``int16`` code arrays
  (``-1`` for ``None``); the code tables are exported as
  :data:`OPERATION_CODE`, :data:`RPC_CODE`, :data:`SESSION_EVENT_CODE`,
  :data:`VOLUME_TYPE_CODE` and :data:`NODE_KIND_CODE`.  Object fields
  (``server``, ``content_hash``, ``extension``, ``error_kind``) are stored
  factorised as ``(int32 codes, categories)``, categories in
  first-occurrence order; ``*_column(name)`` decodes them on demand.
* The record-list constructor appends to the buffer.  The back-end's
  trace sink (:mod:`repro.backend.tracing`) records provenance instead of
  rows and delivers its storage, RPC and session rows as whole
  :class:`ColumnBlock`\\ s (:meth:`ColumnBlock.gather`) that a stream takes
  with :meth:`_Stream.append_block`; the anonymiser and the logfile reader
  (:mod:`repro.trace.anonymize`, :mod:`repro.trace.logfile`) build their
  streams the same way.
* The slicing primitives (``filter_time``, ``filter_users``,
  ``without_attack_traffic``) evaluate their predicate vectorised and return
  datasets of views: an index array into the parent's columns.
* :attr:`TraceDataset.storage`, :attr:`~TraceDataset.rpc` and
  :attr:`~TraceDataset.sessions` are lazy read-only sequences of record
  objects decoded from the columns.  The records are copies: mutating one
  does not change the dataset.

Derived data
------------
Every analysis of a report reads the same few reductions, so each stream
keeps them per content state, beside its gathered and decoded columns:

* its timestamp range (:meth:`TraceDataset.time_span` combines the three);
* one ``int32`` bin-index column per ``(start, end, width)``
  (:meth:`TraceDataset.storage_bins` and friends, see
  :func:`repro.util.timebin.bin_index_column`);
* the sorted distinct values of an integer field (:meth:`_Stream.unique`),
  which :meth:`TraceDataset.user_ids`, :meth:`~TraceDataset.user_count` and
  the session-id pair merge across streams.

Packing appended rows and sorting install new content and drop all of it;
a view (``filter_*``, ``without_attack_traffic``) derives its own.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import starmap
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

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
from repro.util.distinct import distinct
from repro.util.timebin import TimeBinner, bin_index_column

__all__ = [
    "ColumnBlock",
    "REQUEST_FIELDS",
    "TraceDataset",
    "concat_stored",
    "factorise",
    "request_column",
    "OPERATION_CODE",
    "RPC_CODE",
    "SESSION_EVENT_CODE",
    "VOLUME_TYPE_CODE",
    "NODE_KIND_CODE",
]


#: Integer codes used by the enum-valued column arrays.
OPERATION_CODE: dict[ApiOperation, int] = {op: i for i, op in enumerate(ApiOperation)}
RPC_CODE: dict[RpcName, int] = {rpc: i for i, rpc in enumerate(RpcName)}
SESSION_EVENT_CODE: dict[SessionEvent, int] = {ev: i for i, ev in enumerate(SessionEvent)}
VOLUME_TYPE_CODE: dict[VolumeType, int] = {vt: i for i, vt in enumerate(VolumeType)}
NODE_KIND_CODE: dict[NodeKind, int] = {nk: i for i, nk in enumerate(NodeKind)}

_UPLOAD_CODE = OPERATION_CODE[ApiOperation.UPLOAD]
_DOWNLOAD_CODE = OPERATION_CODE[ApiOperation.DOWNLOAD]


class _StreamSpec:
    """Static description of one record stream (fields, dtypes, factory)."""

    __slots__ = ("factory", "fields", "row_of", "kinds", "codes", "decode")

    def __init__(self, factory, fields: tuple[str, ...],
                 kinds: dict[str, object], codes: dict[str, dict]):
        self.factory = factory
        self.fields = fields
        #: record -> row tuple in field order.
        self.row_of = attrgetter(*fields)
        self.kinds = kinds
        self.codes = codes
        # Reverse enum tables: code -> enum member (codes are 0..n-1 in
        # declaration order, so a list indexes directly).
        self.decode = {name: list(mapping) for name, mapping in codes.items()}


_STORAGE_SPEC = _StreamSpec(
    StorageRecord,
    ("timestamp", "server", "process", "user_id", "session_id", "operation",
     "node_id", "volume_id", "volume_type", "node_kind", "size_bytes",
     "content_hash", "extension", "is_update", "shard_id", "caused_by_attack",
     "error_kind", "retries"),
    kinds={"timestamp": np.float64, "server": object, "process": np.int64,
           "user_id": np.int64, "session_id": np.int64, "operation": "enum",
           "node_id": np.int64, "volume_id": np.int64, "volume_type": "enum",
           "node_kind": "enum", "size_bytes": np.int64, "content_hash": object,
           "extension": object, "is_update": np.bool_, "shard_id": np.int64,
           "caused_by_attack": np.bool_, "error_kind": object,
           "retries": np.int64},
    codes={"operation": OPERATION_CODE, "volume_type": VOLUME_TYPE_CODE,
           "node_kind": NODE_KIND_CODE},
)

_RPC_SPEC = _StreamSpec(
    RpcRecord,
    ("timestamp", "server", "process", "user_id", "session_id", "rpc",
     "shard_id", "service_time", "api_operation", "caused_by_attack"),
    kinds={"timestamp": np.float64, "server": object, "process": np.int64,
           "user_id": np.int64, "session_id": np.int64, "rpc": "enum",
           "shard_id": np.int64, "service_time": np.float64,
           "api_operation": "enum", "caused_by_attack": np.bool_},
    codes={"rpc": RPC_CODE, "api_operation": OPERATION_CODE},
)

_SESSION_SPEC = _StreamSpec(
    SessionRecord,
    ("timestamp", "server", "process", "user_id", "session_id", "event",
     "caused_by_attack", "session_length", "storage_operations"),
    kinds={"timestamp": np.float64, "server": object, "process": np.int64,
           "user_id": np.int64, "session_id": np.int64, "event": "enum",
           "caused_by_attack": np.bool_, "session_length": np.float64,
           "storage_operations": np.int64},
    codes={"event": SESSION_EVENT_CODE},
)


class ColumnBlock:
    """One stream's events as per-field NumPy arrays (the shard IPC format).

    ``cols`` maps every numeric/enum field to the exact array
    ``_Stream.column`` would return (enum fields as ``int16`` code arrays),
    and ``codes`` maps every object-dtype field (``server``,
    ``content_hash``, ``extension``, ``error_kind``) to a factorised
    ``(int32 codes, categories)`` pair, categories in first-occurrence
    order.  A replay shard builds its storage, RPC and session blocks with
    :meth:`gather` from request columns and per-row back-end values, and
    ships them across the worker boundary: numeric arrays pickle as contiguous buffers, no
    per-event Python objects cross, and the factorisation dedups the
    repeated strings (machine names, duplicated content hashes).
    """

    __slots__ = ("n", "cols", "codes")

    def __init__(self, n: int, cols: dict[str, np.ndarray],
                 codes: dict[str, tuple[np.ndarray, list]]):
        self.n = n
        self.cols = cols
        self.codes = codes

    @classmethod
    def from_stream(cls, stream: "_Stream") -> "ColumnBlock":
        """Snapshot a stream's fields as columns (built in the shard worker)."""
        stream.pack()
        cols: dict[str, np.ndarray] = {}
        codes: dict[str, tuple[np.ndarray, list]] = {}
        for name in stream.spec.fields:
            value = stream.stored(name)
            if type(value) is tuple:
                codes[name] = value
            else:
                cols[name] = value
        return cls(len(stream), cols, codes)

    @classmethod
    def gather(cls, stream: str, sources: dict, index: np.ndarray,
               own: dict) -> "ColumnBlock":
        """A ``stream`` block (``"storage"``, ``"rpc"`` or ``"sessions"``)
        of ``len(index)`` rows: each field in ``own`` as given (stored
        form), every other field taken from the same-named ``sources``
        column at ``index`` in one NumPy gather.  Object fields are renumbered to first-occurrence row
        order, so the block equals the one packed from the same rows."""
        cols: dict[str, np.ndarray] = {}
        codes: dict[str, tuple[np.ndarray, list]] = {}
        for name in _SPECS[stream].fields:
            value = own.get(name)
            if value is None:
                value = _take(sources[name], index)
            if type(value) is tuple:
                codes[name] = _canonical_codes(*value)
            else:
                cols[name] = value
        return cls(len(index), cols, codes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the NumPy arrays (the IPC payload size)."""
        total = sum(arr.nbytes for arr in self.cols.values())
        total += sum(pair[0].nbytes for pair in self.codes.values())
        return total


def _column_from_values(spec: _StreamSpec, name: str, values: tuple):
    """Stored form of one field from its transposed values.

    An array for numeric and enum fields; a factorised ``(int32 codes,
    categories)`` pair, categories in first-occurrence order, for object
    fields.
    """
    kind = spec.kinds[name]
    n = len(values)
    if kind == "enum":
        codes = spec.codes[name]
        try:
            # C-level map over the code table — the shard column-packing hot
            # path.  Falls back to .get for rows carrying None enum fields.
            return np.fromiter(map(codes.__getitem__, values),
                               dtype=np.int16, count=n)
        except KeyError:
            return np.fromiter((codes.get(v, -1) for v in values),
                               dtype=np.int16, count=n)
    if kind is object:
        return factorise(values)
    return np.asarray(values, dtype=kind)


def factorise(values) -> tuple[np.ndarray, list]:
    """``(int32 codes, categories)`` of a sequence of hashable values,
    categories in first-occurrence order (the stored form of an object
    field)."""
    # C-speed factorisation: dict.fromkeys dedups in insertion order and
    # the code lookup maps at C level.
    mapping = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return (np.fromiter(map(mapping.__getitem__, values), dtype=np.int32,
                        count=len(values)), list(mapping))


#: What a storage or RPC row takes from the request it serves: every
#: storage field but the back-end's ``shard_id``, ``error_kind`` and
#: ``retries`` (an RPC row reads ``operation`` as its ``api_operation``).
REQUEST_FIELDS = _STORAGE_SPEC.fields[:14] + ("caused_by_attack",)


def request_column(name: str, values) -> np.ndarray | tuple[np.ndarray, list]:
    """Stored form of one request field (see :data:`REQUEST_FIELDS`)."""
    return _column_from_values(_STORAGE_SPEC, name, values)


def concat_stored(parts: list) -> np.ndarray | tuple[np.ndarray, list]:
    """Concatenate stored forms of one field (arrays or factorised pairs)."""
    if type(parts[0]) is tuple:
        return _merge_factorised(parts)
    return np.concatenate(parts)


def _pack(spec: _StreamSpec, rows: list[tuple]) -> dict:
    """Column dict of a list of row tuples: one ``zip(*rows)`` transpose."""
    if not rows:
        return {name: _column_from_values(spec, name, ()) for name in spec.fields}
    transposed = tuple(zip(*rows))
    if len(transposed) != len(spec.fields):
        raise ValueError(f"{spec.factory.__name__} rows have "
                         f"{len(transposed)} fields, expected "
                         f"{len(spec.fields)}")
    return {name: _column_from_values(spec, name, values)
            for name, values in zip(spec.fields, transposed)}


def _merge_factorised(pairs: list[tuple[np.ndarray, list]]) -> tuple[np.ndarray, list]:
    """Concatenate factorised ``(codes, categories)`` pairs in block order.

    Categories keep first-occurrence order across blocks; per-block codes are
    remapped through a small translation array (vectorised ``take``).
    """
    categories: list = []
    index: dict = {}
    remapped: list[np.ndarray] = []
    for codes_arr, cats in pairs:
        mapping = np.empty(len(cats), dtype=np.int32)
        for i, value in enumerate(cats):
            code = index.get(value)
            if code is None:
                code = index[value] = len(categories)
                categories.append(value)
            mapping[i] = code
        remapped.append(mapping[codes_arr] if len(cats)
                        else codes_arr.astype(np.int32))
    return np.concatenate(remapped), categories


def _take(value, indices: np.ndarray):
    """Rows ``indices`` of a stored field (array or factorised pair)."""
    if type(value) is tuple:
        return value[0][indices], value[1]
    return value[indices]


def _canonical_codes(codes: np.ndarray, categories: list) -> tuple[np.ndarray, list]:
    """Factorisation of the same values with only the categories in use,
    numbered by first occurrence — a pure function of the decoded column."""
    n = len(codes)
    first = np.full(len(categories), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    used = np.flatnonzero(first < n)
    used = used[np.argsort(first[used], kind="stable")]
    remap = np.zeros(len(categories), dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    return remap[codes], [categories[i] for i in used.tolist()]


class _Stream:
    """One record stream: column arrays plus an append buffer of row tuples.

    A *base* stream owns ``_cols``: the stored form of every field of its
    first ``_n`` events (arrays; object fields as ``(codes, categories)``
    pairs).  Rows appended since sit in ``_buf`` and are packed into a new
    column dict on the next read; whole column blocks join through
    :meth:`append_block`.  A *view* (``_indices`` set) reads the column
    dict of the stream it was taken from, as installed when it was taken.
    Packing and sorting install a new dict and never mutate an installed
    one, so a view stays coherent whatever happens to its base.

    ``_buf`` is cleared in place, never rebound, so a bound :attr:`append`
    never goes stale.
    """

    __slots__ = ("spec", "_cols", "_n", "_indices", "_buf", "append",
                 "_cache", "_records", "_version")

    def __init__(self, spec: _StreamSpec, cols: dict | None = None, n: int = 0,
                 indices: np.ndarray | None = None):
        self.spec = spec
        self._cols = cols if cols is not None else _pack(spec, [])
        self._n = n
        self._indices = indices
        self._buf: list[tuple] = []
        #: Append one row tuple (record-field order): the buffer's bound
        #: ``list.append``.
        self.append: Callable[[tuple], None] = self._buf.append
        # Per-state derived data: a view's gathered fields (by name) and
        # decoded object columns (by ("decoded", name)).
        self._cache: dict = {}
        self._records: list | None = None
        # Bumped whenever the stream installs new content.
        self._version = 0

    def __len__(self) -> int:
        return self._n + len(self._buf)

    # ------------------------------------------------------------ ingestion
    def pack(self) -> None:
        """Pack the append buffer into the columns (no-op when empty)."""
        buf = self._buf
        if not buf:
            return
        self._extend(_pack(self.spec, buf), len(buf))
        del buf[:]

    def append_block(self, block: ColumnBlock) -> None:
        """Append a column block's rows after every row appended so far."""
        self.pack()
        if block.n:
            self._extend({**block.cols, **block.codes}, block.n)

    def _extend(self, packed: dict, n: int) -> None:
        if self._n:
            packed = {name: concat_stored([self.stored(name), packed[name]])
                      for name in self.spec.fields}
        self._install(packed, self._n + n)

    def _install(self, cols: dict, n: int) -> None:
        self._cols = cols
        self._n = n
        self._indices = None
        self._cache = {}
        self._records = None
        self._version += 1

    def state(self) -> int:
        """Version of the stream's content, after packing buffered rows."""
        self.pack()
        return self._version

    # --------------------------------------------------------------- columns
    def stored(self, name: str):
        """Stored form of one packed field: an array, or an object field's
        ``(codes, categories)`` pair (a view gathers it on first use)."""
        value = self._cols[name]
        if self._indices is None:
            return value
        cached = self._cache.get(name)
        if cached is None:
            cached = self._cache[name] = _take(value, self._indices)
        return cached

    def column(self, name: str) -> np.ndarray:
        """One field of the stream as a NumPy array (object fields decoded)."""
        self.pack()
        value = self.stored(name)
        if type(value) is not tuple:
            return value
        key = ("decoded", name)
        arr = self._cache.get(key)
        if arr is None:
            codes_arr, categories = value
            table = np.empty(len(categories), dtype=object)
            table[:] = categories
            arr = self._cache[key] = table[codes_arr]
        return arr

    def codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised object field: ``(int32 codes, categories)``.

        A view keeps its base's categories, so some may be unused.
        """
        self.pack()
        return self.stored(name)

    def distinct(self, name: str) -> set:
        """Distinct values of an object field, without decoding it."""
        codes_arr, categories = self.codes(name)
        used = np.flatnonzero(np.bincount(codes_arr, minlength=len(categories)))
        return {categories[i] for i in used.tolist()}

    # ---------------------------------------------------------- derived data
    def _derived(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, memoized in the per-state cache under ``key``."""
        self.pack()
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def unique(self, name: str) -> np.ndarray:
        """Sorted distinct values of an integer field (cached per state)."""
        return self._derived(("unique", name),
                             lambda: distinct(self.column(name)))

    def time_range(self) -> tuple[float, float] | None:
        """``(min, max)`` timestamp, None when empty (cached per state)."""
        def compute():
            ts = self.column("timestamp")
            return (float(ts.min()), float(ts.max())) if ts.size else None
        return self._derived(("time_range",), compute)

    def bins(self, binner: TimeBinner) -> np.ndarray:
        """The bin-index column of the timestamps under ``binner``
        (cached per state and binner; see
        :func:`~repro.util.timebin.bin_index_column`)."""
        return self._derived(
            ("bins", binner),
            lambda: bin_index_column(binner, self.column("timestamp")))

    # --------------------------------------------------------------- records
    def _decoded(self) -> Iterable[tuple]:
        """Row tuples (exact record values) decoded from the columns."""
        self.pack()
        spec = self.spec
        columns = []
        for name in spec.fields:
            value = self.stored(name)
            kind = spec.kinds[name]
            if kind is object:
                codes_arr, categories = value
                columns.append([categories[c] for c in codes_arr.tolist()])
            elif kind == "enum":
                decode = spec.decode[name]
                columns.append([decode[c] if c >= 0 else None
                                for c in value.tolist()])
            else:
                columns.append(value.tolist())
        return zip(*columns)

    def rows(self) -> list[tuple]:
        """The stream's events as row tuples, in stream order."""
        return list(self._decoded())

    def records(self) -> list:
        """Record objects decoded from the columns (cached per state)."""
        self.pack()
        if self._records is None:
            self._records = list(starmap(self.spec.factory, self._decoded()))
        return self._records

    # ------------------------------------------------------------ sort/views
    def sort(self) -> None:
        """Stable-sort the stream by timestamp (no-op when already sorted)."""
        self.pack()
        ts = self.stored("timestamp")
        if ts.size < 2 or bool(np.all(ts[1:] >= ts[:-1])):
            return
        order = np.argsort(ts, kind="stable")
        self._install({name: _take(self.stored(name), order)
                       for name in self.spec.fields}, self._n)

    def take(self, indices: np.ndarray) -> "_Stream":
        """A view of the given positions (in order) of the current content."""
        self.pack()
        if self._indices is not None:
            indices = self._indices[indices]
        return _Stream(self.spec, self._cols, len(indices), indices)

    @classmethod
    def from_sorted_blocks(cls, spec: _StreamSpec,
                           blocks: list[ColumnBlock]) -> "_Stream":
        """Merge per-shard :class:`ColumnBlock`\\ s into one stream.

        The merge happens entirely on NumPy arrays: concatenate each field in
        block order, then apply one stable argsort of the timestamp column to
        every field (a no-op when the concatenation is already globally
        sorted).  Ties on timestamp therefore keep lower-block-first,
        intra-block order — a deterministic k-way merge whose result does not
        depend on how the blocks were produced (sequentially or by parallel
        workers).  Object fields merge their factorisations with block-order
        categories.

        The blocks are consumed: each field is popped out of every block as
        it is concatenated, so the merged stream and the shard blocks are
        never fully resident together.
        """
        blocks = [b for b in blocks if b.n]
        if not blocks:
            return cls(spec)
        ts = np.concatenate([b.cols.pop("timestamp") for b in blocks])
        order = None
        if ts.size > 1 and not bool(np.all(ts[1:] >= ts[:-1])):
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
        cols: dict = {"timestamp": ts}
        for name in spec.fields[1:]:
            if spec.kinds[name] is object:
                value = _merge_factorised([b.codes.pop(name) for b in blocks])
            else:
                value = np.concatenate([b.cols.pop(name) for b in blocks])
            cols[name] = value if order is None else _take(value, order)
        return cls(spec, cols, int(ts.size))


_SPECS = {"storage": _STORAGE_SPEC, "rpc": _RPC_SPEC, "sessions": _SESSION_SPEC}


class _RecordsView(Sequence):
    """Read-only sequence of a stream's records, decoded on first access.

    ``len()`` and ``bool()`` never decode.
    """

    __slots__ = ("_stream",)

    def __init__(self, stream: _Stream):
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream)

    def __bool__(self) -> bool:
        return len(self._stream) > 0

    def __iter__(self):
        return iter(self._stream.records())

    def __getitem__(self, item):
        return self._stream.records()[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, _RecordsView):
            other = other._stream.records()
        return self._stream.records() == other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._stream.records())


class TraceDataset:
    """Container of the three record streams of a U1 back-end trace.

    The storage model is columnar (see the module docstring): the
    :attr:`storage` / :attr:`rpc` / :attr:`sessions` attributes are lazy
    read-only sequences of record copies, ``*_column(name)`` exposes NumPy
    arrays of individual fields (enum fields as integer codes, see
    :data:`OPERATION_CODE` and friends) and ``*_codes(name)`` returns an
    object field's ``(codes, categories)`` factorisation.  Records enter
    through the constructor; all slicing/aggregation primitives below run
    vectorised on the columns.
    """

    __slots__ = ("_storage", "_rpc", "_sessions", "_legit_cache",
                 "_distinct_cache")

    def __init__(self, storage: Iterable[StorageRecord] | None = None,
                 rpc: Iterable[RpcRecord] | None = None,
                 sessions: Iterable[SessionRecord] | None = None):
        streams = []
        for spec, records in ((_STORAGE_SPEC, storage), (_RPC_SPEC, rpc),
                              (_SESSION_SPEC, sessions)):
            stream = _Stream(spec)
            if records:
                stream._buf.extend(map(spec.row_of, records))
            streams.append(stream)
        self._init_streams(*streams)

    def _init_streams(self, storage: _Stream, rpc: _Stream,
                      sessions: _Stream) -> None:
        self._storage = storage
        self._rpc = rpc
        self._sessions = sessions
        self._legit_cache: tuple | None = None
        self._distinct_cache: dict = {}

    @classmethod
    def _from_streams(cls, storage: _Stream, rpc: _Stream,
                      sessions: _Stream) -> "TraceDataset":
        dataset = cls.__new__(cls)
        dataset._init_streams(storage, rpc, sessions)
        return dataset

    @classmethod
    def from_sorted_blocks(cls, blocks) -> "TraceDataset":
        """Merge per-shard trace blocks into one sorted dataset.

        ``blocks`` is a sequence whose elements are either
        :class:`TraceDataset` instances or ``(storage, rpc, sessions)``
        triples of :class:`ColumnBlock`\\ s (the shard IPC format); every
        block's streams must already be sorted by timestamp.  The merge is
        deterministic: ties on timestamp keep lower-block-first, intra-block
        order — so the result is a pure function of the block contents,
        independent of whether the blocks were produced sequentially or by
        parallel replay workers.  The column blocks are left empty (the merge
        consumes them).
        """
        per_stream: tuple[list, list, list] = ([], [], [])
        for block in blocks:
            if isinstance(block, TraceDataset):
                block = tuple(ColumnBlock.from_stream(stream) for stream in
                              (block._storage, block._rpc, block._sessions))
            for stream_blocks, column_block in zip(per_stream, block):
                stream_blocks.append(column_block)
        return cls._from_streams(*(
            _Stream.from_sorted_blocks(spec, stream_blocks)
            for spec, stream_blocks in zip(
                (_STORAGE_SPEC, _RPC_SPEC, _SESSION_SPEC), per_stream)))

    # ------------------------------------------------------------ stream API
    @property
    def storage(self) -> _RecordsView:
        """Storage records (read-only, decoded lazily)."""
        return _RecordsView(self._storage)

    @property
    def rpc(self) -> _RecordsView:
        """RPC records (read-only, decoded lazily)."""
        return _RecordsView(self._rpc)

    @property
    def sessions(self) -> _RecordsView:
        """Session records (read-only, decoded lazily)."""
        return _RecordsView(self._sessions)

    def storage_column(self, name: str) -> np.ndarray:
        """Columnar view of one storage-record field (NumPy array)."""
        return self._storage.column(name)

    def rpc_column(self, name: str) -> np.ndarray:
        """Columnar view of one RPC-record field (NumPy array)."""
        return self._rpc.column(name)

    def session_column(self, name: str) -> np.ndarray:
        """Columnar view of one session-record field (NumPy array)."""
        return self._sessions.column(name)

    def storage_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised storage object field: ``(int codes, categories)``."""
        return self._storage.codes(name)

    def rpc_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised RPC object field: ``(int codes, categories)``."""
        return self._rpc.codes(name)

    def session_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised session object field: ``(int codes, categories)``."""
        return self._sessions.codes(name)

    def storage_bins(self, binner: TimeBinner) -> np.ndarray:
        """Bin index of every storage record under ``binner`` (``int32``,
        ``-1`` outside its range), cached per stream state and binner."""
        return self._storage.bins(binner)

    def rpc_bins(self, binner: TimeBinner) -> np.ndarray:
        """Bin index of every RPC record under ``binner`` (see
        :meth:`storage_bins`)."""
        return self._rpc.bins(binner)

    def session_bins(self, binner: TimeBinner) -> np.ndarray:
        """Bin index of every session record under ``binner`` (see
        :meth:`storage_bins`)."""
        return self._sessions.bins(binner)

    # ------------------------------------------------------------------ size
    def __len__(self) -> int:
        return len(self._storage) + len(self._rpc) + len(self._sessions)

    @property
    def is_empty(self) -> bool:
        """True when the dataset holds no records at all."""
        return len(self) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceDataset):
            return NotImplemented
        return (self._storage.rows() == other._storage.rows()
                and self._rpc.rows() == other._rpc.rows()
                and self._sessions.rows() == other._sessions.rows())

    def content_digest(self) -> str:
        """Stable hex digest of every record field across all three streams.

        Two datasets have equal digests exactly when they are record-for-
        record identical, however they were built: object fields hash a
        canonical factorisation (only the categories in use, numbered by
        first occurrence in the stream), not the stored one.  This is the
        bit-identity witness the chaos and resume checks compare.
        """
        digest = hashlib.sha256()
        for label, stream in (("storage", self._storage),
                              ("rpc", self._rpc),
                              ("sessions", self._sessions)):
            digest.update(f"{label}:{len(stream)};".encode())
            for name in stream.spec.fields:
                digest.update(f"{name}:".encode())
                if stream.spec.kinds[name] is object:
                    codes, categories = _canonical_codes(*stream.codes(name))
                    digest.update(codes.tobytes())
                    digest.update(repr(categories).encode())
                else:
                    column = np.ascontiguousarray(stream.column(name))
                    digest.update(str(column.dtype).encode())
                    digest.update(column.tobytes())
        return digest.hexdigest()

    # -------------------------------------------------------------- mutation
    def sort(self) -> None:
        """Sort every stream by timestamp in place (no-op when already sorted)."""
        self._storage.sort()
        self._rpc.sort()
        self._sessions.sort()

    # -------------------------------------------------------------- time span
    def time_span(self) -> tuple[float, float]:
        """Return ``(first_timestamp, last_timestamp)`` across all streams.

        Each stream's range is computed once per stream state.
        """
        ranges = [r for r in (self._storage.time_range(),
                              self._rpc.time_range(),
                              self._sessions.time_range()) if r is not None]
        if not ranges:
            raise ValueError("time span of an empty dataset is undefined")
        return min(r[0] for r in ranges), max(r[1] for r in ranges)

    def span_binner(self, width: float) -> TimeBinner:
        """Bins of ``width`` seconds covering the trace: ``[first, last +
        width)``, the binner of every time-series figure."""
        start, end = self.time_span()
        return TimeBinner(start=start, end=end + width, width=width)

    @property
    def duration(self) -> float:
        """Length of the trace in seconds."""
        start, end = self.time_span()
        return end - start

    # -------------------------------------------------------------- filtering
    def _filtered(self, mask_of: Callable[[_Stream], np.ndarray]) -> "TraceDataset":
        return TraceDataset._from_streams(*(
            stream.take(np.flatnonzero(mask_of(stream)))
            for stream in (self._storage, self._rpc, self._sessions)))

    def filter_time(self, start: float, end: float) -> "TraceDataset":
        """Dataset restricted to records with ``start <= timestamp < end``."""
        def mask(stream: _Stream) -> np.ndarray:
            ts = stream.column("timestamp")
            return (ts >= start) & (ts < end)
        return self._filtered(mask)

    def filter_users(self, user_ids: Iterable[int]) -> "TraceDataset":
        """Dataset restricted to the given user ids."""
        wanted = np.fromiter(set(user_ids), dtype=np.int64)
        def mask(stream: _Stream) -> np.ndarray:
            return np.isin(stream.column("user_id"), wanted)
        return self._filtered(mask)

    def without_attack_traffic(self) -> "TraceDataset":
        """Dataset with DDoS-attributed records removed.

        The paper removes "malfunctioning clients" artifacts before the
        workload analysis; analogously, analyses that characterise legitimate
        user behaviour can exclude attack traffic with this helper, while the
        anomaly-detection analysis (Fig. 5) keeps it.  The result is cached
        per stream state: analyses call this repeatedly and receive the same
        filtered dataset.
        """
        key = tuple(s.state() for s in (self._storage, self._rpc, self._sessions))
        if self._legit_cache is not None and self._legit_cache[0] == key:
            return self._legit_cache[1]
        legit = self._filtered(lambda s: ~s.column("caused_by_attack"))
        self._legit_cache = (key, legit)
        return legit

    # ------------------------------------------------------------ aggregation
    def user_ids(self) -> set[int]:
        """Distinct user ids appearing anywhere in the trace."""
        return set(self._user_ids().tolist())

    def user_count(self) -> int:
        """Number of distinct user ids (``len(user_ids())``, no set built)."""
        return int(self._user_ids().size)

    def session_ids(self) -> set[int]:
        """Distinct session ids appearing anywhere in the trace."""
        return set(self._session_ids().tolist())

    def session_count(self) -> int:
        """Number of distinct session ids (``len(session_ids())``)."""
        return int(self._session_ids().size)

    def _user_ids(self) -> np.ndarray:
        return self._distinct_ids(
            "user_id", (self._storage, self._rpc, self._sessions))

    def _session_ids(self) -> np.ndarray:
        return self._distinct_ids("session_id", (self._storage, self._sessions))

    def _distinct_ids(self, name: str, streams: tuple) -> np.ndarray:
        """Sorted distinct values of an integer column across ``streams``.

        Each stream deduplicates its own column (:meth:`_Stream.unique`),
        and the small per-stream results are merged.  The merge is memoized
        per column and stream state, so appends and re-sorts invalidate it.
        """
        key = tuple(s.state() for s in streams)
        cached = self._distinct_cache.get(name)
        if cached is None or cached[0] != key:
            ids = distinct(np.concatenate([s.unique(name) for s in streams]))
            cached = self._distinct_cache[name] = (key, ids)
        return cached[1]

    def upload_bytes(self) -> int:
        """Total uploaded bytes in the trace (columnar, no record objects)."""
        return self._transfer_bytes(_UPLOAD_CODE)

    def download_bytes(self) -> int:
        """Total downloaded bytes in the trace (columnar, no record objects)."""
        return self._transfer_bytes(_DOWNLOAD_CODE)

    def _transfer_bytes(self, code: int) -> int:
        if len(self._storage) == 0:
            return 0
        mask = self._storage.column("operation") == code
        return int(self._storage.column("size_bytes")[mask].sum())

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceDataset(storage={len(self._storage)}, rpc={len(self._rpc)}, "
                f"sessions={len(self._sessions)})")
