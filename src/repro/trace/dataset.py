"""The in-memory trace dataset consumed by all analyses.

A :class:`TraceDataset` is the merge of every per-process logfile for the
measurement window (Section 4.1): storage records, RPC records and session
records.  The class offers the slicing primitives the analyses need —
filtering by time window, by user, by operation — plus merging and sorting,
mirroring how the paper reconstructs per-user sequential activity ("to have a
strictly sequential notion of the activity of a user we should take into
account the U1 session and sort the trace by timestamp").

Columnar engine
---------------
Internally each stream is a :class:`_Stream`: a canonical sequence of events
(either plain field tuples appended through the fast path used by the
simulator, or materialized record objects) plus a lazy cache of NumPy column
arrays.  The public record lists (:attr:`storage`, :attr:`rpc`,
:attr:`sessions`) are *views*: record objects are only built when something
actually iterates them, so a replay that is analysed through the columnar
accessors never pays for per-record object construction.

* ``append_storage_row`` / ``append_rpc_row`` / ``append_session_row`` append
  raw field tuples (positional, in record-field order) without building
  record objects.
* ``storage_column(name)`` / ``rpc_column(name)`` / ``session_column(name)``
  return cached NumPy arrays of one field.  Enum-valued fields are returned
  as integer code arrays; the code tables are exported as
  :data:`OPERATION_CODE`, :data:`RPC_CODE`, :data:`SESSION_EVENT_CODE`,
  :data:`VOLUME_TYPE_CODE` and :data:`NODE_KIND_CODE`.
* The slicing primitives (``filter_time``, ``filter_users``,
  ``without_attack_traffic``) evaluate their predicate vectorised and return
  datasets holding index views into the parent — no records are copied or
  even created until someone iterates them.
* The aggregation primitives (``time_span``, ``upload_bytes``,
  ``storage_by_user`` …) run on the column arrays (mask + ``np.bincount`` /
  argsort + split) instead of re-scanning Python lists.

Everything is backward compatible: datasets can still be built from record
lists, the stream attributes still behave as lists of records, and all
primitives return the same types (and the same record *objects*, shared with
the parent dataset) as the historical pure-Python implementation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterable, Iterator

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

__all__ = [
    "ColumnBlock",
    "TraceDataset",
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
_DISCONNECT_CODE = SESSION_EVENT_CODE[SessionEvent.DISCONNECT]


class _StreamSpec:
    """Static description of one record stream (fields, dtypes, factory)."""

    __slots__ = ("factory", "fields", "index", "kinds", "codes", "decode")

    def __init__(self, factory, fields: tuple[str, ...],
                 kinds: dict[str, object], codes: dict[str, dict]):
        self.factory = factory
        self.fields = fields
        self.index = {name: i for i, name in enumerate(fields)}
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
    codes={"event": SESSION_EVENT_CODE, "api_operation": OPERATION_CODE},
)


class ColumnBlock:
    """One stream's events as per-field NumPy arrays (the shard IPC format).

    This is what a replay shard ships across the worker boundary instead of
    a list of per-event row tuples: ``cols`` maps every numeric/enum field
    to the exact array ``_Stream.column`` would return (enum fields as
    ``int16`` code arrays), and ``codes`` maps every object-dtype field
    (``server``, ``content_hash``, ``extension``) to the factorised
    ``(int32 codes, categories)`` pair ``_Stream.codes`` would return.
    Numeric arrays pickle as contiguous buffers — no per-event Python
    objects cross the process boundary — and the factorisation dedups the
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
        spec = stream.spec
        cols: dict[str, np.ndarray] = {}
        codes: dict[str, tuple[np.ndarray, list]] = {}
        for name in spec.fields:
            if spec.kinds[name] is object:
                codes[name] = stream.codes(name)
            else:
                cols[name] = stream.column(name)
        return cls(len(stream), cols, codes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the NumPy arrays (the IPC payload size)."""
        total = sum(arr.nbytes for arr in self.cols.values())
        total += sum(pair[0].nbytes for pair in self.codes.values())
        return total

    def to_rows(self, spec: _StreamSpec) -> list[tuple]:
        """Decode the block back into row tuples (mixed-block fallback)."""
        return _decode_columns(spec, self.cols, self.codes, self.n)


def _decode_columns(spec: _StreamSpec, cols: dict[str, np.ndarray],
                    factorised: dict[str, tuple[np.ndarray, list]],
                    n: int) -> list[tuple]:
    """Row tuples (exact historical values) from per-field column arrays."""
    if n == 0:
        return []
    columns = []
    for name in spec.fields:
        kind = spec.kinds[name]
        if kind is object:
            codes_arr, categories = factorised[name]
            columns.append([categories[c] for c in codes_arr.tolist()])
        elif kind == "enum":
            decode = spec.decode[name]
            columns.append([decode[c] if c >= 0 else None
                            for c in cols[name].tolist()])
        else:
            columns.append(cols[name].tolist())
    return list(zip(*columns))


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


class _Stream:
    """One record stream: canonical data + lazy columns + lazy record views.

    A stream is either a *base* (owns its canonical list, which holds raw
    field tuples until someone asks for record objects) or a *view* (an index
    array into a base stream, produced by the vectorised filters).

    Invariant that keeps views cheap and safe: a base's canonical list is
    never reordered in place — sorting installs a freshly built list and
    bumps ``order_version``.  Appends are allowed (they never disturb
    existing indices), so a view only needs to re-derive itself from its
    captured snapshot when the base was re-sorted after the view was taken.
    """

    __slots__ = ("spec", "_data", "_is_rows", "_cols", "order_version",
                 "_sorted", "_last_ts", "_row_source", "_transposed",
                 "_records_cache", "_pending",
                 "_base", "_snapshot", "_snapshot_is_rows", "_indices",
                 "_base_order_version", "_view_records")

    def __init__(self, spec: _StreamSpec, records: list | None = None):
        self.spec = spec
        self._data: list = records if records is not None else []
        self._is_rows = False
        self._cols: dict[str, np.ndarray] = {}
        self.order_version = 0
        self._sorted: bool | None = None if self._data else True
        self._last_ts = self._data[-1].timestamp if self._data else float("-inf")
        # Row tuples kept aside for records-mode streams converted from rows:
        # tuple indexing is ~2x faster than per-record getattr when building
        # columns.
        self._row_source: list | None = None
        # (length, zip(*rows) transpose) — all field tuples built in one
        # C-speed pass, shared by every column build of this stream state.
        self._transposed: tuple[int, tuple] | None = None
        # Rows-mode record view, extended incrementally as rows arrive.
        self._records_cache: list | None = None
        # Columns-canonical mode (the merged shard-IPC path): when non-zero,
        # the stream's canonical content is the fully seeded ``_cols`` cache
        # and ``_data`` is an empty rows list materialised lazily by
        # ``_hydrate`` — columnar readers never pay for row tuples.
        self._pending = 0
        self._base: _Stream | None = None
        self._snapshot: list | None = None
        self._snapshot_is_rows = False
        self._indices: np.ndarray | None = None
        self._base_order_version = 0
        self._view_records: list | None = None

    @classmethod
    def _view(cls, base: "_Stream", indices: np.ndarray) -> "_Stream":
        stream = cls.__new__(cls)
        stream.spec = base.spec
        stream._data = []
        stream._pending = 0
        stream._is_rows = False
        stream._cols = {}
        stream.order_version = 0
        stream._sorted = base._sorted  # subsequence of a sorted stream is sorted
        stream._last_ts = float("-inf")
        stream._row_source = None
        stream._transposed = None
        stream._records_cache = None
        stream._base = base
        stream._snapshot = base._data
        stream._snapshot_is_rows = base._is_rows
        stream._indices = indices
        stream._base_order_version = base.order_version
        stream._view_records = None
        return stream

    # ------------------------------------------------------------------ size
    def __len__(self) -> int:
        if self._base is not None:
            return len(self._indices)
        if self._pending:
            return self._pending
        return len(self._data)

    # ------------------------------------------------------------- hydration
    def _hydrate(self) -> None:
        """Materialise the row tuples of a columns-canonical stream.

        Runs at most once, only when something actually needs rows or record
        objects (iteration, logfile export, mutation); the rows are appended
        into the *existing* ``_data`` list so views that snapshotted it stay
        coherent.  All columns were seeded at merge time, so this is a pure
        decode — no RNG, no re-sorting.
        """
        n = self._pending
        if not n:
            return
        spec = self.spec
        cols = {name: self.column(name) for name in spec.fields
                if spec.kinds[name] is not object}
        factorised = {name: self.codes(name) for name in spec.fields
                      if spec.kinds[name] is object}
        rows = _decode_columns(spec, cols, factorised, n)
        self._pending = 0
        self._data.extend(rows)
        self._is_rows = True

    # -------------------------------------------------------------- mutation
    def append_row(self, row: tuple) -> None:
        """Fast path: append one event as a raw field tuple."""
        if self._pending:
            self._hydrate()
        if self._is_rows:
            self._data.append(row)
        else:
            if self._base is not None:
                self._devirtualize()
            if self._data:
                self._data.append(self.spec.factory(*row))
            else:
                self._is_rows = True
                self._data.append(row)
        ts = row[0]
        if ts >= self._last_ts:
            self._last_ts = ts
        elif self._sorted:
            self._sorted = False

    def raw_appender(self):
        """Bound bulk appender for row tuples (the replay ingestion path).

        Returns a callable appending one row tuple per call — for a rows-mode
        base this is the underlying ``list.append`` itself, with no per-append
        bookkeeping: column caches are validated by length at read time and
        sortedness is recomputed lazily.  The binding becomes stale if the
        stream is sorted or converted to records-mode; re-request it after
        such operations (``TraceSink`` rebinds after ``finish()``).
        """
        if self._base is not None:
            self._devirtualize()
        if self._pending:
            self._hydrate()
        if not self._is_rows and self._data:
            return self.append_row  # records-mode: compatible slow path
        self._is_rows = True
        self._sorted = None  # bulk ingestion: recomputed lazily
        return self._data.append

    def append_record(self, record) -> None:
        """Append one record object (compatibility path).

        Rows-mode streams stay rows-mode: the record is decomposed into a
        row tuple (and remembered in the record cache, preserving identity
        for subsequent reads).
        """
        if self._base is not None:
            self._devirtualize()
        if self._pending:
            self._hydrate()
        if self._is_rows or not self._data:
            self._is_rows = True
            data = self._data
            cache = self._records_cache
            if cache is None and not data:
                cache = self._records_cache = []
            data.append(tuple(getattr(record, name)
                              for name in self.spec.fields))
            if cache is not None and len(cache) == len(data) - 1:
                cache.append(record)
        else:
            self._data.append(record)
        ts = record.timestamp
        if ts >= self._last_ts:
            self._last_ts = ts
        elif self._sorted:
            self._sorted = False

    def extend_records(self, other: "_Stream") -> None:
        """Merge another stream's records into this one (records shared)."""
        if self._base is not None:
            self._devirtualize()
        if self._pending:
            self._hydrate()
        if self._is_rows:
            self._to_records_mode()
        records = other.records()
        if not records:
            return
        if self._sorted is None:
            self.is_sorted()
        was_sorted = self._sorted
        # _last_ts may be stale after raw bulk ingestion; refresh it from the
        # actual tail (when sorted, the tail is the maximum).
        self._last_ts = self._data[-1].timestamp if self._data else float("-inf")
        self._data.extend(records)
        self._cols.clear()
        self._row_source = None
        if was_sorted:
            if not (records[0].timestamp >= self._last_ts and other.is_sorted()):
                self._sorted = False
        self._last_ts = max(self._last_ts, records[-1].timestamp)

    def _devirtualize(self) -> None:
        """Turn a view into a standalone base stream (rare, mutation only)."""
        records = self.records()
        self._data = records if records is not self._view_records else list(records)
        self._is_rows = False
        self._row_source = None
        self._records_cache = None
        self._base = None
        self._snapshot = None
        self._indices = None
        self._view_records = None
        self._last_ts = records[-1].timestamp if records else float("-inf")

    def _to_records_mode(self) -> None:
        """Switch a rows-mode base to records-mode (before record appends)."""
        if not self._is_rows:
            return
        rows = self._data
        self._data = list(self.records())
        self._is_rows = False
        self._records_cache = None
        self._row_source = rows if len(rows) == len(self._data) else None

    # --------------------------------------------------------------- records
    def records(self) -> list:
        """The records of this stream as a list (lazily built, then cached).

        For rows-mode streams the cache is extended incrementally, so reads
        interleaved with (raw) appends always see every event.
        """
        if self._base is None:
            if self._pending:
                self._hydrate()
            if not self._is_rows:
                return self._data
            data = self._data
            cache = self._records_cache
            factory = self.spec.factory
            if cache is None:
                cache = self._records_cache = [factory(*row) for row in data]
            elif len(cache) < len(data):
                cache.extend(factory(*row) for row in data[len(cache):])
            return cache
        if self._view_records is not None:
            return self._view_records
        if self._base.order_version == self._base_order_version:
            base_records = self._base.records()
            self._view_records = [base_records[i] for i in self._indices.tolist()]
        else:
            # The base was re-sorted after this view was taken; fall back to
            # the snapshot captured at filter time.
            factory = self.spec.factory
            snapshot = self._snapshot
            if self._snapshot_is_rows:
                self._view_records = [factory(*snapshot[i])
                                      for i in self._indices.tolist()]
            else:
                self._view_records = [snapshot[i] for i in self._indices.tolist()]
        return self._view_records

    def rows(self) -> list[tuple]:
        """The stream's events as raw field tuples (in stream order).

        Rows-mode base streams return their canonical list directly (do not
        mutate it); records-mode streams and views decompose their records
        into fresh tuples.  This is the export side of the columnar fast
        path — the sharded replay engine ships these lists between worker
        processes instead of record objects.
        """
        if self._base is None and self._is_rows:
            if self._pending:
                self._hydrate()
            return self._data
        fields = self.spec.fields
        return [tuple(getattr(r, name) for name in fields)
                for r in self.records()]

    @classmethod
    def _from_sorted_row_blocks(cls, spec: _StreamSpec,
                                blocks: list[list[tuple]]) -> "_Stream":
        """Merge row blocks, each already sorted by timestamp, into one stream.

        The merge is a concatenation in block order followed by a stable sort
        on the timestamp column: equal timestamps therefore resolve to the
        lower block index first, preserving each block's internal order — a
        deterministic k-way merge whose result does not depend on how the
        blocks were produced (sequentially or by parallel workers).
        """
        merged: list[tuple] = []
        for rows in blocks:
            merged.extend(rows)
        stream = cls(spec)
        if not merged:
            return stream
        ts = np.fromiter((row[0] for row in merged), dtype=np.float64,
                         count=len(merged))
        if ts.size > 1 and not bool(np.all(ts[1:] >= ts[:-1])):
            order = np.argsort(ts, kind="stable")
            merged = [merged[i] for i in order.tolist()]
            ts = ts[order]
        stream._data = merged
        stream._is_rows = True
        stream._sorted = True
        stream._last_ts = float(ts[-1])
        stream.seed_column("timestamp", ts)
        return stream

    @classmethod
    def _from_sorted_column_blocks(cls, spec: _StreamSpec,
                                   blocks: list[ColumnBlock]) -> "_Stream":
        """Merge per-shard :class:`ColumnBlock`\\ s into one columnar stream.

        The merge happens entirely on NumPy arrays: concatenate each field in
        block order, then apply one stable argsort of the timestamp column to
        every field (a no-op when the concatenation is already globally
        sorted).  Ties on timestamp keep lower-block-first, intra-block order
        — the same deterministic guarantee as the row merge.  Every field is
        seeded into the column cache (object fields as factorised codes), so
        post-merge columnar analyses never pay lazy column materialisation;
        row tuples / record objects are only decoded if something iterates
        the stream (see :meth:`_hydrate`).

        The blocks are consumed: each field is popped out of every block as
        it is concatenated, so the merged stream and the shard blocks are
        never fully resident together.
        """
        blocks = [b for b in blocks if b.n]
        stream = cls(spec)
        if not blocks:
            return stream
        ts = np.concatenate([b.cols.pop("timestamp") for b in blocks])
        order = None
        if ts.size > 1 and not bool(np.all(ts[1:] >= ts[:-1])):
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
        cols: dict = {"timestamp": ts}
        for name in spec.fields:
            if name == "timestamp":
                continue
            if spec.kinds[name] is object:
                merged_codes, categories = _merge_factorised(
                    [b.codes.pop(name) for b in blocks])
                if order is not None:
                    merged_codes = merged_codes[order]
                cols[f"{name}#codes"] = (merged_codes, categories)
            else:
                arr = np.concatenate([b.cols.pop(name) for b in blocks])
                if order is not None:
                    arr = arr[order]
                cols[name] = arr
        stream._cols = cols
        stream._pending = int(ts.size)
        stream._is_rows = True
        stream._sorted = True
        stream._last_ts = float(ts[-1])
        return stream

    # --------------------------------------------------------------- columns
    def column(self, name: str) -> np.ndarray:
        """One field of the stream as a NumPy array (cached).

        Cache entries are validated by length: bulk row appends bypass cache
        invalidation, so an entry built before further ingestion is simply
        rebuilt on the next read.
        """
        cached = self._cols.get(name)
        if cached is not None and (self._base is not None
                                   or len(cached) == len(self)):
            return cached
        if self._base is None and self._pending:
            # Columns-canonical stream: object columns are stored factorised;
            # decode vectorised instead of hydrating the row tuples.
            pair = self._cols.get(f"{name}#codes")
            if pair is not None:
                codes_arr, categories = pair
                table = np.empty(len(categories), dtype=object)
                table[:] = categories
                arr = table[codes_arr]
                self._cols[name] = arr
                return arr
            self._hydrate()  # unseeded field (defensive): decode the rows
        if self._base is not None:
            if self._base.order_version == self._base_order_version:
                arr = self._base.column(name)[self._indices]
            else:
                arr = _extract_column(self.spec, self._snapshot,
                                      self._snapshot_is_rows, name,
                                      indices=self._indices)
        else:
            source, is_rows = self._field_source()
            if is_rows:
                arr = _column_from_values(self.spec, name,
                                          self._transpose(source)[self.spec.index[name]])
            else:
                arr = _extract_column(self.spec, source, False, name)
        self._cols[name] = arr
        return arr

    def _transpose(self, rows: list) -> tuple:
        """All field tuples of a rows list, built once with ``zip(*rows)``."""
        cached = self._transposed
        if cached is not None and cached[0] == len(rows):
            return cached[1]
        transposed = tuple(zip(*rows)) if rows else \
            tuple(() for _ in self.spec.fields)
        self._transposed = (len(rows), transposed)
        return transposed

    def seed_column(self, name: str, values: np.ndarray) -> None:
        """Pre-populate the column cache (used when slicing a parent)."""
        self._cols[name] = values

    def codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised view of a (string) column: ``(codes, categories)``.

        Builds an int32 code array plus the list of distinct values in
        first-occurrence order, without materialising an object array —
        the mapping dict amortises because hot columns (``server``) draw
        from a handful of interned strings.
        """
        key = f"{name}#codes"
        cached = self._cols.get(key)
        if cached is not None and (self._base is not None
                                   or len(cached[0]) == len(self)):
            return cached  # type: ignore[return-value]
        if self._base is not None and self._base.order_version == self._base_order_version:
            base_codes, categories = self._base.codes(name)
            result = (base_codes[self._indices], categories)
        else:
            values = self._iter_field(name)
            if not isinstance(values, (tuple, list)):
                values = tuple(values)
            # C-speed factorisation, first-occurrence order preserved:
            # dict.fromkeys dedups in insertion order, the code lookup maps
            # at C level — bit-identical to the historical per-value Python
            # loop, an order of magnitude cheaper on long columns.
            mapping = {value: code
                       for code, value in enumerate(dict.fromkeys(values))}
            out = np.fromiter(map(mapping.__getitem__, values),
                              dtype=np.int32, count=len(values))
            result = (out, list(mapping))
        self._cols[key] = result  # type: ignore[assignment]
        return result

    def distinct(self, name: str) -> set:
        """Distinct values of a field without building a column array."""
        if self._base is None and self._pending:
            pair = self._cols.get(f"{name}#codes")
            if pair is not None:
                return set(pair[1])
        return set(self._iter_field(name))

    def _iter_field(self, name: str):
        """Iterate one field's raw values in stream order."""
        if self._base is not None:
            if self._base.order_version == self._base_order_version:
                source, is_rows = self._base._field_source()
            else:
                source, is_rows = self._snapshot, self._snapshot_is_rows
            if is_rows:
                k = self.spec.index[name]
                return (source[i][k] for i in self._indices.tolist())
            return (getattr(source[i], name) for i in self._indices.tolist())
        source, is_rows = self._field_source()
        if is_rows:
            return iter(self._transpose(source)[self.spec.index[name]])
        return (getattr(r, name) for r in source)

    def _field_source(self) -> tuple[list, bool]:
        """(sequence, is_rows) to read raw field values from."""
        if self._pending:
            self._hydrate()
        if self._is_rows:
            return self._data, True
        if self._row_source is not None and len(self._row_source) == len(self._data):
            return self._row_source, True
        return self._data, False

    # ------------------------------------------------------------------ sort
    def is_sorted(self) -> bool:
        """Whether the stream is sorted by timestamp (computed lazily)."""
        if self._sorted is None:
            if self._base is None and self._is_rows:
                # Rows-mode fast path: extract timestamps directly instead of
                # going through column(), which would transpose *every* field
                # of the stream just to read one — the replay sinks hit this
                # once per stream at finish() time.
                data = self._data
                ts = np.fromiter((row[0] for row in data), dtype=np.float64,
                                 count=len(data))
                self._cols.setdefault("timestamp", ts)
            else:
                ts = self.column("timestamp")
            self._sorted = bool(ts.size < 2 or np.all(ts[1:] >= ts[:-1]))
        return self._sorted

    def sort(self) -> None:
        """Stable-sort the stream by timestamp."""
        if self.is_sorted():
            return
        if self._base is not None:
            self._devirtualize()
            if self.is_sorted():
                return
        ts = self.column("timestamp")
        order = np.argsort(ts, kind="stable")
        order_list = order.tolist()
        n = len(order_list)
        data = self._data
        # Install a *new* list so views snapshotted earlier stay coherent.
        self._data = [data[i] for i in order_list]
        if self._row_source is not None and len(self._row_source) == n:
            rows = self._row_source
            self._row_source = [rows[i] for i in order_list]
        else:
            self._row_source = None
        if self._records_cache is not None and len(self._records_cache) == n:
            cache = self._records_cache
            self._records_cache = [cache[i] for i in order_list]
        else:
            self._records_cache = None
        self._transposed = None  # order changed; same length, stale content
        reordered = {}
        for name, value in self._cols.items():
            if isinstance(value, tuple):  # factorised codes: (codes, categories)
                if len(value[0]) == n:
                    reordered[name] = (value[0][order], value[1])
            elif len(value) == n:
                reordered[name] = value[order]
        self._cols = reordered
        self.order_version += 1
        self._sorted = True
        self._last_ts = float(ts[order[-1]]) if n else float("-inf")

    # ----------------------------------------------------------------- views
    def take(self, indices: np.ndarray) -> "_Stream":
        """A lazy sub-stream containing the given positions (in order)."""
        if self._base is None:
            return _Stream._view(self, indices)
        if self._base.order_version == self._base_order_version:
            return _Stream._view(self._base, self._indices[indices])
        self._devirtualize()
        return _Stream._view(self, indices)


def _column_from_values(spec: _StreamSpec, name: str, values: tuple) -> np.ndarray:
    """Build one column array from a pre-transposed field tuple."""
    kind = spec.kinds[name]
    n = len(values)
    if kind == "enum":
        codes = spec.codes[name]
        try:
            # C-level map over the code table — the shard column-packing hot
            # path.  Falls back to .get for rows carrying None enum fields
            # (hand-built blocks).
            return np.fromiter(map(codes.__getitem__, values),
                               dtype=np.int16, count=n)
        except KeyError:
            return np.fromiter((codes.get(v, -1) for v in values),
                               dtype=np.int16, count=n)
    if kind is object:
        arr = np.empty(n, dtype=object)
        arr[:] = values
        return arr
    return np.asarray(values, dtype=kind)


def _extract_column(spec: _StreamSpec, data: Sequence, is_rows: bool,
                    name: str, indices: np.ndarray | None = None) -> np.ndarray:
    kind = spec.kinds[name]
    if is_rows:
        k = spec.index[name]
        if indices is None:
            gen = (row[k] for row in data)
            n = len(data)
        else:
            gen = (data[i][k] for i in indices.tolist())
            n = len(indices)
    else:
        if indices is None:
            gen = (getattr(r, name) for r in data)
            n = len(data)
        else:
            gen = (getattr(data[i], name) for i in indices.tolist())
            n = len(indices)
    if kind == "enum":
        codes = spec.codes[name]
        return np.fromiter((codes.get(v, -1) for v in gen), dtype=np.int16, count=n)
    return np.fromiter(gen, dtype=kind, count=n)


class _RecordsView(Sequence):
    """List-like façade over a stream: materializes records on first access."""

    __slots__ = ("_stream",)

    def __init__(self, stream: _Stream):
        self._stream = stream

    def _records(self) -> list:
        return self._stream.records()

    def __len__(self) -> int:
        return len(self._stream)

    def __bool__(self) -> bool:
        return len(self._stream) > 0

    def __iter__(self):
        return iter(self._records())

    def __getitem__(self, item):
        return self._records()[item]

    def __contains__(self, item) -> bool:
        return item in self._records()

    def __eq__(self, other) -> bool:
        if isinstance(other, _RecordsView):
            return self._records() == other._records()
        return self._records() == other

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __add__(self, other):
        other_records = list(other) if not isinstance(other, list) else other
        return self._records() + other_records

    def __radd__(self, other):
        other_records = list(other) if not isinstance(other, list) else other
        return other_records + self._records()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._records())

    def index(self, value, *args) -> int:
        return self._records().index(value, *args)

    def count(self, value) -> int:
        return self._records().count(value)

    # Mutation helpers so legacy code treating the attribute as a plain list
    # keeps working; they go through the stream so caches stay coherent.
    def append(self, record) -> None:
        self._stream.append_record(record)

    def extend(self, records: Iterable) -> None:
        for record in records:
            self._stream.append_record(record)

    def sort(self, *, key=None, reverse: bool = False) -> None:
        stream = self._stream
        if stream._base is not None:
            stream._devirtualize()
        # Install a new list (never reorder in place) so earlier views stay
        # coherent; see the _Stream invariant.
        stream._data = sorted(stream.records(), key=key, reverse=reverse)
        stream._is_rows = False
        stream._row_source = None
        stream._transposed = None
        stream._records_cache = None
        stream._cols.clear()
        stream.order_version += 1
        stream._sorted = None


class TraceDataset:
    """Container of the three record streams of a U1 back-end trace.

    The storage model is columnar (see the module docstring): the
    :attr:`storage` / :attr:`rpc` / :attr:`sessions` attributes are lazy
    list-like record views, ``*_column(name)`` exposes cached NumPy arrays
    of individual fields (enum fields as integer codes, see
    :data:`OPERATION_CODE` and friends), ``*_codes(name)`` factorises
    string fields into ``(codes, categories)``, and ``append_*_row``
    ingests events as positional field tuples without building record
    objects.  All slicing/aggregation primitives below run vectorised on
    the columns and return exactly what the historical per-record
    implementations returned (shared record objects included).
    """

    __slots__ = ("_storage", "_rpc", "_sessions", "_legit_cache",
                 "_groupby_cache", "_distinct_cache")

    def __init__(self, storage: list[StorageRecord] | None = None,
                 rpc: list[RpcRecord] | None = None,
                 sessions: list[SessionRecord] | None = None):
        self._storage = _Stream(_STORAGE_SPEC, list(storage) if storage else [])
        self._rpc = _Stream(_RPC_SPEC, list(rpc) if rpc else [])
        self._sessions = _Stream(_SESSION_SPEC, list(sessions) if sessions else [])
        self._legit_cache: tuple | None = None
        self._groupby_cache: dict = {}
        self._distinct_cache: dict = {}

    @classmethod
    def _from_streams(cls, storage: _Stream, rpc: _Stream,
                      sessions: _Stream) -> "TraceDataset":
        dataset = cls.__new__(cls)
        dataset._storage = storage
        dataset._rpc = rpc
        dataset._sessions = sessions
        dataset._legit_cache = None
        dataset._groupby_cache = {}
        dataset._distinct_cache = {}
        return dataset

    @classmethod
    def from_sorted_blocks(cls, blocks) -> "TraceDataset":
        """Merge per-shard trace blocks into one sorted dataset.

        ``blocks`` is a sequence whose elements are either
        :class:`TraceDataset` instances or ``(storage, rpc, sessions)``
        triples whose entries are raw field-tuple lists or
        :class:`ColumnBlock`\\ s (the shard IPC format); every block's
        streams must already be sorted by timestamp (a shard sink's
        ``finish()`` guarantees that).  The merge is deterministic: ties on
        timestamp keep lower-block-first, intra-block order — so the result
        is a pure function of the block contents, independent of whether the
        blocks were produced sequentially or by parallel replay workers.

        When every entry of a stream is a :class:`ColumnBlock`, the merge
        runs column-wise and the resulting dataset has *every* field's
        column cache pre-seeded (see ``_Stream._from_sorted_column_blocks``)
        and the column blocks are left empty (the merge consumes them);
        mixing columnar and row blocks falls back to the row merge.
        """
        storage_blocks: list = []
        rpc_blocks: list = []
        session_blocks: list = []
        for block in blocks:
            if isinstance(block, TraceDataset):
                storage_blocks.append(block._storage.rows())
                rpc_blocks.append(block._rpc.rows())
                session_blocks.append(block._sessions.rows())
            else:
                storage_rows, rpc_rows, session_rows = block
                storage_blocks.append(storage_rows)
                rpc_blocks.append(rpc_rows)
                session_blocks.append(session_rows)
        streams = []
        for spec, stream_blocks in ((_STORAGE_SPEC, storage_blocks),
                                    (_RPC_SPEC, rpc_blocks),
                                    (_SESSION_SPEC, session_blocks)):
            if stream_blocks and all(isinstance(b, ColumnBlock)
                                     for b in stream_blocks):
                streams.append(_Stream._from_sorted_column_blocks(
                    spec, stream_blocks))
            else:
                streams.append(_Stream._from_sorted_row_blocks(
                    spec, [b.to_rows(spec) if isinstance(b, ColumnBlock) else b
                           for b in stream_blocks]))
        return cls._from_streams(*streams)

    # ------------------------------------------------------------ stream API
    @property
    def storage(self) -> _RecordsView:
        """Storage records (list-like, records materialized lazily)."""
        return _RecordsView(self._storage)

    @property
    def rpc(self) -> _RecordsView:
        """RPC records (list-like, records materialized lazily)."""
        return _RecordsView(self._rpc)

    @property
    def sessions(self) -> _RecordsView:
        """Session records (list-like, records materialized lazily)."""
        return _RecordsView(self._sessions)

    def storage_column(self, name: str) -> np.ndarray:
        """Columnar view of one storage-record field (cached NumPy array)."""
        return self._storage.column(name)

    def rpc_column(self, name: str) -> np.ndarray:
        """Columnar view of one RPC-record field (cached NumPy array)."""
        return self._rpc.column(name)

    def session_column(self, name: str) -> np.ndarray:
        """Columnar view of one session-record field (cached NumPy array)."""
        return self._sessions.column(name)

    def storage_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised storage column: ``(int codes, categories)`` (cached)."""
        return self._storage.codes(name)

    def rpc_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised RPC column: ``(int codes, categories)`` (cached)."""
        return self._rpc.codes(name)

    def session_codes(self, name: str) -> tuple[np.ndarray, list]:
        """Factorised session column: ``(int codes, categories)`` (cached)."""
        return self._sessions.codes(name)

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
        return (self._storage.records() == other._storage.records()
                and self._rpc.records() == other._rpc.records()
                and self._sessions.records() == other._sessions.records())

    def content_digest(self) -> str:
        """Stable hex digest of every record field across all three streams.

        Two datasets have equal digests exactly when they are record-for-
        record identical, so this is the bit-identity witness the chaos and
        resume checks compare — cheap enough to compute from the columnar
        form (object columns hash factorised, no row hydration).
        """
        import hashlib

        digest = hashlib.sha256()
        for label, stream in (("storage", self._storage),
                              ("rpc", self._rpc),
                              ("sessions", self._sessions)):
            digest.update(f"{label}:{len(stream)};".encode())
            for name in stream.spec.fields:
                digest.update(f"{name}:".encode())
                if stream.spec.kinds[name] is object:
                    codes, categories = stream.codes(name)
                    digest.update(np.ascontiguousarray(codes).tobytes())
                    digest.update(repr(categories).encode())
                else:
                    column = np.ascontiguousarray(stream.column(name))
                    digest.update(str(column.dtype).encode())
                    digest.update(column.tobytes())
        return digest.hexdigest()

    # -------------------------------------------------------------- mutation
    def add_storage(self, record: StorageRecord) -> None:
        """Append a storage record."""
        self._storage.append_record(record)
        self._legit_cache = None

    def add_rpc(self, record: RpcRecord) -> None:
        """Append an RPC record."""
        self._rpc.append_record(record)
        self._legit_cache = None

    def add_session(self, record: SessionRecord) -> None:
        """Append a session record."""
        self._sessions.append_record(record)
        self._legit_cache = None

    # The row fast paths do not invalidate the without_attack_traffic cache
    # explicitly: its key embeds the stream lengths, so any append is caught
    # at lookup time.

    def append_storage_row(self, *fields) -> None:
        """Fast path: append a storage event as positional field values.

        The positional order is exactly :class:`StorageRecord`'s field order;
        no record object is built until something iterates :attr:`storage`.
        """
        self._storage.append_row(fields)

    def append_rpc_row(self, *fields) -> None:
        """Fast path: append an RPC event (``RpcRecord`` field order)."""
        self._rpc.append_row(fields)

    def append_session_row(self, *fields) -> None:
        """Fast path: append a session event (``SessionRecord`` field order)."""
        self._sessions.append_row(fields)

    def extend(self, other: "TraceDataset") -> None:
        """Merge another dataset into this one (records are shared, not copied)."""
        self._storage.extend_records(other._storage)
        self._rpc.extend_records(other._rpc)
        self._sessions.extend_records(other._sessions)
        self._legit_cache = None

    def sort(self) -> None:
        """Sort every stream by timestamp in place (no-op when already sorted)."""
        self._storage.sort()
        self._rpc.sort()
        self._sessions.sort()

    # -------------------------------------------------------------- time span
    def time_span(self) -> tuple[float, float]:
        """Return ``(first_timestamp, last_timestamp)`` across all streams.

        Runs as a streaming min/max over the cached timestamp columns — no
        intermediate Python lists are materialized.
        """
        first = float("inf")
        last = float("-inf")
        for stream in (self._storage, self._rpc, self._sessions):
            if len(stream) == 0:
                continue
            ts = stream.column("timestamp")
            first = min(first, float(ts.min()))
            last = max(last, float(ts.max()))
        if first == float("inf"):
            raise ValueError("time span of an empty dataset is undefined")
        return first, last

    @property
    def duration(self) -> float:
        """Length of the trace in seconds."""
        start, end = self.time_span()
        return end - start

    # -------------------------------------------------------------- filtering
    def _filtered(self, mask_of: Callable[[_Stream], np.ndarray]) -> "TraceDataset":
        streams = []
        for stream in (self._storage, self._rpc, self._sessions):
            indices = np.flatnonzero(mask_of(stream))
            streams.append(stream.take(indices))
        return TraceDataset._from_streams(*streams)

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

    def filter_storage(self, predicate: Callable[[StorageRecord], bool]) -> list[StorageRecord]:
        """Storage records satisfying ``predicate``."""
        return [r for r in self._storage.records() if predicate(r)]

    def without_attack_traffic(self) -> "TraceDataset":
        """Dataset with DDoS-attributed records removed.

        The paper removes "malfunctioning clients" artifacts before the
        workload analysis; analogously, analyses that characterise legitimate
        user behaviour can exclude attack traffic with this helper, while the
        anomaly-detection analysis (Fig. 5) keeps it.  The result is cached:
        analyses call this repeatedly and receive the same filtered dataset.
        """
        key = tuple((id(s), len(s), s.order_version)
                    for s in (self._storage, self._rpc, self._sessions))
        if self._legit_cache is not None and self._legit_cache[0] == key:
            return self._legit_cache[1]
        legit = self._filtered(lambda s: ~s.column("caused_by_attack"))
        self._legit_cache = (key, legit)
        return legit

    # ------------------------------------------------------------ aggregation
    def user_ids(self) -> set[int]:
        """Distinct user ids appearing anywhere in the trace."""
        return self._distinct_ids(
            "user_id", (self._storage, self._rpc, self._sessions))

    def session_ids(self) -> set[int]:
        """Distinct session ids appearing anywhere in the trace."""
        return self._distinct_ids("session_id", (self._storage, self._sessions))

    def _distinct_ids(self, name: str, streams: tuple) -> set[int]:
        """Distinct values of an integer column across ``streams``.

        The sorted distinct array is memoized per column under the same
        per-stream ``(id, len, order_version)`` key as
        :meth:`without_attack_traffic`, so appends and re-sorts invalidate
        it; every call returns a fresh set the caller may mutate.
        """
        key = tuple((id(s), len(s), s.order_version) for s in streams)
        cached = self._distinct_cache.get(name)
        if cached is None or cached[0] != key:
            ids = distinct(np.concatenate([s.column(name) for s in streams]))
            cached = self._distinct_cache[name] = (key, ids)
        return set(cached[1].tolist())

    def _storage_grouped(self, key_column: str,
                         keep: np.ndarray | None = None) -> dict[int, list[StorageRecord]]:
        """Group storage records by an integer column, vectorised.

        Groups appear in first-occurrence order and each group is sorted by
        ``(timestamp, insertion order)`` — exactly what the historical
        per-record implementation produced.  Results are memoized per stream
        state: several figure analyses group by the same key.
        """
        stream = self._storage
        # The keep mask participates in the key via a cheap fingerprint so
        # distinct masks over the same column never share a cache entry.
        if keep is None:
            keep_key = None
        else:
            keep_key = (int(keep.sum()),
                        hash(np.packbits(keep).tobytes()))
        cache_key = (key_column, keep_key, len(stream), stream.order_version)
        cached = self._groupby_cache.get(cache_key)
        if cached is not None:
            return cached
        grouped_result = self._storage_grouped_uncached(key_column, keep)
        self._groupby_cache[cache_key] = grouped_result
        return grouped_result

    def _storage_grouped_uncached(self, key_column: str,
                                  keep: np.ndarray | None = None) -> dict[int, list[StorageRecord]]:
        stream = self._storage
        n = len(stream)
        if n == 0:
            return {}
        keys = stream.column(key_column)
        ts = stream.column("timestamp")
        if keep is not None:
            positions = np.flatnonzero(keep)
            if positions.size == 0:
                return {}
            keys = keys[positions]
            ts = ts[positions]
        else:
            positions = np.arange(n)
        # Stable sort by key, then timestamp; ties keep insertion order.
        order = np.lexsort((ts, keys))
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        chunks = np.split(order, boundaries)
        records = stream.records()
        grouped: list[tuple[int, int, list[StorageRecord]]] = []
        for chunk in chunks:
            chunk_list = chunk.tolist()
            group_positions = positions[chunk]
            grouped.append((
                int(group_positions.min()),
                int(keys[chunk_list[0]]),
                [records[i] for i in group_positions.tolist()],
            ))
        grouped.sort()  # first-occurrence order
        return {key: group for _, key, group in grouped}

    def storage_by_user(self) -> dict[int, list[StorageRecord]]:
        """Storage records grouped by user id, each list sorted by time."""
        return self._storage_grouped("user_id")

    def storage_by_node(self) -> dict[int, list[StorageRecord]]:
        """Storage records grouped by node id (files/directories).

        Only records that reference a node are included (session-level
        operations such as ListVolumes carry ``node_id == 0`` and are
        skipped).
        """
        if len(self._storage) == 0:
            return {}
        return self._storage_grouped("node_id",
                                     keep=self._storage.column("node_id") != 0)

    def storage_by_session(self) -> dict[int, list[StorageRecord]]:
        """Storage records grouped by session id."""
        return self._storage_grouped("session_id")

    def iter_operations(self, *operations: ApiOperation) -> Iterator[StorageRecord]:
        """Iterate over storage records whose operation is one of ``operations``."""
        if len(self._storage) == 0:
            return
        codes = self._storage.column("operation")
        wanted = np.fromiter((OPERATION_CODE[op] for op in operations),
                             dtype=np.int16)
        records = self._storage.records()
        for i in np.flatnonzero(np.isin(codes, wanted)).tolist():
            yield records[i]

    def uploads(self) -> list[StorageRecord]:
        """All upload (PutContent) records."""
        return list(self.iter_operations(ApiOperation.UPLOAD))

    def downloads(self) -> list[StorageRecord]:
        """All download (GetContent) records."""
        return list(self.iter_operations(ApiOperation.DOWNLOAD))

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

    def completed_sessions(self) -> list[SessionRecord]:
        """DISCONNECT records, which carry session length and op counts."""
        if len(self._sessions) == 0:
            return []
        mask = self._sessions.column("event") == _DISCONNECT_CODE
        records = self._sessions.records()
        return [records[i] for i in np.flatnonzero(mask).tolist()]

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceDataset(storage={len(self._storage)}, rpc={len(self._rpc)}, "
                f"sessions={len(self._sessions)})")
