"""Logfile naming and CSV (de)serialisation of trace records.

Section 4 of the paper describes the raw material of the measurement: one
logfile per server process and day, named like
``production-whitecurrant-23-20140128`` — the ``production`` prefix, the
physical machine name, the process number (unique within a machine) and the
date the logfile was "cut".  Each logfile is strictly sequential and
timestamped.

This module reproduces that on-disk format so that a synthetic trace can be
round-tripped through files exactly like the released dataset: every record
becomes one CSV row whose first column is the request type (``storage_done``,
``rpc`` or ``session``).
"""

from __future__ import annotations

import csv
import datetime as _dt
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from repro.trace.dataset import ColumnBlock, TraceDataset, _column_from_values
from repro.util.units import DAY

__all__ = [
    "LogfileName",
    "write_trace_directory",
    "read_trace_directory",
    "ParseError",
]


class ParseError(ValueError):
    """Raised when a logfile row cannot be parsed.

    The paper notes that approximately 1 % of log lines could not be parsed;
    :func:`read_trace_directory` can either raise or skip such lines.
    """


@dataclass(frozen=True)
class LogfileName:
    """Structured form of a U1 logfile name."""

    environment: str
    machine: str
    process: int
    date: _dt.date

    def __str__(self) -> str:
        return (f"{self.environment}-{self.machine}-{self.process}-"
                f"{self.date.strftime('%Y%m%d')}")

    @classmethod
    def parse(cls, name: str) -> "LogfileName":
        """Parse a name like ``production-whitecurrant-23-20140128``.

        Machine names may themselves contain dashes, therefore the name is
        split from the right: the last component is the date, the one before
        it the process number.
        """
        stem = name.rsplit(".", 1)[0] if name.endswith(".csv") else name
        parts = stem.split("-")
        if len(parts) < 4:
            raise ParseError(f"not a valid logfile name: {name!r}")
        date_part, process_part = parts[-1], parts[-2]
        environment = parts[0]
        machine = "-".join(parts[1:-2])
        if not machine:
            raise ParseError(f"missing machine name in logfile name: {name!r}")
        if len(date_part) != 8 or not date_part.isdigit():
            raise ParseError(f"not a valid logfile name: {name!r}")
        try:
            process = int(process_part)
            date = _dt.datetime.strptime(date_part, "%Y%m%d").date()
        except ValueError as exc:
            raise ParseError(f"not a valid logfile name: {name!r}") from exc
        return cls(environment=environment, machine=machine, process=process, date=date)


# ---------------------------------------------------------------------------
# Row layout
# ---------------------------------------------------------------------------

#: ``(row kind, dataset stream, CSV columns after the kind)`` of each stream:
#: a row's first column names its request type.
_LAYOUTS = (
    ("storage_done", "_storage",
     ("timestamp", "server", "process", "user_id", "session_id", "operation",
      "node_id", "volume_id", "volume_type", "node_kind", "size_bytes",
      "content_hash", "extension", "is_update", "shard_id",
      "caused_by_attack", "error_kind", "retries")),
    ("rpc", "_rpc",
     ("timestamp", "server", "process", "user_id", "session_id", "rpc",
      "shard_id", "service_time", "api_operation", "caused_by_attack")),
    ("session", "_sessions",
     ("timestamp", "server", "process", "user_id", "session_id", "event",
      "session_length", "storage_operations", "caused_by_attack")),
)

#: Values of the trailing storage columns (``error_kind``, ``retries``) for
#: rows written before fault injection added them.
_STORAGE_OUTCOME_DEFAULTS = ("", "0")


def _text_column(stream, name: str) -> list[str]:
    """One packed field of ``stream`` as its CSV cells."""
    kind = stream.spec.kinds[name]
    value = stream.stored(name)
    if kind is object:
        codes, categories = value
        table = np.empty(len(categories), dtype=object)
        table[:] = categories
        return table[codes].tolist()
    if kind == "enum":
        # Code -1 (None) picks the trailing empty cell.
        table = np.array([member.value for member in stream.spec.decode[name]]
                         + [""], dtype=object)
        return table[value].tolist()
    if kind is np.float64:
        return list(map("{:.6f}".format, value.tolist()))
    if kind is np.bool_:
        return np.where(value, "1", "0").tolist()
    return list(map(str, value.tolist()))


def _utc_days(ts: np.ndarray) -> np.ndarray:
    """Days since the epoch of each timestamp's UTC date, rounded to the
    microsecond half-to-even exactly as ``datetime.fromtimestamp`` does."""
    seconds = np.trunc(ts)
    micros = np.round((ts - seconds) * 1e6)
    seconds = seconds + (micros >= 1e6) - (micros < 0)
    return np.floor_divide(seconds, DAY).astype(np.int64)


def _stored_column(spec, name: str, cells: tuple[str, ...]):
    """Stored form of one field parsed from its CSV cells (raises
    ``ValueError``/``KeyError`` on a malformed cell)."""
    kind = spec.kinds[name]
    n = len(cells)
    if kind is object:
        return _column_from_values(spec, name, cells)
    if kind == "enum":
        table = {member.value: code for member, code in spec.codes[name].items()}
        if name == "api_operation":  # the one nullable enum: "" is None
            table[""] = -1
        return np.fromiter(map(table.__getitem__, cells), dtype=np.int16, count=n)
    if kind is np.bool_:
        return np.fromiter(map("1".__eq__, cells), dtype=np.bool_, count=n)
    parse = float if kind is np.float64 else int
    return np.fromiter(map(parse, cells), dtype=kind, count=n)


def _parse_block(spec, fields: tuple[str, ...], rows: list) -> ColumnBlock:
    """One stream's rows (the kind, then ``fields``) packed into a column
    block: one transpose, then one pass per field."""
    columns = zip(*rows)
    next(columns, None)  # the kind
    cells = dict(zip(fields, columns)) if rows else dict.fromkeys(fields, ())
    cols: dict = {}
    codes: dict = {}
    for name in spec.fields:
        value = _stored_column(spec, name, cells[name])
        if type(value) is tuple:
            codes[name] = value
        else:
            cols[name] = value
    return ColumnBlock(len(rows), cols, codes)


# ---------------------------------------------------------------------------
# Directory-level IO (one logfile per server process and day)
# ---------------------------------------------------------------------------

def write_trace_directory(directory: str | Path, dataset: TraceDataset,
                          environment: str = "production") -> list[Path]:
    """Split a dataset into per-process-per-day logfiles under ``directory``.

    Returns the list of logfile paths written, sorted by name.  Within each
    logfile rows are strictly ordered by timestamp, as in the real system;
    rows with equal timestamps keep stream order (storage, RPC, session)
    and their order within the stream.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows: list[tuple] = []
    servers: dict[str, int] = {}
    keys: list[tuple] = []
    for kind, label, fields in _LAYOUTS:
        stream = getattr(dataset, label)
        stream.pack()
        if not len(stream):
            continue
        rows.extend(zip(repeat(kind), *(_text_column(stream, name)
                                        for name in fields)))
        codes, categories = stream.stored("server")
        remap = np.array([servers.setdefault(c, len(servers))
                          for c in categories], dtype=np.int64)
        ts = stream.stored("timestamp")
        keys.append((remap[codes], stream.stored("process"), _utc_days(ts), ts))
    if not rows:
        return []
    server, process, day, ts = (np.concatenate(k) for k in zip(*keys))
    # One stable sort: by logfile, then timestamp, ties in stream order.
    order = np.lexsort((ts, day, process, server))
    server, process, day = server[order], process[order], day[order]
    starts = np.flatnonzero(np.concatenate((
        [True], (server[1:] != server[:-1]) | (process[1:] != process[:-1])
        | (day[1:] != day[:-1]))))
    names = list(servers)
    epoch = _dt.date(1970, 1, 1)
    paths = []
    for start, end in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
        name = LogfileName(environment=environment,
                           machine=names[int(server[start])],
                           process=int(process[start]),
                           date=epoch + _dt.timedelta(days=int(day[start])))
        path = directory / f"{name}.csv"
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(
                map(rows.__getitem__, order[start:end].tolist()))
        paths.append(path)
    return sorted(paths)


def read_trace_directory(directory: str | Path, skip_malformed: bool = False) -> TraceDataset:
    """Merge every logfile under ``directory`` back into a :class:`TraceDataset`.

    Rows are grouped by request type across all files (in file-name order),
    then each stream's rows are transposed and parsed a column at a time
    into one column block.  Unparsable rows raise :class:`ParseError`, or,
    with ``skip_malformed=True``, are dropped, which mirrors the ~1 %
    parse-failure rate the paper reports for the production logs.
    """
    directory = Path(directory)
    layouts = {kind: (label, fields) for kind, label, fields in _LAYOUTS}
    grouped: dict[str, list] = {kind: [] for kind in layouts}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".csv"):
            continue
        LogfileName.parse(entry)  # validates the naming convention
        with (directory / entry).open("r", newline="") as handle:
            for row in csv.reader(handle):
                rows = grouped.get(row[0]) if row else None
                if rows is not None:
                    rows.append(row)
                elif not skip_malformed:
                    raise ParseError(f"unknown request type in row {row!r}")
    dataset = TraceDataset()
    for kind, rows in grouped.items():
        label, fields = layouts[kind]
        stream = getattr(dataset, label)
        stream.append_block(_parse_rows(stream.spec, kind, fields, rows,
                                        skip_malformed))
    dataset.sort()
    return dataset


def _parse_rows(spec, kind: str, fields: tuple[str, ...], rows: list,
                skip_malformed: bool) -> ColumnBlock:
    """Parse one stream's CSV rows; a malformed row raises
    :class:`ParseError` or, with ``skip_malformed``, is dropped."""
    width = len(fields) + 1
    defaults = _STORAGE_OUTCOME_DEFAULTS if kind == "storage_done" else ()
    if any(len(row) != width for row in rows):
        fitted_rows = [_fit(row, width, defaults) for row in rows]
    else:
        fitted_rows = rows
    if None not in fitted_rows:
        try:
            return _parse_block(spec, fields, fitted_rows)
        except (ValueError, KeyError):
            pass  # find the malformed rows one by one
    kept = []
    for row, fitted in zip(rows, fitted_rows):
        try:
            if fitted is None:
                raise ValueError("too few columns")
            _parse_block(spec, fields, [fitted])
        except (ValueError, KeyError) as exc:
            if not skip_malformed:
                raise ParseError(f"malformed {kind!r} row: {row!r}") from exc
            continue
        kept.append(fitted)
    return _parse_block(spec, fields, kept)


def _fit(row: list, width: int, defaults: tuple) -> list | None:
    """``row`` fitted to a ``width``-cell layout: cells past it are ignored,
    and a row short of at most ``len(defaults)`` trailing cells (written
    before those columns existed) takes the defaults for them.  None when
    the row is shorter still."""
    missing = width - len(row)
    if missing <= 0:
        return row[:width]
    if missing > len(defaults):
        return None
    return row + list(defaults[len(defaults) - missing:])
