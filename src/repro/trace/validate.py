"""End-of-run trace invariant validation (``--validate``).

A replayed :class:`~repro.trace.dataset.TraceDataset` is supposed to hold
these invariants *by construction* — shard sinks emit in timestamp order,
the merge is order-preserving, every event carries the session that
produced it.  ``--validate`` re-checks them on the merged result anyway:
it is the cheap end-to-end tripwire that catches a merge regression, a
corrupted resumed checkpoint that slipped past the checksums, or a fault
column drifting from the error taxonomy — *before* the trace feeds any
analysis.  The chaos harness runs it unconditionally.

Checks, all vectorised on the columnar form:

* **Monotonic timelines** — each stream's ``timestamp`` column is
  non-decreasing (the merged-sorted invariant every slicing primitive
  relies on).
* **Schema conformance** — every field the stream spec declares is
  present with the declared dtype; enum codes stay inside their code
  tables; factorised string codes stay inside their category tables.
* **Session referential integrity** — every storage/RPC event's
  ``session_id`` appears in the session stream, and a session maps to
  exactly one ``user_id`` across all three streams.  ``session_id 0`` is
  exempt: it is the system sentinel on maintenance RPCs (the uploadjob
  GC probes of :mod:`repro.backend.replay_shard`), which no client
  session ever produced — real session ids start at 1.
* **Fault-column consistency** — ``error_kind`` values come from the
  back-end error taxonomy (:data:`repro.backend.errors.ERROR_KINDS`) and
  ``retries`` is never negative.

Returns human-readable violation strings; an empty list is a clean trace.
"""

from __future__ import annotations

import numpy as np

from repro.backend.errors import ERROR_KINDS
from repro.util.distinct import distinct_pairs

__all__ = ["validate_dataset"]

_STREAMS = ("storage", "rpc", "sessions")


def _stream(dataset, name: str):
    return getattr(dataset, f"_{name}")


def _check_monotonic(dataset, violations: list) -> None:
    for name in _STREAMS:
        stream = _stream(dataset, name)
        if len(stream) < 2:
            continue
        ts = stream.column("timestamp")
        if np.any(np.diff(ts) < 0):
            position = int(np.argmax(np.diff(ts) < 0))
            violations.append(
                f"{name}: timestamps not monotonic at row {position + 1} "
                f"({ts[position + 1]:.6f} after {ts[position]:.6f})")


def _check_schema(dataset, violations: list) -> None:
    for name in _STREAMS:
        stream = _stream(dataset, name)
        spec = stream.spec
        if len(stream) == 0:
            continue
        for field in spec.fields:
            kind = spec.kinds[field]
            if kind is object:
                codes, categories = stream.codes(field)
                if not np.issubdtype(codes.dtype, np.integer):
                    violations.append(
                        f"{name}.{field}: factorised codes are "
                        f"{codes.dtype}, expected integer")
                elif len(codes) and (codes.min() < 0
                                     or codes.max() >= len(categories)):
                    violations.append(
                        f"{name}.{field}: factorised code out of range "
                        f"for {len(categories)} categories")
                continue
            column = stream.column(field)
            if len(column) != len(stream):
                violations.append(
                    f"{name}.{field}: column length {len(column)} != "
                    f"stream length {len(stream)}")
                continue
            if kind == "enum":
                if not np.issubdtype(column.dtype, np.integer):
                    violations.append(
                        f"{name}.{field}: enum codes are {column.dtype}, "
                        f"expected integer")
                    continue
                table = spec.decode[field]
                if len(column) and (column.min() < -1
                                    or column.max() >= len(table)):
                    violations.append(
                        f"{name}.{field}: enum code out of range for "
                        f"{len(table)} members")
            elif column.dtype != np.dtype(kind):
                violations.append(
                    f"{name}.{field}: dtype {column.dtype}, expected "
                    f"{np.dtype(kind)}")


def _session_user_map(dataset, violations: list) -> dict[int, int] | None:
    """session_id -> user_id from the session stream (None when ambiguous)."""
    stream = dataset._sessions
    if len(stream) == 0:
        return {}
    session_ids = stream.column("session_id")
    user_ids = stream.column("user_id")
    pairs = distinct_pairs(session_ids, user_ids)
    # Pairs come sorted by session, so a session with two users repeats.
    repeated = pairs[1:, 0][pairs[1:, 0] == pairs[:-1, 0]]
    if repeated.size:
        culprit = int(repeated[0])
        violations.append(
            f"sessions: session_id {culprit} maps to multiple user_ids")
        return None
    return dict(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def _check_referential(dataset, violations: list) -> None:
    mapping = _session_user_map(dataset, violations)
    if mapping is None:
        return
    known = np.fromiter(mapping.keys(), dtype=np.int64,
                        count=len(mapping)) if mapping else \
        np.empty(0, dtype=np.int64)
    for name in ("storage", "rpc"):
        stream = _stream(dataset, name)
        if len(stream) == 0:
            continue
        session_ids = stream.column("session_id")
        user_ids = stream.column("user_id")
        missing = (session_ids != 0) & ~np.isin(session_ids, known)
        if np.any(missing):
            culprit = int(session_ids[np.argmax(missing)])
            violations.append(
                f"{name}: {int(missing.sum())} event(s) reference "
                f"session_id(s) absent from the session stream "
                f"(e.g. {culprit})")
            continue
        client = session_ids != 0
        session_ids = session_ids[client]
        user_ids = user_ids[client]
        expected = np.fromiter((mapping[s] for s in session_ids.tolist()),
                               dtype=np.int64, count=len(session_ids))
        mismatched = expected != user_ids
        if np.any(mismatched):
            culprit = int(session_ids[np.argmax(mismatched)])
            violations.append(
                f"{name}: {int(mismatched.sum())} event(s) disagree with "
                f"the session stream about the user of session {culprit}")


def _check_faults(dataset, violations: list) -> None:
    stream = dataset._storage
    if len(stream) == 0:
        return
    codes, categories = stream.codes("error_kind")
    valid = {"", None} | set(ERROR_KINDS)
    unknown = sorted(str(c) for c in categories if c not in valid)
    if unknown:
        violations.append(
            f"storage.error_kind: unknown value(s) {unknown} (not in the "
            f"back-end error taxonomy)")
    retries = stream.column("retries")
    if len(retries) and retries.min() < 0:
        violations.append(
            f"storage.retries: negative retry count ({int(retries.min())})")


def validate_dataset(dataset) -> list[str]:
    """Check the trace invariants; return violations (empty when clean)."""
    violations: list[str] = []
    _check_monotonic(dataset, violations)
    _check_schema(dataset, violations)
    _check_referential(dataset, violations)
    _check_faults(dataset, violations)
    return violations
