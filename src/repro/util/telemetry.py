"""Run telemetry: the run-event log and worker-side shard progress.

The paper's analysis exists because the production back-end instrumented
every API/RPC process and merged their logs.  The replay of that back-end
keeps two records of its own:

* ``U1Cluster.last_replay_stats`` — the numbers of one replay (shard
  timings, fault counters, supervision accounting).  It is the only stats
  record: ``--metrics`` writes it as JSON, and a checkpointed run's
  ``MANIFEST.json`` carries its supervision part under ``metrics``.
* :class:`EventLog` — the *what happened when* record of a run:
  structured events (shard dispatch/retry/quarantine/checkpoint-spill,
  fault-window transitions, shutdown/watchdog trips, and the
  ``span-open``/``span-close`` pair around the replay and merge phases)
  appended to ``events.jsonl`` in the checkpoint run directory.  Each
  event is one compact JSON line written with a single ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent appenders can never interleave
  partial lines and a SIGKILL can lose at most the final line.  The file
  is append-only; :meth:`~repro.util.checkpoint.CheckpointStore.finalize`
  replays it into the manifest's event summary, and ``repro verify``
  treats it as a first-class run artifact (never a foreign-file finding).

:class:`ShardProgress` is the forked worker's live progress, which the
supervisor's heartbeat thread reads.

Telemetry is RNG-free and off the trace path: the replayed trace's
``content_digest()`` is the same with or without an event log, at any
``--jobs``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "EVENTS_NAME",
    "EventLog",
    "ShardProgress",
    "find_events_file",
    "read_events",
    "shard_progress",
]

#: Name of the per-run event log inside the checkpoint run directory.
EVENTS_NAME = "events.jsonl"


def _peak_rss_mb() -> float | None:
    """Process peak RSS in MiB (``ru_maxrss``; monotone upper bound)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # pragma: no cover - exotic platforms
        return None
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        return peak / 2**20
    return peak / 1024.0  # Linux: KiB


# ---------------------------------------------------------------------------
# Worker-side shard progress (read by the heartbeat thread)
# ---------------------------------------------------------------------------

class ShardProgress:
    """In-worker progress of the shard currently executing.

    The replay loop bumps ``done`` every few hundred events (plain int
    assignment — cheap enough for the hot path) and the heartbeat thread
    snapshots it for the supervisor.  Process-local: each forked worker
    mutates its own inherited copy.
    """

    __slots__ = ("done", "total", "phase")

    def __init__(self) -> None:
        self.done = 0
        self.total = 0
        self.phase = "idle"

    def begin(self, total: int, phase: str) -> None:
        self.done = 0
        self.total = int(total)
        self.phase = phase

    def snapshot(self) -> tuple[int, int, str]:
        return self.done, self.total, self.phase


_PROGRESS = ShardProgress()


def shard_progress() -> ShardProgress:
    """The process-local shard-progress object."""
    return _PROGRESS


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------

class EventLog:
    """Append-only structured run events (``events.jsonl``).

    One compact JSON object per line; every :meth:`emit` is a single
    ``os.write`` on an ``O_APPEND`` descriptor, so appends are atomic with
    respect to concurrent writers and crash-truncation can only affect the
    final line.  Event timestamps are wall-clock (the log is diagnostics,
    deliberately off the deterministic trace path).  Constructed with
    ``path=None`` the log is disabled and every call is a no-op —
    callers thread one instance through unconditionally and test it with
    ``if events:`` only when building event payloads is itself costly.
    """

    def __init__(self, path: Path | str | None) -> None:
        self.path: Path | None = Path(path) if path is not None else None
        self._fd: int | None = None
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path,
                                   os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                   0o644)
            except OSError:
                self.path = None  # diagnostics never fail the run

    def __bool__(self) -> bool:
        return self._fd is not None

    def emit(self, event: str, **fields) -> None:
        """Append one event (atomic line; silently disabled on I/O error)."""
        if self._fd is None:
            return
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        try:
            os.write(self._fd, line.encode("utf-8"))
        except OSError:
            self.close()

    @contextmanager
    def span(self, name: str, **tags):
        """Bracket one phase with ``span-open``/``span-close`` events.

        The close event carries the phase's wall seconds and the process
        peak RSS (``ru_maxrss``, an upper bound); it is written even when
        the phase raises.
        """
        started = time.perf_counter()
        self.emit("span-open", name=name, **tags)
        try:
            yield
        finally:
            self.emit("span-close", name=name,
                      seconds=round(time.perf_counter() - started, 6),
                      peak_rss_mb=_peak_rss_mb(), **tags)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - already gone
                pass
            self._fd = None


def read_events(path: Path | str) -> list[dict]:
    """Parse an ``events.jsonl`` (skipping a torn final line, if any)."""
    events: list[dict] = []
    try:
        text = Path(path).read_text("utf-8")
    except OSError:
        return events
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail of a crashed writer
        if isinstance(record, dict):
            events.append(record)
    return events


def find_events_file(target: Path | str) -> Path | None:
    """Locate an event log under ``target``.

    Accepts the ``events.jsonl`` file itself, a run directory containing
    one, or a checkpoint root — in the root case the most recently
    modified run's log wins (the natural "what just happened" question).
    """
    target = Path(target)
    if target.is_file():
        return target
    if not target.is_dir():
        return None
    direct = target / EVENTS_NAME
    if direct.is_file():
        return direct
    candidates = [child / EVENTS_NAME for child in target.iterdir()
                  if child.is_dir() and (child / EVENTS_NAME).is_file()]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.stat().st_mtime)
