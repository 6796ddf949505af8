"""Unified run telemetry: metrics registry, phase spans, run-event log.

Observability of the reproduction itself (ISSUE 9).  The paper's analysis
exists because the production back-end instrumented every API/RPC process
and merged their logs; our replay of that back-end gets the same
treatment here, in three process-local pieces:

* :class:`MetricsRegistry` — counters, gauges (with high-water tracking)
  and fixed-bucket ndarray histograms (per-op service time, per-shard
  attempt latency).  One module-global default registry
  (:func:`get_registry`) is wired through planning → materialization →
  replay → merge → analysis; :func:`set_enabled` turns the whole layer
  into cheap no-ops.
* :func:`span` — lightweight phase/shard spans: context managers
  recording start/end wall duration, RSS at exit and the process peak RSS
  (``ru_maxrss``, an upper bound), optionally mirrored into an event log
  as ``span-open``/``span-close`` events.
* :class:`EventLog` — the durable *what happened when* record of a run:
  structured events (shard dispatch/retry/quarantine/checkpoint-spill,
  fault-window transitions, shutdown/watchdog trips) appended to
  ``events.jsonl`` in the checkpoint run directory.  Each event is one
  compact JSON line written with a single ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent appenders can never interleave
  partial lines and a SIGKILL can lose at most the final line.  The file
  is append-only; :meth:`~repro.util.checkpoint.CheckpointStore.finalize`
  replays it into the manifest summary, and ``repro verify`` treats it as
  a first-class run artifact (never a foreign-file finding).

Hard constraints, pinned by tests: telemetry is **RNG-free** and off the
trace path — the replayed trace's ``content_digest()`` is bit-identical
with telemetry enabled or disabled, at any ``--jobs`` — and the disabled
registry costs one attribute check per call site.

Registries are process-local on purpose: forked shard workers inherit a
copy and their in-worker observations stay in the worker (their progress
travels back through supervisor heartbeats instead).  A ``--jobs 1``
in-process run captures everything in the parent registry; multi-job runs
capture the parent-side phases (plan, dispatch, merge, analysis) plus the
post-merge per-op histograms, which are computed from the merged columns
and therefore never depend on the worker count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "ATTEMPT_SECONDS_EDGES",
    "EVENTS_NAME",
    "SERVICE_TIME_MS_EDGES",
    "EventLog",
    "MetricsRegistry",
    "ShardProgress",
    "enabled",
    "find_events_file",
    "get_registry",
    "inc",
    "read_events",
    "set_enabled",
    "set_gauge",
    "shard_progress",
    "span",
]

#: Name of the per-run event log inside the checkpoint run directory.
EVENTS_NAME = "events.jsonl"

#: Bucket upper edges (ms) of the per-op service-time histogram — log-ish
#: spacing covering sub-ms metadata RPCs through multi-second outliers.
SERVICE_TIME_MS_EDGES = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
                         100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)

#: Bucket upper edges (s) of the per-shard attempt-latency histogram.
ATTEMPT_SECONDS_EDGES = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                         30.0, 60.0, 300.0, 1800.0)


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


def _rss_mb() -> float | None:
    """Current RSS in MiB (``None`` when unknown)."""
    from repro.util.lifecycle import rss_bytes

    rss = rss_bytes()
    return rss / 2**20 if rss is not None else None


class _Histogram:
    """Fixed-bucket histogram over ndarray counts.

    ``counts[i]`` counts values in ``(edges[i-1], edges[i]]`` with the
    implicit outer buckets ``(-inf, edges[0]]`` and ``(edges[-1], inf)``,
    so nothing is ever silently dropped.
    """

    __slots__ = ("edges", "counts", "count", "total")

    def __init__(self, edges) -> None:
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or len(self.edges) < 1 or \
                np.any(np.diff(self.edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing")
        self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[int(np.searchsorted(self.edges, value, side="left"))] += 1
        self.count += 1
        self.total += float(value)

    def observe_array(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        idx = np.searchsorted(self.edges, values, side="left")
        self.counts += np.bincount(idx, minlength=len(self.counts)
                                   ).astype(np.int64)
        self.count += int(values.size)
        self.total += float(values.sum())

    def snapshot(self) -> dict:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            "count": int(self.count),
            "sum": float(self.total),
            "mean": float(self.total / self.count) if self.count else None,
        }


class _Span:
    """One timed phase/shard span (use via :meth:`MetricsRegistry.span`)."""

    __slots__ = ("_registry", "_events", "name", "tags", "started",
                 "seconds", "rss_mb", "peak_rss_mb")

    def __init__(self, registry, name: str, tags: dict, events=None) -> None:
        self._registry = registry
        self._events = events
        self.name = name
        self.tags = tags
        self.started = 0.0
        self.seconds = 0.0
        self.rss_mb: float | None = None
        self.peak_rss_mb: float | None = None

    def __enter__(self) -> "_Span":
        self.started = time.perf_counter()
        if self._events:
            self._events.emit("span-open", name=self.name, **self.tags)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self.started
        registry = self._registry
        if registry is not None and registry.enabled:
            self.rss_mb = _rss_mb()
            self.peak_rss_mb = _peak_rss_mb()
            record = {"name": self.name, "seconds": self.seconds,
                      "rss_mb": self.rss_mb,
                      "peak_rss_mb": self.peak_rss_mb}
            if self.tags:
                record.update(self.tags)
            registry.record_span(record)
        if self._events:
            self._events.emit("span-close", name=self.name,
                              seconds=round(self.seconds, 6),
                              peak_rss_mb=self.peak_rss_mb, **self.tags)


class MetricsRegistry:
    """Process-local counters, gauges, histograms and closed spans.

    Everything is plain attribute work — no locks (the replay hot path is
    single-threaded per process; the supervisor's heartbeat aggregation
    happens parent-side in its dispatch loop), no RNG, no wall-clock reads
    on the disabled path.
    """

    #: Closed spans kept per registry (a run produces a handful; the cap
    #: only guards against a pathological caller looping over spans).
    MAX_SPANS = 1024

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: High-water marks of every gauge ever set (OOM forensics).
        self.gauge_max: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        self.spans: list[dict] = []

    # ----------------------------------------------------------- primitives
    def inc(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        value = float(value)
        self.gauges[name] = value
        if value > self.gauge_max.get(name, float("-inf")):
            self.gauge_max[name] = value

    def _histogram(self, name: str, edges) -> _Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram(
                edges if edges is not None else ATTEMPT_SECONDS_EDGES)
        return hist

    def observe(self, name: str, value: float, edges=None) -> None:
        if not self.enabled:
            return
        self._histogram(name, edges).observe(value)

    def observe_array(self, name: str, values, edges=None) -> None:
        if not self.enabled:
            return
        self._histogram(name, edges).observe_array(values)

    # ---------------------------------------------------------------- spans
    def span(self, name: str, *, events=None, **tags) -> _Span:
        """A context manager timing one phase (``span("replay", shard=3)``).

        ``events`` optionally mirrors the span into an :class:`EventLog`
        as ``span-open``/``span-close`` events.  Duration is always
        measured (callers read ``.seconds``); RSS sampling and the span
        record are skipped when the registry is disabled.
        """
        return _Span(self, name, tags, events=events)

    def record_span(self, record: dict) -> None:
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append(record)

    # ------------------------------------------------------------- lifecycle
    def snapshot(self) -> dict:
        """JSON-able snapshot of everything the registry holds."""
        return {
            "enabled": self.enabled,
            "counters": {name: (int(v) if float(v).is_integer() else float(v))
                         for name, v in sorted(self.counters.items())},
            "gauges": {name: float(v)
                       for name, v in sorted(self.gauges.items())},
            "gauge_max": {name: float(v)
                          for name, v in sorted(self.gauge_max.items())},
            "histograms": {name: hist.snapshot()
                           for name, hist in sorted(self._histograms.items())},
            "spans": [dict(record) for record in self.spans],
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.gauge_max.clear()
        self._histograms.clear()
        self.spans.clear()


# ---------------------------------------------------------------------------
# Worker-side shard progress (read by the heartbeat thread)
# ---------------------------------------------------------------------------

class ShardProgress:
    """In-worker progress of the shard currently executing.

    The replay loop bumps ``done`` every few hundred events (plain int
    assignment — cheap enough for the hot path) and the heartbeat thread
    snapshots it for the supervisor.  Process-local like the registry:
    each forked worker mutates its own inherited copy.
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


# ---------------------------------------------------------------------------
# Module-global default registry
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_TELEMETRY", "1") != "0")


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def set_enabled(flag: bool) -> bool:
    """Enable/disable the default registry; returns the previous state."""
    previous = _REGISTRY.enabled
    _REGISTRY.enabled = bool(flag)
    return previous


def enabled() -> bool:
    return _REGISTRY.enabled


def inc(name: str, value: float = 1) -> None:
    _REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.set_gauge(name, value)


def span(name: str, *, events=None, **tags) -> _Span:
    """A span on the default registry (see :meth:`MetricsRegistry.span`)."""
    return _REGISTRY.span(name, events=events, **tags)
