"""Run-lifecycle durability: graceful shutdown, exit codes, resource guards.

A multi-minute replay driven from the CLI must be *interruptible without
data loss*: SIGINT/SIGTERM mid-run should stop dispatching new shards,
drain (or, past a deadline, kill) the in-flight workers, flush every
completed shard to the checkpoint directory, finalize the run manifest and
exit with a documented code — so that ``--resume`` afterwards reproduces
the undisturbed trace bit-identically.  This module holds the pieces the
CLI, the supervisor and the tests share:

* :class:`ShutdownController` — one flag, set by the first signal (or by
  the opt-in RSS watchdog), polled by the supervisor's dispatch loop.  A
  *second* signal aborts immediately (``os._exit(128 + signum)``), the
  conventional escape hatch when graceful drain itself wedges.
* :func:`graceful_shutdown` — context manager installing SIGINT/SIGTERM
  handlers that delegate to a controller, restoring the previous handlers
  on exit.  Forked shard workers inherit the handler, so a Ctrl-C
  broadcast to the foreground process group does not kill them mid-shard:
  they finish their shard and the parent drains the result.
* :class:`RunInterrupted` — raised by the supervisor once the graceful
  path has flushed; the CLI maps it to :data:`EXIT_INTERRUPTED`.
* :func:`rss_bytes` — the driver's resident set size, feeding the opt-in
  watchdog that converts an impending OOM into checkpoint-and-exit.

Exit codes (also documented in the ROADMAP):

=====  ====================================================================
code   meaning
=====  ====================================================================
0      success
1      empty/unusable input (e.g. ``analyze`` on an empty trace directory)
2      artifact write failure (``--json`` / ``--out`` destination unwritable)
3      run interrupted (SIGINT/SIGTERM or RSS watchdog; graceful, resumable)
4      corruption (``verify`` findings, or ``--validate`` invariant failure)
128+N  immediate abort on a second signal N (nothing flushed beyond the
       first signal's drain)
=====  ====================================================================
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager

__all__ = [
    "EXIT_OK",
    "EXIT_EMPTY",
    "EXIT_ARTIFACT_WRITE",
    "EXIT_INTERRUPTED",
    "EXIT_CORRUPTION",
    "RunInterrupted",
    "ShutdownController",
    "graceful_shutdown",
    "rss_bytes",
]

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_ARTIFACT_WRITE = 2
EXIT_INTERRUPTED = 3
EXIT_CORRUPTION = 4


class RunInterrupted(RuntimeError):
    """A run stopped on request (signal or resource guard) after flushing.

    Raised by the supervisor *after* the graceful path completed: no new
    shards were dispatched, in-flight workers were drained or killed under
    the deadline, every completed outcome was checkpointed (when a
    checkpoint store is attached) and the run manifest was finalized as
    ``interrupted``.  The CLI maps it to :data:`EXIT_INTERRUPTED`.
    """

    def __init__(self, message: str, *, signum: int | None = None,
                 reason: str = "signal", completed: int = 0,
                 remaining: int = 0):
        super().__init__(message)
        self.signum = signum
        self.reason = reason
        self.completed = completed
        self.remaining = remaining
        #: Set by the supervisor: its ``SupervisionReport`` and the
        #: manifest's ``interrupt`` block (reason, signal, RSS high-water).
        self.report = None
        self.interrupt: dict = {}


def rss_bytes() -> int | None:
    """Resident set size of this process in bytes (``None`` when unknown).

    Reads ``/proc/self/statm`` where available (Linux); falls back to
    ``resource.getrusage`` peak RSS (which only ever grows, still a sound
    *upper-bound* trigger for an OOM guard).
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak_kb) * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return None


class ShutdownController:
    """The shared shutdown flag between signal handlers and the supervisor.

    ``request`` is idempotent and safe from signal handlers (it only
    assigns attributes); the double-signal "abort now" escalation lives in
    the handler (:meth:`_on_signal`), not here, so programmatic requests —
    tests, the RSS watchdog — can never trigger a process exit themselves.
    """

    def __init__(self, max_rss_bytes: int | None = None):
        self.requested = False
        self.signum: int | None = None
        self.reason: str | None = None
        #: Opt-in RSS watchdog threshold (``None`` disables the check).
        self.max_rss_bytes = max_rss_bytes
        #: Largest RSS the watchdog ever observed (0 until first poll with
        #: the watchdog armed) — lands in the interrupted manifest so
        #: OOM-adjacent exits stay diagnosable after the fact.
        self.rss_high_water_bytes = 0

    def request(self, signum: int | None = None,
                reason: str = "signal") -> None:
        """Mark shutdown as requested (idempotent; first request wins)."""
        if self.requested:
            return
        self.requested = True
        self.signum = signum
        self.reason = reason

    def poll(self) -> bool:
        """Whether shutdown is requested, evaluating the RSS guard too.

        Called from the supervisor's dispatch loop between waits; the RSS
        read costs one ``/proc`` access, far below the loop's pipe waits.
        """
        if self.max_rss_bytes is not None:
            rss = rss_bytes()
            if rss is not None:
                if rss > self.rss_high_water_bytes:
                    self.rss_high_water_bytes = rss
                if not self.requested and rss > self.max_rss_bytes:
                    self.request(reason="rss")
        return self.requested

    def describe(self) -> str:
        """Human-readable cause ("signal 15", "rss limit")."""
        if self.reason == "rss":
            return "rss limit exceeded"
        if self.signum is not None:
            try:
                return f"signal {signal.Signals(self.signum).name}"
            except ValueError:
                return f"signal {self.signum}"
        return "shutdown requested"

    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        """Signal handler: first signal drains gracefully, second aborts."""
        if self.requested:
            os._exit(128 + signum)
        self.request(signum)


@contextmanager
def graceful_shutdown(max_rss_bytes: int | None = None):
    """Install SIGINT/SIGTERM handlers feeding a :class:`ShutdownController`.

    Yields the controller; previous handlers are restored on exit.  Outside
    the main thread (where ``signal.signal`` is unavailable) the controller
    is yielded without handlers — the RSS watchdog still works, signals
    keep their previous behaviour.
    """
    controller = ShutdownController(max_rss_bytes=max_rss_bytes)
    previous: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum,
                                                 controller._on_signal)
            except (ValueError, OSError):  # pragma: no cover - no signals
                pass
    try:
        yield controller
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
