"""Supervised shard execution: crash-tolerant workers, retries, quarantine.

This module replaces the blind ``Pool.map`` the sharded replay used to run
on.  A multi-hour replay must not die because one worker was OOM-killed or
wedged, and — because every replay shard is a pure function of
``(config, plan member)`` — it does not have to: a crashed shard can simply
be re-executed, bit-identically.

The supervisor forks a pool of **persistent workers** (one fork per job,
like the bare pool it replaces, so healthy-run overhead stays at the noise
level) and feeds them shards **one at a time** over duplex pipes —
per-shard submission, completion-ordered, so no chunking can batch two
LPT-balanced shards onto one worker.  Each worker is watched through three
channels:

* its *result pipe* — the worker answers every assignment with exactly one
  ``("ok", shard_id, outcome)`` or ``("error", shard_id, message,
  traceback)``;
* its *process sentinel* — if the sentinel fires with no message pending,
  the worker died (SIGKILL, OOM, segfault): its shard is rescheduled and a
  fresh worker is forked in its place;
* a *per-shard deadline* derived from the shard's planned operation count —
  a wedged worker is SIGKILLed and treated exactly like a crashed one.

Failed shards retry with capped exponential backoff up to
``SupervisorPolicy.max_attempts`` total attempts; a shard that fails
persistently is **quarantined** and the run finishes in graceful
degradation: the merged trace covers the surviving shards and
``last_replay_stats`` carries explicit per-shard failure accounting
(``shard_failures``, ``quarantined_shards``, retry counts) instead of an
opaque traceback.  Only when *every* shard is quarantined does the run
raise :class:`ShardExecutionError`.

Retries are sound because workers are respawned by forking the parent
*after* the planning pass: the respawned worker inherits the same
``_FORK_STATE`` — config, plan slice and the compiled
:class:`~repro.faults.runtime.FaultSchedule` — so the fault timeline and
every other input is re-derived identically on every attempt.

Checkpoints (:mod:`repro.util.checkpoint`) plug into the same loop: each
completed outcome is spilled as an atomic ``.npz`` and a resumed run loads
finished shards instead of executing them — the first concrete step toward
the spill-to-disk merge of ROADMAP item 10.

Graceful shutdown: pass a
:class:`~repro.util.lifecycle.ShutdownController` and the dispatch loop
polls it between waits.  On the first request (SIGINT/SIGTERM relayed by
the CLI, or the opt-in RSS watchdog) the supervisor stops dispatching new
shards, *drains* in-flight workers up to ``SupervisorPolicy.
shutdown_grace`` seconds (their results are recorded and checkpointed
normally), SIGKILLs whatever is still running past the deadline, finalizes
the run manifest as ``interrupted`` and raises
:class:`~repro.util.lifecycle.RunInterrupted`.  Because completed shards
were spilled, a subsequent ``--resume`` re-executes only the missing ones
and the merged trace is bit-identical to an undisturbed run.

:class:`ChaosPlan` is the test/CI face of all this: it makes selected
worker attempts SIGKILL themselves mid-run (or hang until the deadline),
so the recovery paths are exercised deterministically and the recovered
trace can be asserted bit-identical to an undisturbed run.

Telemetry: forked workers piggyback periodic **heartbeats** on the
duplex pipe — ``("heartbeat", shard_id, attempt, {records done/total, rss,
phase})`` every ``SupervisorPolicy.heartbeat_interval`` seconds, sent by a
daemon thread under the same lock as the result message.  The supervisor
absorbs them in its dispatch loop, feeds the optional ``progress``
callback an aggregated live snapshot (records/s, per-shard fractions,
ETA, retries/quarantines) and uses heartbeat **staleness**
(``heartbeat_grace``) as a second hung-worker signal alongside the
planned-ops deadline: a wedged worker goes silent long before its
deadline would fire.  Chaos arms *before* the heartbeat thread starts, so
a chaos-hung worker is heartbeat-silent by construction.  Every
supervision decision (dispatch, retry, quarantine, checkpoint spill,
resume, shutdown) is additionally appended to the run's
:class:`~repro.util.telemetry.EventLog`, and the finalized manifest carries
the run's own :meth:`SupervisionReport.as_stats` under ``metrics``.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.util import telemetry
from repro.util.lifecycle import RunInterrupted

#: How often the dispatch loop re-checks the shutdown flag while a
#: controller is attached (signal handlers only set a flag; PEP 475 makes
#: the pipe waits otherwise sleep through it until the next deadline).
_SHUTDOWN_POLL_SECONDS = 0.25

__all__ = [
    "ChaosPlan",
    "ShardExecutionError",
    "ShardFailure",
    "SupervisionReport",
    "SupervisorPolicy",
    "supervise_shards",
]


class ShardExecutionError(RuntimeError):
    """Raised when every shard of a replay was quarantined.

    Partial failures never raise — they degrade gracefully into a partial
    result with per-shard accounting; this error means the run produced
    nothing at all.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, backoff and hang-detection knobs of the supervised pool."""

    #: Total attempts per shard (first run + retries) before quarantine.
    max_attempts: int = 3
    #: Backoff before retry ``k`` (0-based): ``base * factor**k``, capped.
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    #: Per-shard timeout = ``timeout_base + timeout_per_op * planned_ops``
    #: (``timeout`` overrides the derivation when set).  The per-op rate is
    #: ~3 orders of magnitude above the measured per-op replay cost, so a
    #: timeout only ever fires on a genuinely wedged worker.
    timeout_base: float = 120.0
    timeout_per_op: float = 0.005
    timeout: float | None = None
    #: Seconds a graceful shutdown waits for in-flight shards to finish
    #: (and be checkpointed) before SIGKILLing their workers.
    shutdown_grace: float = 5.0
    #: Seconds between worker heartbeats (forked pool only; 0 disables).
    heartbeat_interval: float = 1.0
    #: A busy forked worker silent for this long is treated as hung
    #: (second hung signal next to the planned-ops deadline).  Must be
    #: generously above ``heartbeat_interval``: the beat thread only
    #: starves when the worker is genuinely wedged.
    heartbeat_grace: float = 30.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("SupervisorPolicy.max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("SupervisorPolicy backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("SupervisorPolicy.backoff_factor must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("SupervisorPolicy.timeout must be positive")
        if self.timeout_base <= 0 or self.timeout_per_op < 0:
            raise ValueError("SupervisorPolicy timeout derivation must be "
                             "positive")
        if self.shutdown_grace < 0:
            raise ValueError("SupervisorPolicy.shutdown_grace must be >= 0")
        if self.heartbeat_interval < 0:
            raise ValueError(
                "SupervisorPolicy.heartbeat_interval must be >= 0")
        if self.heartbeat_grace <= 0:
            raise ValueError("SupervisorPolicy.heartbeat_grace must be > 0")

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` (0-based)."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** retry_index)

    def shard_timeout(self, planned_ops: float) -> float:
        """Deadline for one shard attempt, derived from its planned ops."""
        if self.timeout is not None:
            return self.timeout
        return self.timeout_base + self.timeout_per_op * max(planned_ops, 0.0)


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic worker-kill injection for the chaos harness.

    ``kill_shards`` SIGKILL themselves on their first ``kill_attempts``
    attempts: immediately when ``kill_after <= 0`` (a worker that dies the
    moment it picks up the shard), otherwise via a real ``SIGALRM`` timer
    that fires *mid-execution* after ``kill_after`` seconds.
    ``hang_shards`` sleep forever instead of working, exercising the
    deadline/SIGKILL path.  Chaos only ever runs inside forked workers —
    the supervisor forces the forked path when a plan is present, so the
    parent process is never at risk.
    """

    kill_shards: tuple = ()
    hang_shards: tuple = ()
    #: Seconds into the attempt at which the kill fires (<= 0: immediately).
    kill_after: float = 0.0
    #: Attempts (0-based) below this index are killed; later retries run
    #: clean, so the run always recovers.
    kill_attempts: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kill_shards", tuple(self.kill_shards))
        object.__setattr__(self, "hang_shards", tuple(self.hang_shards))
        if self.kill_attempts < 1:
            raise ValueError("ChaosPlan.kill_attempts must be >= 1")

    def wants_kill(self, shard_id: int, attempt: int) -> bool:
        return shard_id in self.kill_shards and attempt < self.kill_attempts

    def wants_hang(self, shard_id: int, attempt: int) -> bool:
        return shard_id in self.hang_shards and attempt < self.kill_attempts

    def __bool__(self) -> bool:
        return bool(self.kill_shards or self.hang_shards)


@dataclass
class ShardFailure:
    """One failed shard attempt (exception, crash or timeout)."""

    shard_id: int
    attempt: int
    #: "exception" | "worker-died" | "timeout" | "heartbeat-stale"
    #: | "interrupted"
    reason: str
    detail: str = ""
    exitcode: int | None = None

    def as_dict(self) -> dict:
        return {"shard_id": self.shard_id, "attempt": self.attempt,
                "reason": self.reason, "detail": self.detail,
                "exitcode": self.exitcode}


@dataclass
class SupervisionReport:
    """What the supervisor did: the accounting face of a replay."""

    jobs: int = 1
    #: Shard ids in the order their executions completed (resumed shards
    #: are listed in ``resumed`` instead — they never executed).
    completion_order: list = field(default_factory=list)
    #: shard id -> retries that were *scheduled* (failed attempts that got
    #: another chance; a quarantined shard's last failure is not a retry).
    retries: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    resumed: list = field(default_factory=list)
    checkpointed: list = field(default_factory=list)
    #: Shard ids left unexecuted by a graceful shutdown (also available on
    #: the raised :class:`~repro.util.lifecycle.RunInterrupted`).
    interrupted: list = field(default_factory=list)
    #: shard id -> wall-clock seconds from dispatch to completion of the
    #: *successful* attempt (retries make completion order alone useless
    #: for timing; this is the per-shard latency as the supervisor saw it).
    wall_seconds: dict = field(default_factory=dict)
    #: shard id -> heartbeats received across all of its attempts.
    heartbeats: dict = field(default_factory=dict)

    def as_stats(self) -> dict:
        """JSON-able summary merged into ``last_replay_stats``."""
        return {
            "completion_order": list(self.completion_order),
            "shard_retries": dict(self.retries),
            "shard_failures": [f.as_dict() for f in self.failures],
            "quarantined_shards": list(self.quarantined),
            "shards_resumed": list(self.resumed),
            "shards_checkpointed": list(self.checkpointed),
            "shards_interrupted": list(self.interrupted),
            "shard_wall_seconds": dict(self.wall_seconds),
            "shard_heartbeats": dict(self.heartbeats),
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _chaos_arm(chaos: ChaosPlan | None, shard_id: int, attempt: int) -> None:
    """Apply chaos inside a forked worker, before/around the shard task."""
    if chaos is None:
        return
    if chaos.wants_hang(shard_id, attempt):
        while True:  # wedged worker: only the supervisor's SIGKILL ends this
            time.sleep(3600.0)
    if chaos.wants_kill(shard_id, attempt):
        if chaos.kill_after <= 0.0:
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            # A real mid-execution death: SIGALRM fires while the shard is
            # replaying and the handler SIGKILLs the process outright.
            signal.signal(signal.SIGALRM,
                          lambda *_: os.kill(os.getpid(), signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, chaos.kill_after)


def _chaos_disarm(chaos: ChaosPlan | None, shard_id: int,
                  attempt: int) -> None:
    if (chaos is not None and chaos.kill_after > 0.0
            and chaos.wants_kill(shard_id, attempt)):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _start_heartbeat(conn, send_lock: threading.Lock, shard_id: int,
                     attempt: int, interval: float) -> threading.Event:
    """Start the per-assignment heartbeat daemon thread; returns its stop
    flag.

    Each beat snapshots the worker's :class:`~repro.util.telemetry.
    ShardProgress` (maintained by the replay loop) and the worker RSS, and
    sends ``("heartbeat", shard_id, attempt, payload)`` under the shared
    send lock so a beat can never interleave with the result message.  The
    thread reads, it never mutates — heartbeats are diagnostics and cannot
    affect what the shard computes.
    """
    from repro.util.lifecycle import rss_bytes

    stop = threading.Event()

    def beat() -> None:
        progress = telemetry.shard_progress()
        while not stop.wait(interval):
            done, total, phase = progress.snapshot()
            rss = rss_bytes()
            payload = {"records_done": done, "records_total": total,
                       "phase": phase,
                       "rss_mb": rss / 2**20 if rss is not None else None}
            try:
                with send_lock:
                    if stop.is_set():
                        break
                    conn.send(("heartbeat", shard_id, attempt, payload))
            except (BrokenPipeError, OSError):
                break

    thread = threading.Thread(target=beat, name="shard-heartbeat",
                              daemon=True)
    thread.start()
    return stop


def _worker_loop(task, chaos: ChaosPlan | None, conn,
                 heartbeat_interval: float = 0.0) -> None:
    """Entry point of one persistent forked worker.

    Receives ``(shard_id, attempt)`` assignments one at a time (per-shard
    submission — the supervisor never batches shards), answers each with
    exactly one ``("ok", shard_id, outcome)`` or ``("error", shard_id,
    message, traceback)`` and waits for the next; ``None`` or a closed pipe
    ends the loop.  While an assignment runs, a daemon thread sends
    periodic heartbeats on the same pipe (never interleaved with the
    result: both hold ``send_lock``).  Exits via ``os._exit`` so the
    forked copy of the parent's stack never unwinds and inherited stdio
    buffers never flush twice.
    """
    send_lock = threading.Lock()
    try:
        while True:
            try:
                assignment = conn.recv()
            except (EOFError, OSError):
                break
            if assignment is None:
                break
            shard_id, attempt = assignment
            heartbeat_stop = None
            try:
                # Chaos arms first: a chaos-hung worker never starts its
                # heartbeat thread, so staleness detection sees it silent.
                _chaos_arm(chaos, shard_id, attempt)
                if heartbeat_interval > 0:
                    heartbeat_stop = _start_heartbeat(
                        conn, send_lock, shard_id, attempt,
                        heartbeat_interval)
                outcome = task(shard_id)
                _chaos_disarm(chaos, shard_id, attempt)
                if heartbeat_stop is not None:
                    heartbeat_stop.set()
                with send_lock:
                    conn.send(("ok", shard_id, outcome))
            except BaseException as exc:  # noqa: BLE001 - pipe IS the report
                # A failed task does not end the worker: shards are pure,
                # so no state of this attempt can leak into the next one.
                if heartbeat_stop is not None:
                    heartbeat_stop.set()
                try:
                    with send_lock:
                        conn.send(("error", shard_id,
                                   f"{type(exc).__name__}: {exc}",
                                   traceback.format_exc()))
                except BaseException:
                    os._exit(1)
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    process: object
    conn: object
    #: ``(shard_id, attempt)`` while busy, ``None`` while idle.
    current: tuple | None = None
    deadline: float = 0.0
    #: ``time.monotonic()`` of the current assignment's dispatch.
    dispatched_at: float = 0.0
    #: ``time.monotonic()`` of the last heartbeat (staleness baseline is
    #: ``max(dispatched_at, last_heartbeat)``).
    last_heartbeat: float = 0.0
    #: Latest heartbeat payload of the current assignment.
    heartbeat: dict | None = None


def supervise_shards(task, shard_ids, jobs: int, *,
                     policy: SupervisorPolicy | None = None,
                     timeouts: dict[int, float] | None = None,
                     chaos: ChaosPlan | None = None,
                     checkpoint=None, resume: bool = False,
                     use_fork: bool = True, shutdown=None,
                     events=None, progress=None, planned_ops=None):
    """Run ``task(shard_id)`` for every shard under supervision.

    Returns ``(outcomes, report)`` where ``outcomes`` maps shard id to the
    task's result for every shard that completed (executed, retried or
    loaded from checkpoint) — quarantined shards are absent.  ``use_fork``
    selects the forked worker pool; without it shards run in-process
    (retry/quarantine/checkpoint still apply, crash isolation and chaos do
    not).  Raises :class:`ShardExecutionError` only when nothing completed.

    ``shutdown`` accepts a :class:`~repro.util.lifecycle.ShutdownController`;
    once it reports a request the loop stops dispatching, drains in-flight
    workers up to ``policy.shutdown_grace`` seconds (results checkpointed
    normally), finalizes the manifest as ``interrupted`` and raises
    :class:`~repro.util.lifecycle.RunInterrupted` carrying the
    completed/remaining accounting, the report and the manifest's
    ``interrupt`` block.

    ``events`` accepts an :class:`~repro.util.telemetry.EventLog` the
    supervision decisions are appended to; ``progress`` a callable fed
    aggregated live snapshots (built from heartbeats and completions,
    throttled to ~2/s); ``planned_ops`` the per-shard planned operation
    counts the progress fractions and ETA are weighted by.  All three are
    diagnostics: none of them can change what a shard computes.
    """
    policy = policy or SupervisorPolicy()
    policy.validate()
    shard_ids = list(shard_ids)
    report = SupervisionReport(jobs=jobs)
    outcomes: dict[int, object] = {}
    if events is None:
        events = telemetry.EventLog(None)

    if checkpoint is not None and resume:
        for shard_id in shard_ids:
            loaded = checkpoint.load(shard_id)
            if loaded is not None:
                outcomes[shard_id] = loaded
                report.resumed.append(shard_id)
                events.emit("shard-resumed", shard=shard_id)

    todo = [s for s in shard_ids if s not in outcomes]
    try:
        if todo:
            if use_fork:
                _run_forked(task, todo, jobs, policy, timeouts or {}, chaos,
                            checkpoint, outcomes, report, shutdown,
                            events=events, progress=progress,
                            planned_ops=planned_ops)
            else:
                _run_inprocess(task, todo, policy, checkpoint, outcomes,
                               report, shutdown, events=events,
                               progress=progress, planned_ops=planned_ops)
    except RunInterrupted as exc:
        remaining = [s for s in shard_ids if s not in outcomes]
        report.interrupted = remaining
        exc.completed = len(outcomes)
        exc.remaining = len(remaining)
        exc.report = report
        exc.interrupt = _interrupt_info(exc, shutdown)
        events.emit("shutdown", reason=exc.reason, signum=exc.signum,
                    completed=exc.completed, remaining=exc.remaining)
        events.emit("run-finalize", status="interrupted")
        if checkpoint is not None:
            checkpoint.finalize("interrupted", metrics=report.as_stats(),
                                extra=exc.interrupt)
        raise

    if checkpoint is not None:
        done = len(outcomes) == len(shard_ids)
        status = "complete" if done else "partial"
        events.emit("run-finalize", status=status)
        checkpoint.finalize(status, metrics=report.as_stats())
    else:
        events.emit("run-finalize",
                    status="complete" if len(outcomes) == len(shard_ids)
                    else "partial")

    if shard_ids and not outcomes:
        summary = "; ".join(
            f"shard {f.shard_id} attempt {f.attempt}: {f.reason}"
            f" ({f.detail.splitlines()[-1] if f.detail else ''})"
            for f in report.failures[-len(shard_ids):])
        raise ShardExecutionError(
            f"all {len(shard_ids)} shards quarantined after "
            f"{len(report.failures)} failed attempts: {summary}")
    return outcomes, report


def _interrupt_info(exc: RunInterrupted, shutdown) -> dict:
    """The ``interrupt`` block of an interrupted run's manifest."""
    info = {"reason": exc.reason, "signum": exc.signum,
            "completed": exc.completed, "remaining": exc.remaining}
    high_water = getattr(shutdown, "rss_high_water_bytes", 0) \
        if shutdown is not None else 0
    if high_water:
        # The watchdog's observed high-water mark: OOM-adjacent exits
        # stay diagnosable after the fact.
        info["rss_high_water_mb"] = round(high_water / 2**20, 3)
    if shutdown is not None and shutdown.max_rss_bytes:
        info["max_rss_mb"] = round(shutdown.max_rss_bytes / 2**20, 3)
    return info


def _record_success(shard_id, outcome, checkpoint, outcomes, report,
                    events=None, wall_seconds=None) -> None:
    outcomes[shard_id] = outcome
    report.completion_order.append(shard_id)
    if wall_seconds is not None:
        report.wall_seconds[shard_id] = wall_seconds
    if events:
        events.emit("shard-complete", shard=shard_id,
                    seconds=(round(wall_seconds, 6)
                             if wall_seconds is not None else None))
    if checkpoint is not None:
        path = checkpoint.save(outcome)
        report.checkpointed.append(shard_id)
        if events and path is not None:
            try:
                spilled = path.stat().st_size
            except OSError:  # pragma: no cover - raced with cleanup
                spilled = None
            events.emit("checkpoint-spill", shard=shard_id, file=path.name,
                        bytes=spilled)


def _record_failure(failure: ShardFailure, attempts: dict, policy,
                    report, events=None) -> bool:
    """Account one failed attempt; True when the shard may retry."""
    report.failures.append(failure)
    attempts[failure.shard_id] += 1
    if attempts[failure.shard_id] >= policy.max_attempts:
        report.quarantined.append(failure.shard_id)
        if events:
            events.emit("shard-quarantine", shard=failure.shard_id,
                        attempt=failure.attempt, reason=failure.reason)
        return False
    report.retries[failure.shard_id] = \
        report.retries.get(failure.shard_id, 0) + 1
    if events:
        events.emit("shard-retry", shard=failure.shard_id,
                    attempt=failure.attempt, reason=failure.reason,
                    backoff_seconds=round(policy.backoff(failure.attempt), 6))
    return True


def _run_inprocess(task, todo, policy, checkpoint, outcomes, report,
                   shutdown=None, events=None, progress=None,
                   planned_ops=None) -> None:
    """Sequential supervised execution (no fork: ``--jobs 1`` fast path).

    Retries run back-to-back without sleeping: an in-process failure is
    deterministic (there is no crashed-worker state to let settle), so
    backoff would only delay the inevitable outcome either way.
    """
    started = time.monotonic()
    n_total = len(todo) + len(outcomes)  # resumed shards already present
    attempts = {shard_id: 0 for shard_id in todo}
    for shard_id in todo:
        while True:
            if shutdown is not None and shutdown.poll():
                raise RunInterrupted(
                    f"run interrupted ({shutdown.describe()})",
                    signum=shutdown.signum,
                    reason=shutdown.reason or "signal")
            if events:
                events.emit("shard-dispatch", shard=shard_id,
                            attempt=attempts[shard_id], pid=os.getpid())
            dispatched = time.monotonic()
            try:
                outcome = task(shard_id)
            except Exception as exc:  # noqa: BLE001 - quarantine accounting
                retryable = _record_failure(
                    ShardFailure(shard_id=shard_id,
                                 attempt=attempts[shard_id],
                                 reason="exception",
                                 detail=f"{type(exc).__name__}: {exc}"),
                    attempts, policy, report, events=events)
                if not retryable:
                    break
            else:
                _record_success(shard_id, outcome, checkpoint, outcomes,
                                report, events=events,
                                wall_seconds=time.monotonic() - dispatched)
                break
        if progress is not None:
            progress(_progress_snapshot(planned_ops, outcomes, [], report,
                                        started, n_total))


def _spawn_worker(task, chaos, heartbeat_interval: float = 0.0) -> _Worker:
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(target=_worker_loop,
                          args=(task, chaos, child_conn, heartbeat_interval),
                          daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process=process, conn=parent_conn)


def _stop_worker(worker: _Worker, kill: bool = False) -> None:
    """Shut one worker down (graceful ``None`` or SIGKILL) and join it.

    The Process object is left unclosed on purpose: the failure accounting
    reads ``exitcode`` after the stop, and the handle is reclaimed with the
    worker record anyway.
    """
    if kill:
        worker.process.kill()
    else:
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    worker.process.join(timeout=5.0)
    if worker.process.is_alive():  # pragma: no cover - defensive
        worker.process.kill()
        worker.process.join()
    try:
        worker.conn.close()
    except OSError:
        pass


#: Minimum seconds between two ``progress`` callback invocations.
_PROGRESS_INTERVAL_SECONDS = 0.5


def _recv_result(worker: _Worker, report) -> tuple | None:
    """Drain one worker's pending pipe messages.

    Heartbeats are absorbed in place (staleness clock reset, latest
    payload kept, per-shard count bumped); the first terminal ``ok`` /
    ``error`` message is returned.  ``None`` means only heartbeats — or
    nothing, or an EOF from a worker that died mid-send — were pending;
    the caller distinguishes via the process sentinel, exactly as before
    heartbeats existed.
    """
    while worker.conn.poll():
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return None  # died mid-send: treat as a crash
        if message[0] == "heartbeat":
            worker.last_heartbeat = time.monotonic()
            worker.heartbeat = message[3]
            report.heartbeats[message[1]] = \
                report.heartbeats.get(message[1], 0) + 1
            continue
        return message
    return None


def _progress_snapshot(planned_ops, outcomes, workers, report, started,
                       n_total) -> dict:
    """One aggregated live-progress snapshot for the ``progress`` callback.

    Completed shards contribute their full planned-op weight; running
    shards contribute fractionally via their latest heartbeat's
    records-done/records-total.  ETA extrapolates elapsed wall time over
    the remaining weighted fraction — coarse by design (a progress line,
    not a promise).
    """
    planned_ops = dict(planned_ops or {})
    elapsed = time.monotonic() - started
    total_ops = sum(planned_ops.values())
    done_ops = sum(planned_ops.get(shard_id, 0.0) for shard_id in outcomes)
    records_done = sum(int(getattr(outcome, "n_events", 0) or 0)
                       for outcome in outcomes.values())
    shards_running: dict[int, float | None] = {}
    for worker in workers:
        if worker.current is None:
            continue
        shard_id = worker.current[0]
        fraction = None
        heartbeat = worker.heartbeat
        if heartbeat:
            done = int(heartbeat.get("records_done") or 0)
            total = int(heartbeat.get("records_total") or 0)
            records_done += done
            if total > 0:
                fraction = min(1.0, done / total)
                done_ops += fraction * planned_ops.get(shard_id, 0.0)
        shards_running[shard_id] = fraction
    if total_ops > 0:
        overall = min(1.0, done_ops / total_ops)
    else:
        overall = len(outcomes) / n_total if n_total else 1.0
    eta = elapsed * (1.0 - overall) / overall if overall > 1e-9 else None
    return {
        "elapsed_seconds": elapsed,
        "shards_total": n_total,
        "shards_done": len(outcomes),
        "shards_running": shards_running,
        "fraction": overall,
        "eta_seconds": eta,
        "records_done": records_done,
        "records_per_second": records_done / elapsed if elapsed > 0 else 0.0,
        "retries": sum(report.retries.values()),
        "quarantined": len(report.quarantined),
    }


def _run_forked(task, todo, jobs, policy, timeouts, chaos, checkpoint,
                outcomes, report, shutdown=None, events=None, progress=None,
                planned_ops=None) -> None:
    """The supervised fork pool: persistent workers, sentinels, deadlines.

    ``jobs`` workers are forked once (like the bare pool, so healthy-run
    overhead stays at the noise level) and fed shards one at a time over a
    duplex pipe — per-shard submission, so no chunking can batch two
    LPT-balanced shards onto one worker.  A worker that dies (crash, OOM,
    chaos SIGKILL) or blows its per-shard deadline is detected through its
    sentinel/deadline, its shard is rescheduled with backoff, and a fresh
    worker is forked in its place on the next dispatch round.  Heartbeat
    staleness (``policy.heartbeat_grace`` without a beat from a busy
    worker) is a second hung signal wired into the same kill/retry path.
    """
    if events is None:
        events = telemetry.EventLog(None)
    attempts = {shard_id: 0 for shard_id in todo}
    pending = deque(todo)
    delayed: list[tuple[float, int]] = []  # (ready time, shard id) heap
    workers: list[_Worker] = []
    heartbeats_on = policy.heartbeat_interval > 0
    loop_started = time.monotonic()
    n_total = len(todo) + len(outcomes)
    progress_last = 0.0

    def fail(shard_id: int, attempt: int, reason: str, detail: str = "",
             exitcode: int | None = None) -> None:
        retryable = _record_failure(
            ShardFailure(shard_id=shard_id, attempt=attempt, reason=reason,
                         detail=detail, exitcode=exitcode),
            attempts, policy, report, events=events)
        if retryable:
            ready = time.monotonic() + policy.backoff(attempt)
            heapq.heappush(delayed, (ready, shard_id))

    def succeed(worker: _Worker, shard_id: int, outcome) -> None:
        wall = time.monotonic() - worker.dispatched_at
        worker.current = None
        worker.heartbeat = None
        _record_success(shard_id, outcome, checkpoint, outcomes, report,
                        events=events, wall_seconds=wall)

    def assign(worker: _Worker, shard_id: int) -> bool:
        attempt = attempts[shard_id]
        try:
            worker.conn.send((shard_id, attempt))
        except (BrokenPipeError, OSError):
            return False  # worker died while idle; caller retires it
        now = time.monotonic()
        worker.current = (shard_id, attempt)
        worker.deadline = now + timeouts.get(
            shard_id, policy.shard_timeout(0.0))
        worker.dispatched_at = now
        worker.last_heartbeat = now
        worker.heartbeat = None
        events.emit("shard-dispatch", shard=shard_id, attempt=attempt,
                    pid=worker.process.pid)
        return True

    def retire(worker: _Worker, kill: bool = False) -> None:
        workers.remove(worker)
        _stop_worker(worker, kill=kill)

    def stale_deadline(worker: _Worker) -> float:
        if not heartbeats_on:
            return float("inf")
        return max(worker.dispatched_at, worker.last_heartbeat) \
            + policy.heartbeat_grace

    def emit_progress(force: bool = False) -> None:
        nonlocal progress_last
        if progress is None:
            return
        now = time.monotonic()
        if not force and now - progress_last < _PROGRESS_INTERVAL_SECONDS:
            return
        progress_last = now
        progress(_progress_snapshot(planned_ops, outcomes, workers, report,
                                    loop_started, n_total))

    def drain_for_shutdown() -> None:
        """Graceful-shutdown drain: let in-flight shards finish under the
        grace deadline (their results are recorded and checkpointed
        normally), then SIGKILL whatever is still running."""
        deadline = time.monotonic() + policy.shutdown_grace
        while any(w.current is not None for w in workers):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            busy = [w for w in workers if w.current is not None]
            handles = []
            by_handle = {}
            for worker in busy:
                handles.append(worker.conn)
                by_handle[worker.conn] = worker
                handles.append(worker.process.sentinel)
                by_handle[worker.process.sentinel] = worker
            ready = _connection_wait(
                handles, timeout=min(remaining, _SHUTDOWN_POLL_SECONDS))
            seen: set[int] = set()
            for handle in ready:
                worker = by_handle[handle]
                if (id(worker) in seen or worker not in workers
                        or worker.current is None):
                    continue
                seen.add(id(worker))
                shard_id, attempt = worker.current
                message = _recv_result(worker, report)
                if message is None:
                    if worker.process.is_alive():
                        continue
                    exitcode = worker.process.exitcode
                    retire(worker)
                    # No retry scheduling during shutdown: the shard stays
                    # unexecuted and a later --resume re-runs it.
                    report.failures.append(ShardFailure(
                        shard_id=shard_id, attempt=attempt,
                        reason="worker-died",
                        detail=f"exitcode {exitcode}", exitcode=exitcode))
                elif message[0] == "ok":
                    succeed(worker, shard_id, message[2])
                else:
                    worker.current = None
                    report.failures.append(ShardFailure(
                        shard_id=shard_id, attempt=attempt,
                        reason="exception",
                        detail=f"{message[2]}\n{message[3]}"))
        for worker in [w for w in workers if w.current is not None]:
            shard_id, attempt = worker.current
            report.failures.append(ShardFailure(
                shard_id=shard_id, attempt=attempt, reason="interrupted",
                detail="killed at the graceful-shutdown deadline"))
            retire(worker, kill=True)

    try:
        while pending or delayed or any(w.current for w in workers):
            if shutdown is not None and shutdown.poll():
                drain_for_shutdown()
                raise RunInterrupted(
                    f"run interrupted ({shutdown.describe()})",
                    signum=shutdown.signum,
                    reason=shutdown.reason or "signal")
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                pending.append(heapq.heappop(delayed)[1])

            # Dispatch: feed idle workers first, then grow the pool (initial
            # spawn and crash replacement both land here) up to ``jobs``.
            idle = [w for w in workers if w.current is None]
            while pending and idle:
                worker = idle.pop()
                if assign(worker, pending[0]):
                    pending.popleft()
                else:
                    retire(worker)
            while pending and len(workers) < jobs:
                worker = _spawn_worker(task, chaos,
                                       policy.heartbeat_interval)
                workers.append(worker)
                if assign(worker, pending[0]):
                    pending.popleft()

            busy = [w for w in workers if w.current is not None]
            if not busy:
                # Only backoff waits remain: sleep until the nearest one.
                if delayed:
                    sleep_for = max(0.0, delayed[0][0] - time.monotonic())
                    if shutdown is not None:
                        sleep_for = min(sleep_for, _SHUTDOWN_POLL_SECONDS)
                    time.sleep(sleep_for)
                continue

            wait_until = min(min(w.deadline, stale_deadline(w))
                             for w in busy)
            if delayed:
                wait_until = min(wait_until, delayed[0][0])
            handles = []
            by_handle = {}
            for worker in busy:
                handles.append(worker.conn)
                by_handle[worker.conn] = worker
                handles.append(worker.process.sentinel)
                by_handle[worker.process.sentinel] = worker
            wait_for = max(0.0, wait_until - time.monotonic())
            if shutdown is not None:
                wait_for = min(wait_for, _SHUTDOWN_POLL_SECONDS)
            ready = _connection_wait(handles, timeout=wait_for)

            seen: set[int] = set()
            for handle in ready:
                worker = by_handle[handle]
                if (id(worker) in seen or worker not in workers
                        or worker.current is None):
                    continue
                seen.add(id(worker))
                shard_id, attempt = worker.current
                message = _recv_result(worker, report)
                if message is None:
                    if worker.process.is_alive():
                        continue  # heartbeat/spurious wake: not a result
                    exitcode = worker.process.exitcode
                    retire(worker)
                    fail(shard_id, attempt, "worker-died",
                         detail=f"exitcode {exitcode}", exitcode=exitcode)
                elif message[0] == "ok":
                    succeed(worker, shard_id, message[2])
                else:
                    worker.current = None
                    fail(shard_id, attempt, "exception",
                         detail=f"{message[2]}\n{message[3]}")

            # Hung detection: the planned-ops deadline and (forked pool
            # only) heartbeat staleness share one kill/retry path.
            now = time.monotonic()
            hung: list[tuple[_Worker, str, str]] = []
            for worker in [w for w in workers if w.current is not None]:
                if worker.deadline <= now:
                    hung.append((worker, "timeout",
                                 "no result within "
                                 f"{timeouts.get(worker.current[0], 0.0):.1f}"
                                 "s"))
                elif stale_deadline(worker) <= now:
                    hung.append((worker, "heartbeat-stale",
                                 "no heartbeat for "
                                 f"{policy.heartbeat_grace:.1f}s"))
            for worker, reason, detail in hung:
                if worker not in workers or worker.current is None:
                    continue
                shard_id, attempt = worker.current
                # One last poll: a result just under the wire still wins.
                message = _recv_result(worker, report)
                if message is not None:
                    if message[0] == "ok":
                        succeed(worker, shard_id, message[2])
                    else:
                        worker.current = None
                        fail(shard_id, attempt, "exception",
                             detail=f"{message[2]}\n{message[3]}")
                    continue
                if reason == "heartbeat-stale" \
                        and stale_deadline(worker) > now:
                    continue  # the last poll absorbed a fresh heartbeat
                retire(worker, kill=True)
                fail(shard_id, attempt, reason, detail=detail)
            emit_progress()
    finally:
        for worker in list(workers):
            retire(worker)
        emit_progress(force=True)
