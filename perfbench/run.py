"""The benchmark of record: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH]

Each workload runs as closed batch jobs, one fresh job process at a time
(``perfbench/job.py``: plan -> replay -> report, plus the sweeps on
``faulted-sweeps``).  Jobs run in rounds that cycle through the selected
workloads, so a slow spell on a shared host hits every workload instead of
one workload's whole sample.  The first round is a warm-up and is
discarded; timed rounds continue until ``--seconds`` per workload are
spent (at least three).  End-to-end metrics are medians over the timed
jobs.

Shared hosts drift: the same job can run up to twice as slow while a
neighbour is busy, in spells from seconds to minutes, and on a VM each
virtual CPU slows down on its own.  The harness therefore pins every job
to known CPUs (a single-process job to one CPU, alternating between the
first two; a ``jobs=2`` job to both) and, after every job, times a fixed
probe kernel (:func:`probe_host`) pinned to each of those CPUs.  A job's
timings are rescaled by the mean of the probes just before and just after
it on its own CPUs, to the speed of the host the bounds were calibrated on
(``PROBE_REFERENCE_S``): a job whose probes ran 20% slow counts 20%
faster.  Code under test never runs inside the probe, so a change to it
moves the rescaled timings as it moves the raw ones; the raw medians are
printed alongside.

``--trace 1`` spends half the time on untraced rounds, then runs one traced
job per workload in-process (``jobs=1``) with every layer function wrapped
(``perfbench/tracer.py``); it reports the per-layer metrics instead.
Without ``--trace`` both sets are reported.  Every job is checked: it must
exit cleanly, quarantine no shard, produce the same trace digest as every
other job of its workload (the traced one included) and, once per run,
pass the trace invariant checks.  The last line printed is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (SRC, ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.workloads import DEV_SEED, WORKLOADS, Workload, by_name  # noqa: E402

__all__ = ["E2E_METRICS", "measure", "main"]

JOB = Path(__file__).resolve().parent / "job.py"
CALIBRATION = Path(__file__).resolve().parent / "calibration.json"

#: Longest one job may run before it is killed and counted as failed.
JOB_TIMEOUT_S = 150.0

#: Seconds :func:`probe_host` takes on the host the bounds were calibrated
#: on (a 2-vCPU Xeon VM at its usual speed).  Only ratios to it matter.
PROBE_REFERENCE_S = 0.22

#: (name, unit) of every end-to-end metric, in report order.
E2E_METRICS = [
    ("setup_s", "s"),
    ("pipeline_us_per_event", "us"),
    ("replay_events_per_s", "1/s"),
    ("report_us_per_record", "us"),
    ("peak_rss_mb", "MB"),
]


def probe_host() -> float:
    """Seconds of one fixed dict/sort/NumPy kernel (the host-speed probe).

    Sized like a small slice of the pipeline (a few MB of Python objects
    and arrays), so memory-bound slowdowns show in it as they do in jobs.
    """
    import numpy

    started = time.perf_counter()
    rng = random.Random(0)
    counts: dict[int, int] = {}
    rows = []
    for i in range(60_000):
        key = rng.randrange(200_000)
        counts[key] = counts.get(key, 0) + i
        rows.append((key, i, "x"))
    rows.sort()
    values = numpy.random.default_rng(0).random(2_000_000)
    numpy.argsort(values)
    values.cumsum()
    return time.perf_counter() - started


@contextlib.contextmanager
def _pinned(cpus: list[int]):
    """Run this process, and the processes it starts, on ``cpus`` only."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


#: How each end-to-end metric scales with host speed: timings by the
#: speed, rates by its inverse, memory not at all.
_SPEED_POWER = {"setup_s": 1, "pipeline_us_per_event": 1,
                "replay_events_per_s": -1, "report_us_per_record": 1,
                "peak_rss_mb": 0}


def _e2e_sample(job: dict) -> dict[str, float]:
    """The raw end-to-end metric values of one untraced job."""
    return {
        "setup_s": job["setup_s"],
        "pipeline_us_per_event": job["pipeline_s"] * 1e6 / job["events"],
        "replay_events_per_s": job["events"] / job["replay_s"],
        "report_us_per_record": job["report_s"] * 1e6 / job["records"],
        "peak_rss_mb": job["peak_rss_mb"],
    }


def _spawn(workload: Workload, seed: int, trace: bool,
           validate: bool) -> tuple[dict | None, str]:
    """Run one job process; return ``(result, "")`` or ``(None, reason)``.

    The job gets its own process group, so a timeout kills its replay
    workers along with it; the job is always waited for.
    """
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(JOB), json.dumps(workload.to_json()), str(seed),
         repr(spawned_at), "1" if trace else "0", "1" if validate else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, f"timed out after {JOB_TIMEOUT_S:g} s"
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no output)"]
        return None, f"exit code {process.returncode}: {tail[0]}"
    return json.loads(stdout.strip().splitlines()[-1]), ""


class _Outcome:
    """Everything one run learns about one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.timed: list[dict] = []
        self.digest: str | None = None
        self.traced: dict | None = None

    def check(self, job: dict | None, reason: str, timed: bool) -> bool:
        """Count one job, record why it failed if it did; True if it passed."""
        self.attempted += 1
        if job is not None:
            reason = self._problem(job)
        if reason:
            self.failures.append(reason)
        elif timed:
            self.timed.append(job)
        return not reason

    def _problem(self, job: dict) -> str:
        if self.digest is None:
            self.digest = job["digest"]
        if job["digest"] != self.digest:
            return f"digest {job['digest'][:12]} != {self.digest[:12]}"
        if job["violations"]:
            return f"trace violations: {job['violations'][:3]}"
        if job["stats"]["quarantined"]:
            return f"{job['stats']['quarantined']} shard(s) quarantined"
        if not job["events"] or not job["report_chars"]:
            return "empty trace or report"
        if self.workload.sweeps and not job["sweep_outcomes"]:
            return "sweeps produced no outcomes"
        return ""

    @property
    def correct(self) -> bool:
        return not self.failures and bool(self.timed)


def measure(workloads: list[Workload], seed: int, seconds: float,
            trace: bool, warmup: int = 1, min_timed: int = 3
            ) -> dict[str, _Outcome]:
    """Run the selected workloads in cycling rounds; see the module doc."""
    outcomes = {workload.name: _Outcome(workload) for workload in workloads}
    budget = seconds * len(workloads) * (0.5 if trace else 1.0)
    started = time.monotonic()
    usable = sorted(os.sched_getaffinity(0))[:2]
    #: The latest probe time on each usable CPU.
    probes: dict[int, float] = {}

    def probe_all(first: list[int]) -> None:
        for cpu in first + [cpu for cpu in usable if cpu not in first]:
            with _pinned([cpu]):
                probes[cpu] = probe_host()

    def spawn(workload: Workload, **kwargs) -> tuple[dict | None, str]:
        attempted = outcomes[workload.name].attempted
        cpus = usable if workload.jobs > 1 \
            else [usable[attempted % len(usable)]]
        before = statistics.mean(probes[cpu] for cpu in cpus)
        with _pinned(cpus):
            job, reason = _spawn(workload, seed, **kwargs)
        probe_all(first=cpus)
        if job is not None:
            after = statistics.mean(probes[cpu] for cpu in cpus)
            job["probe_s"] = (before + after) / 2
            job["cpus"] = cpus
        return job, reason

    probe_all(first=[])

    round_seconds: list[float] = []
    rounds = 0
    while rounds < warmup + min_timed or (
            time.monotonic() - started
            + statistics.median(round_seconds[warmup:]) <= budget):
        round_started = time.monotonic()
        for workload in workloads:
            # One validation per workload and run: every later job must
            # reproduce the validated trace's digest exactly.
            job, reason = spawn(workload, trace=False, validate=rounds == 0)
            outcomes[workload.name].check(job, reason,
                                          timed=rounds >= warmup)
        round_seconds.append(time.monotonic() - round_started)
        rounds += 1
    if trace:
        for workload in workloads:
            outcome = outcomes[workload.name]
            job, reason = spawn(workload, trace=True, validate=False)
            if outcome.check(job, reason, timed=False):
                outcome.traced = job
    return outcomes


def _distribution(values: list[float]) -> dict[str, float]:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values),
            "iqr": quartiles[2] - quartiles[0],
            "min": min(values), "max": max(values), "n": len(values)}


def host_speed(job: dict) -> float:
    """Reference probe time over the probe time around ``job`` (1 = as fast
    as the calibration host; below 1 = the host was slower)."""
    return PROBE_REFERENCE_S / job["probe_s"]


def e2e_metrics(outcome: _Outcome, rescale: bool = True) -> dict[str, dict]:
    """Median, IQR, min, max and n of every end-to-end metric.

    Each job's timings are rescaled to the reference host speed
    (:func:`host_speed`) unless ``rescale`` is false.
    """
    samples = []
    for job in outcome.timed:
        speed = host_speed(job) if rescale else 1.0
        samples.append({name: value * speed ** _SPEED_POWER[name]
                        for name, value in _e2e_sample(job).items()})
    return {name: {**_distribution([sample[name] for sample in samples]),
                   "unit": unit}
            for name, unit in E2E_METRICS}


def layer_metrics(outcome: _Outcome) -> dict[str, dict]:
    """Every per-layer metric of the traced job, with its unit."""
    from perfbench.layers import untraced_metrics

    values = dict(outcome.traced["layers"])
    values.update(untraced_metrics(outcome.timed,
                                   outcome.traced["pipeline_s"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS}


def _pinned_digest(workload: Workload, seed: int) -> str | None:
    if seed != DEV_SEED or workload not in WORKLOADS \
            or not CALIBRATION.exists():
        return None
    pins = json.loads(CALIBRATION.read_text())["pinned_digests"]
    return pins.get(workload.name)


def _print_outcome(outcome: _Outcome, seed: int, e2e: dict | None,
                   layers: dict | None) -> None:
    name = outcome.workload.name
    print(f"[{name} seed {seed}] {outcome.attempted} jobs attempted, "
          f"{len(outcome.timed)} timed, {len(outcome.failures)} failed, "
          f"digest {(outcome.digest or '-')[:16]}")
    if outcome.timed:
        pipeline = statistics.median(job["pipeline_s"]
                                     for job in outcome.timed)
        speed = statistics.median(host_speed(job) for job in outcome.timed)
        print(f"  host speed {speed:.3f} of reference (median); raw "
              f"median pipeline {pipeline:.3f} s")
    for reason in outcome.failures:
        print(f"  FAILED: {reason}")
    pinned = _pinned_digest(outcome.workload, seed)
    if pinned and outcome.digest and pinned != outcome.digest:
        # Engine changes may realise a different, equally likely workload
        # at the same seed: reported, not counted as a failure.
        print(f"  digest_changed {name}: pinned {pinned} now {outcome.digest}")
    raw = e2e_metrics(outcome, rescale=False) if e2e else {}
    for metric, entry in (e2e or {}).items():
        print(f"  {metric:<24} {entry['median']:>12.6g} {entry['unit']:<4}"
              f" iqr {entry['iqr']:<9.4g} min {entry['min']:<10.6g}"
              f" max {entry['max']:<10.6g} n={entry['n']}"
              f"  (raw {raw[metric]['median']:.6g})")
    for metric, entry in (layers or {}).items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")


def _result_line(outcome: _Outcome, metrics: dict) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    })


def _check_package() -> None:
    """Refuse to run against any ``repro`` but the one in this checkout."""
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: repro imported from {location}, "
                         f"not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="one workload (default: all four, cycled)")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", type=Path,
                        help="write distributions, spans and digests here")
    args = parser.parse_args(argv)
    _check_package()

    workloads = [by_name(args.workload)] if args.workload else list(WORKLOADS)
    traced = args.trace != "0"
    outcomes = measure(workloads, args.seed, args.seconds, trace=traced)
    dump: dict[str, dict] = {}
    lines = []
    for name, outcome in outcomes.items():
        e2e = e2e_metrics(outcome) if outcome.timed else None
        layers = (layer_metrics(outcome)
                  if traced and outcome.traced and outcome.timed else None)
        _print_outcome(outcome, args.seed, e2e if args.trace != "1" else None,
                       layers)
        dump[name] = {"seed": args.seed, "correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failures": outcome.failures, "digest": outcome.digest,
                      "pinned_digest": _pinned_digest(outcome.workload,
                                                      args.seed),
                      "e2e": e2e, "layers": layers,
                      "jobs": outcome.timed,
                      "spans": (outcome.traced or {}).get("spans")}
        if args.trace != "1" and e2e:
            lines.append(_result_line(outcome, {
                metric: {"value": entry["median"], "unit": entry["unit"]}
                for metric, entry in e2e.items()}))
        if traced and layers:
            lines.append(_result_line(outcome, layers))
    if args.out:
        args.out.write_text(json.dumps(dump, indent=1) + "\n")
    for line in lines:
        print(line)
    complete = all(outcome.correct for outcome in outcomes.values()) and \
        len(lines) == len(outcomes) * (2 if args.trace is None else 1)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
