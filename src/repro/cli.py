"""Command-line interface of the reproduction.

Four sub-commands cover the full pipeline::

    python -m repro generate  --users 400 --days 5 --out trace_dir
        Generate a synthetic client workload, replay it through the simulated
        back-end and write the resulting per-process logfiles.

    python -m repro analyze   trace_dir
        Read a trace directory and print the consolidated analysis report
        (every table/figure of the paper).

    python -m repro report    --users 400 --days 5
        Generate, replay and analyse in one go, without touching the disk.

    python -m repro summarize trace_dir
        Print only the Table 3 summary of a trace directory.

    python -m repro whatif  --users 400 --days 5
        Replay the workload once, then sweep storage policies (dedup off,
        delta updates, hot/cold tiering) *offline* over the trace columns
        and print the cost comparison — one replay plus N cheap passes
        instead of N full replays.

    python -m repro faultsweep --users 400 --days 5
        Replay the workload once through a faulted cluster (degraded and
        flapping processes, a lossy link, a read-only metadata shard, a
        storage-node outage, an auth outage), then evaluate mitigation
        policies (do-nothing and two retry budgets, each one a live
        replay can run too) *offline* over the faulted trace and print
        the error-rate / tail-latency / penalty comparison.

    python -m repro verify checkpoint_dir
        Offline integrity audit (fsck) of checkpoint run directories:
        manifest consistency, per-shard checksums, orphan/foreign/
        truncated files — findings classified repairable vs fatal.

The replaying commands (generate/report/whatif/faultsweep) install
SIGINT/SIGTERM handlers: the first signal checkpoints completed shards
(with ``--checkpoint-dir``), finalizes the run manifest and exits with
code 3; a second signal aborts immediately with ``128+signum``.

Exit codes (see :mod:`repro.util.lifecycle`): 0 success, 1 empty input,
2 artifact write failure, 3 interrupted (graceful, resumable),
4 corruption (verify findings or ``--validate`` violations).

The CLI is intentionally a thin veneer over the library: everything it does
can be done programmatically through :mod:`repro.workload`,
:mod:`repro.backend` and :mod:`repro.core`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.report import format_report
from repro.core.summary import format_table3
from repro.trace.anonymize import Anonymizer
from repro.trace.dataset import TraceDataset
from repro.trace.logfile import read_trace_directory, write_trace_directory
from repro.util.lifecycle import (
    EXIT_CORRUPTION,
    EXIT_EMPTY,
    EXIT_INTERRUPTED,
    EXIT_OK,
    RunInterrupted,
    graceful_shutdown,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

__all__ = ["build_parser", "main"]

#: Commands that replay shards: they get signal handlers, the RSS
#: watchdog and the interrupted exit code.
_REPLAY_COMMANDS = frozenset({"generate", "report", "whatif", "faultsweep"})


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=400,
                        help="number of synthetic users (default: 400)")
    parser.add_argument("--days", type=float, default=5.0,
                        help="trace duration in days (default: 5)")
    parser.add_argument("--seed", type=int, default=2014,
                        help="random seed (default: 2014)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sharded replay "
                             "(default: 1; the trace is bit-identical for "
                             "any value)")


def _add_validate_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--validate", action="store_true",
                        help="check the trace invariants (monotonic "
                             "timelines, schema, session referential "
                             "integrity, fault columns) after the replay; "
                             "violations exit with code 4")


def _add_resume_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="spill each completed replay shard as an atomic "
                             ".npz checkpoint under this directory (keyed by "
                             "config + workload, so unrelated runs never "
                             "collide)")
    parser.add_argument("--resume", action="store_true",
                        help="load finished shards from --checkpoint-dir "
                             "instead of re-executing them; the merged trace "
                             "is bit-identical to an undisturbed run")
    parser.add_argument("--max-rss-mb", type=int, default=None,
                        help="opt-in RSS watchdog: when the driver's "
                             "resident set exceeds this many MiB, the run "
                             "checkpoints completed shards and exits with "
                             "code 3 instead of being OOM-killed")
    parser.add_argument("--metrics", type=Path, default=None,
                        help="write the replay's stats (shard timings, "
                             "fault counters, supervision accounting; an "
                             "interrupted run's supervision accounting and "
                             "interrupt block) as JSON to this path")
    parser.add_argument("--progress", action="store_true",
                        help="print a live replay progress line to stderr "
                             "(records/s, per-shard completion, ETA, "
                             "retries/quarantines), fed by worker "
                             "heartbeats")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dissecting UbuntuOne' (IMC 2015): "
                    "synthetic workload generator, back-end simulator and "
                    "trace analyses.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic trace and write logfiles")
    _add_workload_options(generate)
    _add_validate_option(generate)
    _add_resume_options(generate)
    generate.add_argument("--out", type=Path, required=True,
                          help="directory to write the per-process logfiles to")
    generate.add_argument("--anonymize", action="store_true",
                          help="anonymise the trace before writing it")

    analyze = subparsers.add_parser(
        "analyze", help="analyse a trace directory and print the full report")
    analyze.add_argument("trace_dir", type=Path,
                         help="directory of production-*.csv logfiles")

    summarize = subparsers.add_parser(
        "summarize", help="print the Table 3 summary of a trace directory")
    summarize.add_argument("trace_dir", type=Path,
                           help="directory of production-*.csv logfiles")

    report = subparsers.add_parser(
        "report", help="generate, simulate and analyse in one go")
    _add_workload_options(report)
    _add_validate_option(report)
    _add_resume_options(report)

    whatif = subparsers.add_parser(
        "whatif", help="replay once, then sweep storage policies offline "
                       "over the trace columns")
    _add_workload_options(whatif)
    whatif.add_argument("--delta-factor", type=float, default=0.05,
                        help="delta-update upload size factor (default: 0.05)")
    whatif.add_argument("--tier-age-days", type=float, default=1.0,
                        help="idle days before contents migrate to the cold "
                             "tier (default: 1)")
    whatif.add_argument("--json", type=Path, default=None,
                        help="also write the sweep result as JSON")
    _add_resume_options(whatif)

    faultsweep = subparsers.add_parser(
        "faultsweep", help="replay once through a faulted cluster, then "
                           "sweep mitigation policies offline over the "
                           "faulted trace")
    _add_workload_options(faultsweep)
    faultsweep.add_argument("--json", type=Path, default=None,
                            help="also write the sweep result as JSON")
    _add_resume_options(faultsweep)

    events = subparsers.add_parser(
        "events", help="inspect (or tail) a run's events.jsonl: spans, "
                       "shard dispatch/retry/quarantine, checkpoint "
                       "spills, fault windows, shutdowns")
    events.add_argument("dir", type=Path,
                        help="an events.jsonl file, a run directory, or a "
                             "checkpoint root (most recent run wins)")
    events.add_argument("--json", action="store_true",
                        help="print raw JSON lines instead of the "
                             "formatted view")
    events.add_argument("--follow", action="store_true",
                        help="keep the log open and print events as they "
                             "are appended (Ctrl-C to stop)")

    verify = subparsers.add_parser(
        "verify", help="audit checkpoint run directories: manifest "
                       "consistency, per-shard checksums, orphan/foreign/"
                       "truncated files (exit code 4 on findings)")
    verify.add_argument("dir", type=Path,
                        help="a checkpoint root (as passed to "
                             "--checkpoint-dir) or one run directory")
    verify.add_argument("--json", action="store_true",
                        help="print the findings as JSON instead of text")
    verify.add_argument("--shallow", action="store_true",
                        help="skip reconstructing checksum-clean payloads "
                             "(checksum/manifest checks only)")
    return parser


def _checkpoint_kwargs(args: argparse.Namespace) -> dict:
    """Replay passthrough kwargs from the --checkpoint-dir/--resume flags."""
    kwargs = {"checkpoint_dir": getattr(args, "checkpoint_dir", None),
              "resume": getattr(args, "resume", False),
              "shutdown": getattr(args, "shutdown_controller", None)}
    if getattr(args, "progress", False):
        kwargs["progress"] = _progress_printer()
    return kwargs


def _progress_printer(stream=None):
    """A ``progress`` callback rendering one live line on stderr."""
    stream = stream or sys.stderr

    def show(snapshot: dict) -> None:
        eta = snapshot.get("eta_seconds")
        eta_text = f" eta {eta:.0f}s" if eta is not None else ""
        done = snapshot.get("shards_done", 0)
        total = snapshot.get("shards_total", 0)
        line = (f"replay {done}/{total} shards "
                f"{snapshot.get('fraction', 0.0) * 100.0:5.1f}%  "
                f"{snapshot.get('records_per_second', 0.0):,.0f} rec/s"
                f"{eta_text}  retries {snapshot.get('retries', 0)} "
                f"quarantined {snapshot.get('quarantined', 0)}")
        end = "\n" if total and done >= total else ""
        stream.write("\r" + line.ljust(78) + end)
        stream.flush()

    return show


def _dump_metrics(args: argparse.Namespace, stats: dict, out) -> int:
    """Write the replay's stats when --metrics was given."""
    path = getattr(args, "metrics", None)
    if path is None:
        return 0
    return _write_json_artifact(path, stats, out)


def _write_json_artifact(path: Path, payload, out) -> int:
    """Atomically write a JSON artifact; report failure as exit code 2."""
    from repro.util.atomicio import atomic_write_json

    try:
        atomic_write_json(path, payload)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(f"Wrote {path}", file=out)
    return 0


def _replay(args: argparse.Namespace, out=None, *,
            faulted: bool = False) -> tuple[U1Cluster, TraceDataset]:
    """Plan the --users/--days/--seed workload and replay it.

    ``faulted`` replays through :func:`~repro.faults.spec.default_fault_plan`
    over the trace window.  With ``out``, a checkpointed run prints how
    many shards it resumed and executed there.  The replay's
    ``last_replay_stats`` is kept as ``args.replay_stats`` for --metrics.
    """
    config = WorkloadConfig.scaled(users=args.users, days=args.days,
                                   seed=args.seed)
    faults = None
    if faulted:
        from repro.faults.spec import default_fault_plan
        from repro.util.units import DAY

        faults = default_fault_plan(config.start_time, args.days * DAY,
                                    seed=args.seed)
    cluster = U1Cluster(ClusterConfig(seed=args.seed, faults=faults))
    # Fused pipeline: plan globally, materialize inside the replay workers.
    dataset = cluster.replay_plan(SyntheticTraceGenerator(config).plan(),
                                  n_jobs=args.jobs,
                                  **_checkpoint_kwargs(args))
    args.replay_stats = cluster.last_replay_stats
    if out is not None and args.checkpoint_dir is not None:
        stats = cluster.last_replay_stats or {}
        print(f"checkpoint: resumed {len(stats.get('shards_resumed', []))} "
              f"shard(s), executed {len(stats.get('completion_order', []))} "
              f"({stats.get('checkpoint_dir')})", file=out)
        if stats.get("checkpoint_disabled"):
            print("checkpoint: degraded to in-memory "
                  f"({stats['checkpoint_disabled']})", file=out)
    return cluster, dataset


def _maybe_validate(dataset: TraceDataset, args: argparse.Namespace) -> int:
    """Run the --validate invariant checks; 0 when clean (or not asked)."""
    if not getattr(args, "validate", False):
        return EXIT_OK
    from repro.trace.validate import validate_dataset

    violations = validate_dataset(dataset)
    if violations:
        print("error: trace invariant validation failed:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_CORRUPTION
    return EXIT_OK


def _command_generate(args: argparse.Namespace, out) -> int:
    _, dataset = _replay(args, out)
    status = _maybe_validate(dataset, args)
    if status:
        return status  # do not write a trace that failed validation
    if args.anonymize:
        dataset = Anonymizer().anonymize(dataset)
    paths = write_trace_directory(args.out, dataset)
    print(f"Wrote {len(paths)} logfiles ({len(dataset)} records) to {args.out}",
          file=out)
    print(format_table3(dataset), file=out)
    return 0


def _command_analyze(args: argparse.Namespace, out) -> int:
    dataset = read_trace_directory(args.trace_dir, skip_malformed=True)
    if dataset.is_empty:
        print(f"No records found under {args.trace_dir}", file=out)
        return 1
    print(format_report(dataset), file=out)
    return 0


def _command_summarize(args: argparse.Namespace, out) -> int:
    dataset = read_trace_directory(args.trace_dir, skip_malformed=True)
    if dataset.is_empty:
        print(f"No records found under {args.trace_dir}", file=out)
        return 1
    print(format_table3(dataset), file=out)
    return 0


def _command_report(args: argparse.Namespace, out) -> int:
    _, dataset = _replay(args, out)
    status = _maybe_validate(dataset, args)
    if status:
        return status
    print(format_report(dataset), file=out)
    return 0


def _command_whatif(args: argparse.Namespace, out) -> int:
    import time

    from repro.util.units import DAY
    from repro.whatif.sweep import run_sweep

    started = time.perf_counter()
    cluster, dataset = _replay(args)
    replay_seconds = time.perf_counter() - started

    # The dataset goes in un-decoded: the sweep timing then covers the
    # one-off column decode as well as the policy passes.
    sweep = run_sweep(
        dataset,
        cost_model=cluster.config.cost_model,
        chunk_bytes=cluster.config.multipart_chunk_bytes,
        end_time=cluster.last_replay_stats["timeline_end"],
        delta_update_factor=args.delta_factor,
        tier_age=args.tier_age_days * DAY)

    print(f"Replayed {len(dataset)} records in {replay_seconds:.3f}s; "
          f"swept {len(sweep.outcomes)} policies offline in "
          f"{sweep.seconds:.3f}s ({sweep.seconds / replay_seconds:.2f}x "
          f"one replay)", file=out)
    print(sweep.format_table(), file=out)
    print("(offline estimates: global store, uninterrupted uploads; "
          "see repro.whatif)", file=out)
    if args.json is not None:
        payload = sweep.to_json()
        payload["replay_seconds"] = replay_seconds
        payload["config"] = {"users": args.users, "days": args.days,
                             "seed": args.seed, "jobs": args.jobs}
        return _write_json_artifact(args.json, payload, out)
    return 0


def _command_faultsweep(args: argparse.Namespace, out) -> int:
    import time

    from repro.faults.sweep import run_fault_sweep

    started = time.perf_counter()
    cluster, dataset = _replay(args, faulted=True)
    replay_seconds = time.perf_counter() - started

    # The dataset goes in un-decoded: the sweep timing then covers the
    # one-off column decode as well as the policy passes.
    sweep = run_fault_sweep(dataset, cluster.fault_schedule,
                            config=cluster.config)

    print(f"Replayed {len(dataset)} records through the faulted cluster in "
          f"{replay_seconds:.3f}s; evaluated {len(sweep.outcomes)} "
          f"mitigation policies offline in {sweep.seconds:.3f}s "
          f"({sweep.seconds / replay_seconds:.2f}x one replay)", file=out)
    print(sweep.format_table(), file=out)
    print("(each policy pins the live counters of a replay under it; "
          "see repro.faults)", file=out)
    if args.json is not None:
        payload = sweep.to_json()
        payload["replay_seconds"] = replay_seconds
        # What the do-nothing policy (policies[0]) must reproduce.
        payload["live_fault_counters"] = \
            cluster.last_replay_stats["fault_counters"]
        payload["config"] = {"users": args.users, "days": args.days,
                             "seed": args.seed, "jobs": args.jobs}
        return _write_json_artifact(args.json, payload, out)
    return 0


def _command_events(args: argparse.Namespace, out) -> int:
    import json
    import time as _time

    from repro.util.telemetry import find_events_file, read_events

    path = find_events_file(args.dir)
    if path is None:
        print(f"No events.jsonl found under {args.dir}", file=out)
        return EXIT_EMPTY

    def render(record: dict) -> str:
        if args.json:
            return json.dumps(record, separators=(",", ":"), default=str)
        ts = record.get("ts")
        ts_text = f"{ts:.3f}" if isinstance(ts, (int, float)) else str(ts)
        fields = " ".join(f"{key}={value}" for key, value in record.items()
                          if key not in ("ts", "event"))
        return f"{ts_text}  {record.get('event', '?'):<18} {fields}".rstrip()

    for record in read_events(path):
        print(render(record), file=out)
    if not args.follow:
        return EXIT_OK
    # Tail mode: poll for appended complete lines until interrupted.  The
    # log is append-only (single O_APPEND writer per event), so seeking to
    # the end and reading forward can never miss or re-read an event.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            handle.seek(0, 2)
            buffered = ""
            while True:
                chunk = handle.readline()
                if not chunk:
                    _time.sleep(0.25)
                    continue
                buffered += chunk
                if not buffered.endswith("\n"):
                    continue  # torn line still being written
                line, buffered = buffered.strip(), ""
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                print(render(record), file=out)
    except KeyboardInterrupt:
        return EXIT_OK


def _command_verify(args: argparse.Namespace, out) -> int:
    import json

    from repro.util.verify import verify_tree

    results = verify_tree(args.dir, deep=not args.shallow)
    if not results:
        print(f"No run directories found under {args.dir}", file=out)
        return EXIT_EMPTY
    total = sum(len(findings) for findings in results.values())
    fatal = sum(1 for findings in results.values()
                for finding in findings if finding.severity == "fatal")
    if args.json:
        print(json.dumps({
            "root": str(args.dir),
            "runs": {run: [finding.as_dict() for finding in findings]
                     for run, findings in results.items()},
            "findings": total,
            "fatal": fatal,
            "repairable": total - fatal,
            "clean": total == 0,
        }, indent=2), file=out)
    else:
        for run, findings in results.items():
            print(f"{run}: " + ("clean" if not findings
                                else f"{len(findings)} finding(s)"), file=out)
            for finding in findings:
                print(f"  {finding}", file=out)
        print(f"verify: {len(results)} run(s), {total} finding(s) "
              f"({fatal} fatal, {total - fatal} repairable)", file=out)
    return EXIT_CORRUPTION if total else EXIT_OK


_COMMANDS = {
    "generate": _command_generate,
    "analyze": _command_analyze,
    "summarize": _command_summarize,
    "report": _command_report,
    "whatif": _command_whatif,
    "faultsweep": _command_faultsweep,
    "events": _command_events,
    "verify": _command_verify,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and \
            getattr(args, "checkpoint_dir", None) is None:
        parser.error("--resume requires --checkpoint-dir")
    handler = _COMMANDS[args.command]
    if args.command not in _REPLAY_COMMANDS:
        return handler(args, out)
    max_rss_mb = getattr(args, "max_rss_mb", None)
    with graceful_shutdown(max_rss_mb * 1024 * 1024
                           if max_rss_mb else None) as controller:
        args.shutdown_controller = controller
        try:
            code = handler(args, out)
        except RunInterrupted as exc:
            resumable = getattr(args, "checkpoint_dir", None) is not None
            hint = ("re-run with --resume to continue" if resumable
                    else "completed work was not checkpointed "
                         "(use --checkpoint-dir)")
            print(f"interrupted: {exc} — {exc.completed} shard(s) "
                  f"completed, {exc.remaining} remaining; {hint}",
                  file=sys.stderr)
            _dump_metrics(args, {**exc.report.as_stats(),
                                 "interrupt": exc.interrupt}, out)
            return EXIT_INTERRUPTED
        return code or _dump_metrics(args, args.replay_stats, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
