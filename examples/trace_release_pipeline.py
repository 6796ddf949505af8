#!/usr/bin/env python3
"""Trace release pipeline: log, anonymise, split into logfiles, re-analyse.

The released U1 dataset was built by capturing per-process logfiles, removing
sensitive information and merging 30 days of activity into one trace.  This
example reproduces that pipeline end to end and verifies that the analyses of
the paper are unchanged by anonymisation:

1. simulate the back-end and collect its trace;
2. anonymise it (keyed pseudonyms for users/sessions/nodes/hashes);
3. split it into ``production-<machine>-<process>-<date>`` CSV logfiles;
4. read the logfiles back, re-run the analyses and compare.

Run with::

    python examples/trace_release_pipeline.py [output_dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.core.deduplication import deduplication_analysis
from repro.core.sessions import session_analysis
from repro.core.user_traffic import traffic_inequality
from repro.trace.anonymize import Anonymizer
from repro.trace.logfile import read_trace_directory, write_trace_directory
from repro.trace.stats import summarize
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator


def main(argv: list[str]) -> int:
    output_dir = Path(argv[1]) if len(argv) > 1 else Path(tempfile.mkdtemp(
        prefix="u1-trace-"))

    config = WorkloadConfig.scaled(users=250, days=3, seed=77)
    cluster = U1Cluster(ClusterConfig(seed=77))
    print("Simulating the back-end to collect raw logs ...")
    raw = cluster.replay_plan(SyntheticTraceGenerator(config).plan())

    print("Anonymising the trace (keyed pseudonyms, extensions preserved) ...")
    anonymous = Anonymizer(secret=b"release-2014").anonymize(raw)

    print(f"Writing per-process logfiles under {output_dir} ...")
    paths = write_trace_directory(output_dir, anonymous)
    print(f"  wrote {len(paths)} logfiles, e.g. {paths[0].name}")

    print("Reading the released logfiles back and re-running the analyses ...")
    released = read_trace_directory(output_dir)

    raw_summary = summarize(raw)
    released_summary = summarize(released)
    print("\nTable 3 on the raw trace vs the released trace:")
    for (label, raw_value), (_, released_value) in zip(raw_summary.rows(),
                                                       released_summary.rows()):
        print(f"  {label:<26} {raw_value:>14}  |  {released_value:>14}")

    checks = [
        ("dedup ratio", deduplication_analysis(raw).byte_dedup_ratio,
         deduplication_analysis(released).byte_dedup_ratio),
        ("traffic Gini", traffic_inequality(raw).gini,
         traffic_inequality(released).gini),
        ("active session share", session_analysis(raw).active_share,
         session_analysis(released).active_share),
    ]
    print("\nAnalyses are insensitive to anonymisation:")
    for label, raw_value, released_value in checks:
        marker = "OK " if abs(raw_value - released_value) < 1e-9 else "DIFF"
        print(f"  [{marker}] {label:<22} raw={raw_value:.4f} released={released_value:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
