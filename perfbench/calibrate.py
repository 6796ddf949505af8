"""Measure the benchmark's own noise and record it in calibration.json.

    python3 perfbench/calibrate.py

Three back-to-back *sets* each run every workload ten times, each run with
another seed and for ``BENCHMARK.json``'s ``run_seconds``, exactly as
``perfbench/run.py --trace 0`` would (about 50 minutes on two CPUs).  Per
(end-to-end metric, workload) it records each set's median and its spread
(interquartile range as a share of the median), then the largest
disagreement between set medians.  The suggested regression bound
of a metric is the largest of 10%, twice that disagreement and three
times the largest spread, capped at the 25% the benchmark contract allows;
``setup_s`` always gets the cap.  The file also pins the seed-2014 trace
digest of every workload and names the machine the numbers belong to.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench.run import CALIBRATION, E2E_METRICS, ROOT, e2e_metrics, measure  # noqa: E402
from perfbench.workloads import DEV_SEED, HELDOUT_SEED, WORKLOADS  # noqa: E402

BOUND_FLOOR, BOUND_CAP = 0.10, 0.25
SETS, RUNS = 3, 10


def _machine() -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": rev}


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workloads, seeds: list[int], seconds: float) -> dict:
    """Per workload and metric: the run medians, their median and spread."""
    result = {}
    for workload in workloads:
        per_metric = {name: [] for name, _ in E2E_METRICS}
        raw = {name: [] for name, _ in E2E_METRICS}
        failed = 0
        for seed in seeds:
            [outcome] = measure([workload], seed, seconds,
                                trace=False).values()
            failed += len(outcome.failures)
            for name, entry in e2e_metrics(outcome).items():
                per_metric[name].append(entry["median"])
            for name, entry in e2e_metrics(outcome, rescale=False).items():
                raw[name].append(entry["median"])
            print(f"  {workload.name} seed {seed}: " + ", ".join(
                f"{name} {values[-1]:.5g}"
                for name, values in per_metric.items()), flush=True)
        result[workload.name] = {
            "failed_jobs": failed,
            **{name: {"median": statistics.median(values),
                      "spread": _spread(values), "values": values,
                      "raw_median": statistics.median(raw[name]),
                      "raw_spread": _spread(raw[name]),
                      "raw_values": raw[name]}
               for name, values in per_metric.items()}}
    return result


def _gap(medians: list[float]) -> float:
    return (max(medians) - min(medians)) / min(medians)


def summarise(sets: list[dict]) -> tuple[dict, dict]:
    """Largest set-to-set disagreement per (workload, metric); bounds."""
    disagreement: dict[str, dict[str, float]] = {}
    bounds: dict[str, float] = {}
    for name, _ in E2E_METRICS:
        worst = 0.0
        for workload in sets[0]:
            gap = _gap([s[workload][name]["median"] for s in sets])
            disagreement.setdefault(workload, {})[name] = gap
            spread = max(s[workload][name]["spread"] for s in sets)
            worst = max(worst, 2 * gap, 3 * spread)
        bounds[name] = BOUND_CAP if name == "setup_s" else \
            round(min(BOUND_CAP, max(BOUND_FLOOR, worst)), 2)
    return disagreement, bounds


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pins = {}
    for workload in WORKLOADS:
        [outcome] = measure([workload], DEV_SEED, 0, trace=False,
                            warmup=0, min_timed=1).values()
        pins[workload.name] = outcome.digest
    sets = []
    for index in range(SETS):
        seeds = [DEV_SEED + 1000 * (index + 1) + k for k in range(RUNS)]
        print(f"set {index + 1}/{SETS}: seeds {seeds[0]}..{seeds[-1]}",
              flush=True)
        sets.append({"seeds": seeds,
                     "workloads": run_set(WORKLOADS, seeds, seconds)})
    disagreement, bounds = summarise([s["workloads"] for s in sets])
    record = {
        "machine": _machine(),
        "seeds": {"dev": DEV_SEED, "heldout": HELDOUT_SEED},
        "pinned_digests": pins,
        "run_seconds": seconds,
        "sets": sets,
        "set_disagreement": disagreement,
        "suggested_bounds": bounds,
    }
    for workload, gaps in disagreement.items():
        for name, gap in gaps.items():
            entries = [s["workloads"][workload][name] for s in sets]
            raw_gap = _gap([e["raw_median"] for e in entries])
            print(f"{workload:<15} {name:<24} disagreement {gap:6.1%} "
                  f"(raw {raw_gap:6.1%})  spreads "
                  + " ".join(f"{e['spread']:6.1%}" for e in entries)
                  + "  (raw " + " ".join(f"{e['raw_spread']:6.1%}"
                                         for e in entries) + ")")
    print("suggested bounds:", json.dumps(bounds))
    CALIBRATION.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
