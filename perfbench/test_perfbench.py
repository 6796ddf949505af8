"""Tests of the benchmark harness itself, on shrunk copies of its workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import time
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.job import run_job
from perfbench.layers import HEALTH, LAYER_METRICS, TARGETS
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _shrunk(workload):
    """The same workload shape at a size that runs in a fraction of a second."""
    attacks = workload.attacks
    if attacks:
        attacks = ({**attacks[0], "start_day": 0.25, "duration_hours": 2.0,
                    "session_amplification": 15.0,
                    "storage_amplification": 245.0},)
    return dataclasses.replace(workload, users=60, days=1.0, attacks=attacks)


SMALL = [_shrunk(workload) for workload in WORKLOADS]


SEED = 7


@pytest.fixture(scope="module")
def outcomes():
    # The host-speed probe only rescales timings; its cost is skipped here.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "probe_host", lambda: bench.PROBE_REFERENCE_S)
        return bench.measure(SMALL, seed=SEED, seconds=0, trace=True,
                             warmup=0, min_timed=1)


def test_benchmark_json_is_valid():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    workloads = BENCHMARK["workloads"]
    e2e = BENCHMARK["end_to_end"]
    layers = BENCHMARK["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) for entry in e2e + layers)
    assert all(set(entry) == {"name", "why"} and len(entry["why"]) <= 200
               for entry in workloads)
    assert all(set(entry) == {"name", "unit", "better", "bound"}
               and 0 < entry["bound"] <= 0.25 for entry in e2e)
    assert all(set(entry) == {"name", "unit", "better"} for entry in layers)
    setup = next(entry for entry in e2e if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in e2e)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        bench.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _, _ in LAYER_METRICS]


def test_every_layer_metric_names_what_it_should_move():
    e2e = {name for name, _ in bench.E2E_METRICS}
    workloads = {workload.name for workload in WORKLOADS}
    for name, _, _, moves, on in LAYER_METRICS:
        assert on and set(on) <= workloads, name
        assert moves in e2e or (moves is None and name in HEALTH), name


def test_emits_every_declared_metric_and_nothing_else(outcomes):
    for outcome in outcomes.values():
        assert outcome.correct, (outcome.workload.name, outcome.failures)
        e2e = bench.e2e_metrics(outcome)
        assert [(name, entry["unit"]) for name, entry in e2e.items()] == \
            bench.E2E_METRICS
        assert all(entry["median"] > 0 for entry in e2e.values())
        layers = bench.layer_metrics(outcome)
        assert [(name, entry["unit"]) for name, entry in layers.items()] == \
            [(name, unit) for name, unit, *_ in LAYER_METRICS]
        assert all(math.isfinite(entry["value"]) for entry in layers.values())


def test_traced_digest_equals_untraced_digest(outcomes):
    for outcome in outcomes.values():
        assert outcome.traced is not None, outcome.failures
        assert outcome.traced["digest"] == outcome.digest
        # The traced job replays in-process; the untraced sync job at jobs=2.
        assert outcome.traced["stats"]["jobs"] == 1


def _patched_attributes() -> dict:
    import importlib

    from perfbench.tracer import _public_names

    snapshot = {}
    for _, module_name, owner_name, names in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        for attr in names or _public_names(owner, module_name):
            snapshot[(module_name, owner_name, attr)] = vars(owner)[attr]
    return snapshot


def _calls(spans: list[dict]) -> dict:
    return {(span["function"], span["parent"]): span["calls"]
            for span in spans}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_counts_repeat_and_classes_are_restored(workload, outcomes):
    before = _patched_attributes()
    result = run_job(workload, SEED, time.monotonic(), trace=True)
    after = _patched_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # Same counts and trace in this process as in the harness's job process.
    traced = outcomes[workload.name].traced
    assert _calls(result["spans"]) == _calls(traced["spans"])
    assert result["digest"] == traced["digest"]
    assert result["layers"]["layer_coverage"] > 0.9
