"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper from the same
synthetic month: a workload scaled to laptop size (the ``--users`` / ``--days``
options control the scale) replayed through the simulated U1 back-end.  The
dataset is built once per benchmark session and shared across benchmarks; each
benchmark then times its analysis and prints the rows/series the paper
reports, side by side with the published values where applicable.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(_SRC))

from repro.backend.cluster import ClusterConfig, U1Cluster  # noqa: E402
from repro.workload.config import WorkloadConfig  # noqa: E402
from repro.workload.generator import SyntheticTraceGenerator  # noqa: E402


# The --repro-users / --repro-days / --repro-seed options are registered by
# the repository-root conftest so they work for whole-tree runs too.


@pytest.fixture(scope="session")
def workload_config(request) -> WorkloadConfig:
    """The workload configuration used by every benchmark."""
    return WorkloadConfig.scaled(
        users=request.config.getoption("--repro-users"),
        days=request.config.getoption("--repro-days"),
        seed=request.config.getoption("--repro-seed"),
    )


@pytest.fixture(scope="session")
def cluster(workload_config) -> U1Cluster:
    """The simulated back-end the benchmark workload was replayed through."""
    return U1Cluster(ClusterConfig(seed=workload_config.seed))


@pytest.fixture(scope="session")
def dataset(workload_config, cluster):
    """The synthetic month: workload generated and replayed once per session."""
    generator = SyntheticTraceGenerator(workload_config)
    return cluster.replay_plan(generator.plan())


@pytest.fixture(scope="session")
def workload_plan(workload_config):
    """The benchmark workload's plan, replayed afresh by the ablations.

    The ablations replay it at ``n_jobs=2``: the trace is identical at any
    worker count, and the shard workers materialize their members in
    parallel.
    """
    return SyntheticTraceGenerator(workload_config).plan()


def print_rows(title: str, rows: list[tuple[str, str, str]]) -> None:
    """Print a (metric, paper, measured) table under a banner."""
    print()
    print(f"== {title} " + "=" * max(1, 68 - len(title)))
    width = max(len(label) for label, _, _ in rows)
    print(f"{'metric':<{width}}  {'paper':>14}  {'measured':>14}")
    for label, paper, measured in rows:
        print(f"{label:<{width}}  {paper:>14}  {measured:>14}")


def print_series(title: str, header: list[str], rows: list[tuple]) -> None:
    """Print a free-form series table under a banner."""
    print()
    print(f"== {title} " + "=" * max(1, 68 - len(title)))
    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        print("  ".join(f"{str(v):>14}" for v in row))
