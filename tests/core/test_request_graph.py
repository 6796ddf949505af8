"""Tests for the Fig. 8 request transition graph."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core.request_graph import build_transition_graph
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    sequence = [ApiOperation.LIST_VOLUMES, ApiOperation.LIST_SHARES,
                ApiOperation.MAKE, ApiOperation.UPLOAD, ApiOperation.UPLOAD,
                ApiOperation.DOWNLOAD]
    for i, op in enumerate(sequence):
        storage.append(make_storage(timestamp=i * 10, user_id=1, node_id=i + 1,
                                    operation=op))
    # A second user (own session) with a single operation: no transitions.
    storage.append(make_storage(timestamp=0, user_id=2, node_id=99,
                                session_id=2, operation=ApiOperation.DOWNLOAD))
    return TraceDataset(storage=storage)


def _conditional(graph, source: ApiOperation, target: ApiOperation) -> float:
    """P(next op is ``target`` | current op is ``source``) from the counts."""
    outgoing = sum(count for (src, _), count in graph.counts.items()
                   if src is source)
    return graph.counts.get((source, target), 0) / outgoing if outgoing else 0.0


class TestTransitionGraph:
    def test_transition_counts(self, crafted):
        graph = build_transition_graph(crafted)
        assert graph.total_transitions == 5
        assert graph.counts[(ApiOperation.MAKE, ApiOperation.UPLOAD)] == 1
        assert graph.counts[(ApiOperation.UPLOAD, ApiOperation.UPLOAD)] == 1

    def test_probabilities(self, crafted):
        graph = build_transition_graph(crafted)
        assert graph.probability(ApiOperation.MAKE, ApiOperation.UPLOAD) == pytest.approx(0.2)
        assert _conditional(graph, ApiOperation.UPLOAD,
                            ApiOperation.UPLOAD) == pytest.approx(0.5)
        assert graph.probability(ApiOperation.MOVE, ApiOperation.MOVE) == 0.0

    def test_transfer_repeat_probability(self, crafted):
        graph = build_transition_graph(crafted)
        # Transitions from transfers: U->U, U->D => both land on transfers.
        assert graph.transfer_repeat_probability() == pytest.approx(1.0)

    def test_top_transitions(self, crafted):
        graph = build_transition_graph(crafted)
        top = graph.top_transitions(3)
        assert len(top) == 3
        assert all(isinstance(p, float) for _, _, p in top)

    def test_networkx_export(self, crafted):
        digraph = build_transition_graph(crafted).to_networkx()
        assert isinstance(digraph, nx.DiGraph)
        assert digraph.has_edge("Make", "Upload")
        assert digraph["Make"]["Upload"]["weight"] == pytest.approx(0.2)

    def test_per_session_grouping(self, crafted):
        graph = build_transition_graph(crafted, per_session=True)
        assert graph.total_transitions == 5

    def test_empty_dataset(self):
        graph = build_transition_graph(TraceDataset())
        assert graph.total_transitions == 0
        assert graph.transfer_repeat_probability() == 0.0

    def test_simulated_dataset_matches_fig8_structure(self, simulated_dataset):
        graph = build_transition_graph(simulated_dataset)
        # After a transfer, the most likely next operation is another transfer.
        assert graph.transfer_repeat_probability() > 0.4
        # Within a session, Make strongly precedes Upload (the metadata entry
        # is created before the content upload); the user-centric aggregation
        # of Fig. 8 interleaves concurrent sessions, so the structural check
        # uses the per-session variant.  Since the PR 5 recalibration the
        # Make -> Upload coupling is *structural* — the compiled chain floors
        # the class upload bias on the Make row, so even download-leaning
        # profiles follow a file's metadata creation with its upload — and
        # the realised conditional sits at 0.60-0.73 across seeds at this
        # scale; the bound catches any return of the class-bias dilution
        # that used to push it below 0.2.
        per_session = build_transition_graph(simulated_dataset, per_session=True)
        assert _conditional(per_session, ApiOperation.MAKE,
                            ApiOperation.UPLOAD) > 0.40
        # The initialisation flow ListVolumes -> ListShares is visible.
        assert _conditional(per_session, ApiOperation.LIST_VOLUMES,
                            ApiOperation.LIST_SHARES) > 0.1


def test_networkx_is_imported_only_by_to_networkx():
    """Importing the pipeline and building a cluster never loads networkx."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys\n"
        "import repro.backend.cluster, repro.core.report, repro.faults.sweep\n"
        "import repro.trace.validate, repro.whatif.sweep\n"
        "import repro.workload.generator\n"
        "from repro.backend.cluster import ClusterConfig, U1Cluster\n"
        "U1Cluster(ClusterConfig(seed=1))\n"
        "print('networkx' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.strip() == "False"
