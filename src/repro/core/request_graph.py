"""The user-centric request transition graph (Section 6.2, Fig. 8).

Fig. 8 aggregates, per user, the sequence of API operations issued by the
desktop client and draws the transition graph: nodes are operations, edges
are transitions with their global probabilities.  The striking structure is
that transfers repeat (after a transfer the most likely next operation is
another transfer — directory-level synchronisation and repeated file edits),
Make and Upload interleave, and the Authenticate → ListVolumes → ListShares
flow marks session initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["TransitionGraph", "build_transition_graph"]


@dataclass(frozen=True)
class TransitionGraph:
    """Operation-transition statistics and the resulting directed graph."""

    counts: dict[tuple[ApiOperation, ApiOperation], int]
    total_transitions: int

    def probability(self, source: ApiOperation, target: ApiOperation) -> float:
        """Global probability of the (source → target) transition."""
        if self.total_transitions == 0:
            return 0.0
        return self.counts.get((source, target), 0) / self.total_transitions

    def top_transitions(self, n: int = 10) -> list[tuple[ApiOperation, ApiOperation, float]]:
        """The ``n`` most frequent transitions with global probabilities."""
        ordered = sorted(self.counts.items(), key=lambda item: item[1], reverse=True)
        return [(src, dst, count / self.total_transitions)
                for (src, dst), count in ordered[:n]]

    def transfer_repeat_probability(self) -> float:
        """P(next op is a transfer | current op is a transfer).

        The paper highlights that after a transfer the next operation is very
        likely another transfer.
        """
        transfers = (ApiOperation.UPLOAD, ApiOperation.DOWNLOAD)
        numerator = sum(self.counts.get((a, b), 0) for a in transfers for b in transfers)
        denominator = sum(count for (a, _), count in self.counts.items() if a in transfers)
        return numerator / denominator if denominator else 0.0

    def to_networkx(self, min_probability: float = 0.0) -> "nx.DiGraph":
        """Build a :class:`networkx.DiGraph` with probability-weighted edges.

        networkx is imported here, not at module import: nothing else in the
        package needs it, and loading it costs every run ~0.2 s and ~14 MB.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for (source, target), count in self.counts.items():
            probability = count / self.total_transitions if self.total_transitions else 0.0
            if probability < min_probability:
                continue
            graph.add_edge(source.value, target.value,
                           weight=probability, count=count)
        return graph


def build_transition_graph(dataset: TraceDataset,
                           include_attacks: bool = False,
                           per_session: bool = False) -> TransitionGraph:
    """Aggregate per-user operation sequences into the Fig. 8 graph.

    With ``per_session=True`` transitions are only counted within a session
    (the sequence restarts at every new session), which is closer to how a
    desktop client behaves; the default aggregates per user across sessions
    exactly like the figure ("user-centric").
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: order records by (group key, timestamp), pair each
    # record with its successor inside the same group, and count the
    # (previous op, next op) code pairs in one bincount.
    key_column = "session_id" if per_session else "user_id"
    keys = source.storage_column(key_column)
    if keys.size < 2:
        return TransitionGraph(counts={}, total_transitions=0)
    timestamps = source.storage_column("timestamp")
    op_codes = source.storage_column("operation").astype(np.int64)
    order = np.lexsort((timestamps, keys))
    keys_sorted = keys[order]
    ops_sorted = op_codes[order]
    same_group = keys_sorted[1:] == keys_sorted[:-1]
    n_ops = len(ApiOperation)
    pair_codes = ops_sorted[:-1][same_group] * n_ops + ops_sorted[1:][same_group]
    pair_counts = np.bincount(pair_codes, minlength=n_ops * n_ops)
    operations = list(ApiOperation)
    counts: dict[tuple[ApiOperation, ApiOperation], int] = {}
    for code in np.flatnonzero(pair_counts).tolist():
        counts[(operations[code // n_ops], operations[code % n_ops])] = \
            int(pair_counts[code])
    return TransitionGraph(counts=counts, total_transitions=int(pair_counts.sum()))
