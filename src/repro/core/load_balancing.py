"""Load balancing across API servers and metadata shards (Section 7.2, Fig. 14).

The paper groups the processed API operations by physical machine (per hour)
and the RPC calls by metadata shard (per minute) and finds that, in short or
moderate windows, the load is far from evenly balanced: the standard
deviation across servers/shards is large relative to the mean, because user
load is uneven, operation costs are asymmetric and users behave in bursts.
Over the whole trace the imbalance largely disappears (the standard
deviation across shards is only ~4.9 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.util.distinct import distinct
from repro.util.timebin import TimeBinner
from repro.util.units import HOUR, MINUTE

__all__ = ["LoadBalanceSeries", "api_server_load", "shard_load"]


@dataclass(frozen=True)
class LoadBalanceSeries:
    """Per-bin request counts for a set of servers/shards (Fig. 14)."""

    entities: tuple[str, ...]
    bin_edges: np.ndarray
    #: Matrix of shape (n_entities, n_bins): requests per entity per bin.
    counts: np.ndarray
    bin_width: float

    @property
    def n_entities(self) -> int:
        """Number of servers or shards."""
        return len(self.entities)

    def mean_per_bin(self) -> np.ndarray:
        """Mean load across entities, per bin."""
        return self.counts.mean(axis=0)

    def std_per_bin(self) -> np.ndarray:
        """Standard deviation of the load across entities, per bin."""
        return self.counts.std(axis=0)

    def coefficient_of_variation_per_bin(self) -> np.ndarray:
        """Std/mean across entities per bin (NaN-free; 0 where mean is 0)."""
        mean = self.mean_per_bin()
        std = self.std_per_bin()
        cv = np.zeros_like(mean)
        mask = mean > 0
        cv[mask] = std[mask] / mean[mask]
        return cv

    def short_window_imbalance(self) -> float:
        """Mean coefficient of variation over non-empty bins."""
        cv = self.coefficient_of_variation_per_bin()
        busy = self.mean_per_bin() > 0
        if not np.any(busy):
            return 0.0
        return float(cv[busy].mean())

    def long_term_imbalance(self) -> float:
        """Coefficient of variation of the whole-trace totals per entity.

        The paper reports ~4.9 % across shards when the whole trace is taken.
        """
        totals = self.counts.sum(axis=1)
        mean = totals.mean()
        if mean == 0:
            return 0.0
        return float(totals.std() / mean)


def _build_series(entities: list[str], binner: TimeBinner,
                  streams: list[tuple[np.ndarray, np.ndarray]]) -> LoadBalanceSeries:
    """Vectorised (entity x bin) histogram.

    ``streams`` holds one ``(rows, bins)`` pair per record stream: per
    event, the row index of its entity in ``entities`` (or -1 for entities
    not configured) and its cached bin index (-1 out of range).  Each
    stream's (row, bin) pairs are counted in one ``np.bincount`` over a
    flattened index.
    """
    n_bins = binner.n_bins
    size = len(entities) * n_bins
    counts = np.zeros(size, dtype=np.int64)
    for rows, bins in streams:
        keep = (rows >= 0) & (bins >= 0)
        flat = rows[keep].astype(np.intp) * n_bins + bins[keep]
        counts += np.bincount(flat, minlength=size)
    return LoadBalanceSeries(entities=tuple(entities), bin_edges=binner.edges(),
                             counts=counts.reshape(len(entities), n_bins)
                             .astype(float),
                             bin_width=binner.width)


def api_server_load(dataset: TraceDataset, bin_width: float = HOUR,
                    by_machine: bool = True,
                    include_attacks: bool = True) -> LoadBalanceSeries:
    """Requests per API server (physical machine) per hour (Fig. 14, top)."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    binner = dataset.span_binner(bin_width)
    storage_codes, storage_cats = source.storage_codes("server")
    session_codes, session_cats = source.session_codes("server")
    if by_machine:
        labels_per_stream = [list(storage_cats), list(session_cats)]
        code_arrays = [storage_codes, session_codes]
    else:
        # Entity = server/process: fold the (small) process number into the
        # factorised server code, then keep only the combinations actually
        # observed (the cross product would fabricate zero-count entities).
        labels_per_stream = []
        code_arrays = []
        for stream_codes, cats, processes in (
                (storage_codes, storage_cats, source.storage_column("process")),
                (session_codes, session_cats, source.session_column("process"))):
            n_proc = int(processes.max()) + 1 if processes.size else 1
            combined = stream_codes.astype(np.int64) * n_proc + processes
            observed, inverse = np.unique(combined, return_inverse=True)
            labels_per_stream.append(
                [f"{cats[code // n_proc]}/{code % n_proc}"
                 for code in observed.tolist()])
            code_arrays.append(inverse)
    # Merge the two streams' code spaces into one sorted entity list.
    ordered = sorted(set().union(*labels_per_stream))
    row_of_label = {label: row for row, label in enumerate(ordered)}
    streams = []
    for cats, codes, bins in zip(labels_per_stream, code_arrays,
                                 (source.storage_bins(binner),
                                  source.session_bins(binner))):
        row_of = np.fromiter(map(row_of_label.__getitem__, cats),
                             dtype=np.intp, count=len(cats))
        streams.append((row_of[codes], bins))
    return _build_series(ordered, binner, streams)


def shard_load(dataset: TraceDataset, bin_width: float = MINUTE,
               n_shards: int | None = None,
               include_attacks: bool = True) -> LoadBalanceSeries:
    """RPC calls per metadata shard per minute (Fig. 14, bottom)."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    binner = dataset.span_binner(bin_width)
    shard_ids = source.rpc_column("shard_id")
    if shard_ids.size == 0 and n_shards is None:
        raise ValueError("no RPC records in the dataset; run the back-end "
                         "simulator to obtain shard-level load")
    max_shard = int(shard_ids.max()) if shard_ids.size else -1
    if n_shards is not None:
        entities = [f"shard-{i}" for i in range(n_shards)]
        rows = np.where(shard_ids < n_shards, shard_ids, -1)
    else:
        present = distinct(shard_ids)
        labels = [f"shard-{i}" for i in present.tolist()]
        order = sorted(range(len(labels)), key=lambda i: labels[i])
        entities = [labels[i] for i in order]
        row_of = np.full(max_shard + 1, -1, dtype=np.intp)
        for row, idx in enumerate(order):
            row_of[present[idx]] = row
        rows = row_of[shard_ids]
    return _build_series(entities, binner, [(rows, source.rpc_bins(binner))])
