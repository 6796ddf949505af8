"""File operation dependencies (Section 5.2, Fig. 3a/3b).

A file in U1 can be written (uploaded), read (downloaded) and eventually
deleted.  The paper studies the dependencies between consecutive operations
on the same file:

* after a **write**: WAW (write-after-write) is the most common dependency —
  users repeatedly update synchronised files (documents, code) — and 80 % of
  WAW gaps are shorter than one hour; RAW captures device synchronisation
  right after a write; DAW captures short-lived files.
* after a **read**: RAR dominates (popular files are read repeatedly, with a
  long tail of downloads per file that motivates caching); WAR is the least
  common (files that are read tend not to be updated again).
* around 9 % of all files are unused for more than a day before being
  deleted ("dying files"), motivating warm/cold storage tiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.util.stats import EmpiricalCDF
from repro.util.units import DAY

__all__ = [
    "Dependency",
    "DependencyAnalysis",
    "file_dependencies",
    "downloads_per_file",
    "dying_files",
]


class Dependency(str, enum.Enum):
    """The six inter-operation dependencies of Fig. 3."""

    WAW = "WAW"
    RAW = "RAW"
    DAW = "DAW"
    WAR = "WAR"
    RAR = "RAR"
    DAR = "DAR"


_OP_KIND = {
    ApiOperation.UPLOAD: "W",
    ApiOperation.DOWNLOAD: "R",
    ApiOperation.UNLINK: "D",
}

#: Small integer codes of the W/R/D kinds used by the vectorised fast paths.
_KIND_WRITE, _KIND_READ, _KIND_DELETE = 0, 1, 2
_KIND_OF_LETTER = {"W": _KIND_WRITE, "R": _KIND_READ, "D": _KIND_DELETE}


def _rwd_sorted(source: TraceDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W/R/D storage records with a node id, sorted by ``(node, timestamp)``.

    Returns ``(node_ids, timestamps, kind_codes)``; ties keep insertion
    order (stable lexsort), so each node's operations stay in trace order.
    """
    op_codes = source.storage_column("operation")
    node_ids = source.storage_column("node_id")
    kind_by_code = np.full(len(ApiOperation), -1, dtype=np.int8)
    for operation, letter in _OP_KIND.items():
        kind_by_code[OPERATION_CODE[operation]] = _KIND_OF_LETTER[letter]
    kinds = kind_by_code[op_codes]
    mask = (kinds >= 0) & (node_ids != 0)
    node_ids = node_ids[mask]
    timestamps = source.storage_column("timestamp")[mask]
    kinds = kinds[mask].astype(np.int64)
    order = np.lexsort((timestamps, node_ids))
    return node_ids[order], timestamps[order], kinds[order]


@dataclass(frozen=True)
class DependencyAnalysis:
    """Inter-operation times grouped by dependency type."""

    times: dict[Dependency, np.ndarray]

    def count(self, dependency: Dependency) -> int:
        """Number of observed pairs of the given dependency."""
        return int(self.times[dependency].size)

    def total_after_write(self) -> int:
        """Total number of X-after-Write pairs."""
        return sum(self.count(d) for d in (Dependency.WAW, Dependency.RAW, Dependency.DAW))

    def total_after_read(self) -> int:
        """Total number of X-after-Read pairs."""
        return sum(self.count(d) for d in (Dependency.WAR, Dependency.RAR, Dependency.DAR))

    def share_after_write(self, dependency: Dependency) -> float:
        """Share of a dependency among the X-after-Write pairs."""
        total = self.total_after_write()
        return self.count(dependency) / total if total else 0.0

    def share_after_read(self, dependency: Dependency) -> float:
        """Share of a dependency among the X-after-Read pairs."""
        total = self.total_after_read()
        return self.count(dependency) / total if total else 0.0

    def cdf(self, dependency: Dependency) -> EmpiricalCDF:
        """Empirical CDF of the inter-operation times of a dependency."""
        values = self.times[dependency]
        if values.size == 0:
            raise ValueError(f"no samples for dependency {dependency.value}")
        return EmpiricalCDF(values)

    def fraction_within(self, dependency: Dependency, seconds: float) -> float:
        """Fraction of gaps of ``dependency`` shorter than ``seconds``."""
        values = self.times[dependency]
        if values.size == 0:
            return 0.0
        return float(np.mean(values <= seconds))


def file_dependencies(dataset: TraceDataset,
                      include_attacks: bool = False) -> DependencyAnalysis:
    """Extract every consecutive-operation dependency per file (Fig. 3a/3b)."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: keep W/R/D records with a node id, order them by
    # (node, timestamp) and classify each same-node consecutive pair.
    nodes, timestamps, kinds = _rwd_sorted(source)
    times: dict[Dependency, np.ndarray] = {}
    if nodes.size < 2:
        return DependencyAnalysis(times={d: np.empty(0) for d in Dependency})
    same_node = nodes[1:] == nodes[:-1]
    prev_kind = kinds[:-1]
    next_kind = kinds[1:]
    gaps = np.maximum(timestamps[1:] - timestamps[:-1], 0.0)
    valid = same_node & (prev_kind != _KIND_DELETE)
    pair_code = prev_kind[valid] * 3 + next_kind[valid]
    pair_gaps = gaps[valid]
    for dependency in Dependency:
        # Dependency "XAY" = next kind X after previous kind Y.
        code = _KIND_OF_LETTER[dependency.value[2]] * 3 \
            + _KIND_OF_LETTER[dependency.value[0]]
        times[dependency] = pair_gaps[pair_code == code]
    return DependencyAnalysis(times=times)


def downloads_per_file(dataset: TraceDataset,
                       include_attacks: bool = False) -> np.ndarray:
    """Number of downloads observed per file (inner plot of Fig. 3b).

    The distribution has a long tail: a small fraction of files is very
    popular, which motivates server-side caching.
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    mask = ((source.storage_column("operation")
             == OPERATION_CODE[ApiOperation.DOWNLOAD])
            & (source.storage_column("node_id") != 0))
    _, counts = np.unique(source.storage_column("node_id")[mask],
                          return_counts=True)
    return np.sort(counts).astype(float)


@dataclass(frozen=True)
class DyingFilesReport:
    """Files unused for a long period before their deletion (Section 5.2)."""

    dying_files: int
    deleted_files: int
    observed_files: int

    @property
    def share_of_all_files(self) -> float:
        """Dying files as a fraction of all observed files (paper: ~9.1 %)."""
        return self.dying_files / self.observed_files if self.observed_files else 0.0


def dying_files(dataset: TraceDataset, idle_threshold: float = DAY,
                include_attacks: bool = False) -> DyingFilesReport:
    """Count files that sat unused for ``idle_threshold`` before deletion."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    nodes, timestamps, kinds = _rwd_sorted(source)
    if nodes.size == 0:
        return DyingFilesReport(dying_files=0, deleted_files=0, observed_files=0)
    # Last relevant record of each node = position before a node change.
    last_of_node = np.empty(nodes.size, dtype=bool)
    last_of_node[:-1] = nodes[1:] != nodes[:-1]
    last_of_node[-1] = True
    observed = int(last_of_node.sum())
    deleted_mask = last_of_node & (kinds == _KIND_DELETE)
    deleted = int(deleted_mask.sum())
    # A "dying" file also has a previous record of the same node and sat
    # idle longer than the threshold before the final unlink.
    positions = np.flatnonzero(deleted_mask)
    has_prev = positions > 0
    positions = positions[has_prev]
    same_node_prev = nodes[positions - 1] == nodes[positions]
    idle = timestamps[positions] - timestamps[positions - 1]
    dying = int(np.sum(same_node_prev & (idle > idle_threshold)))
    return DyingFilesReport(dying_files=dying, deleted_files=deleted,
                            observed_files=observed)
