"""User volumes: contents and types (Section 6.3, Figs. 10 and 11).

* **Fig. 10** — files vs directories within user volumes: files are much more
  numerous than directories, the two counts are strongly correlated
  (Pearson ~0.998) and a small fraction of volumes is heavily loaded (5 % of
  volumes hold more than 1,000 files).
* **Fig. 11** — distribution of user-defined (UDF) and shared volumes across
  users: 58 % of users created at least one UDF but only 1.8 % have a shared
  volume — U1 was used as personal storage rather than for collaboration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import (
    NODE_KIND_CODE,
    OPERATION_CODE,
    VOLUME_TYPE_CODE,
    TraceDataset,
)
from repro.trace.records import ApiOperation, NodeKind, VolumeType
from repro.util.distinct import distinct, distinct_pairs
from repro.util.stats import pearson_correlation

__all__ = [
    "VolumeContents",
    "volume_contents",
    "VolumeTypeDistribution",
    "volume_type_distribution",
]


@dataclass(frozen=True)
class VolumeContents:
    """Files and directories per volume (Fig. 10)."""

    files_per_volume: dict[int, int]
    directories_per_volume: dict[int, int]

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Aligned arrays of (files, directories) per volume."""
        volumes = sorted(set(self.files_per_volume) | set(self.directories_per_volume))
        files = np.asarray([self.files_per_volume.get(v, 0) for v in volumes], dtype=float)
        dirs = np.asarray([self.directories_per_volume.get(v, 0) for v in volumes],
                          dtype=float)
        return files, dirs

    def correlation(self) -> float:
        """Pearson correlation between files and directories per volume."""
        files, dirs = self.counts()
        if files.size < 2:
            return 0.0
        return pearson_correlation(files, dirs)

    def share_with_files(self) -> float:
        """Fraction of volumes containing at least one file (paper: >60 %)."""
        files, _ = self.counts()
        if files.size == 0:
            return 0.0
        return float(np.mean(files > 0))

    def share_heavily_loaded(self, threshold: int = 1000) -> float:
        """Fraction of volumes holding more than ``threshold`` files."""
        files, _ = self.counts()
        if files.size == 0:
            return 0.0
        return float(np.mean(files > threshold))


def volume_contents(dataset: TraceDataset,
                    include_attacks: bool = False) -> VolumeContents:
    """Reconstruct per-volume file/directory counts from storage records.

    A node is attributed to the volume it was last seen in; only nodes that
    were referenced by at least one operation in the trace are counted
    (exactly what the back-end logs allow).
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: attribute each node to its last-seen volume via the
    # reversed-unique trick, then count files/dirs per volume with bincounts.
    volume_ids = source.storage_column("volume_id")
    node_ids = source.storage_column("node_id")
    volumes = distinct(volume_ids[volume_ids != 0])
    files: dict[int, int] = {int(v): 0 for v in volumes.tolist()}
    dirs: dict[int, int] = {int(v): 0 for v in volumes.tolist()}
    node_mask = node_ids != 0
    nodes = node_ids[node_mask]
    if nodes.size:
        node_volumes = volume_ids[node_mask]
        node_kinds = source.storage_column("node_kind")[node_mask]
        reversed_nodes = nodes[::-1]
        _, first_in_reversed = np.unique(reversed_nodes, return_index=True)
        last = (nodes.size - 1) - first_in_reversed
        last_volumes = node_volumes[last]
        is_dir = node_kinds[last] == NODE_KIND_CODE[NodeKind.DIRECTORY]
        for volume_array, target in ((last_volumes[is_dir], dirs),
                                     (last_volumes[~is_dir], files)):
            present, counts = np.unique(volume_array, return_counts=True)
            for volume_id, count in zip(present.tolist(), counts.tolist()):
                target[int(volume_id)] = target.get(int(volume_id), 0) + int(count)
    return VolumeContents(files_per_volume=files, directories_per_volume=dirs)


@dataclass(frozen=True)
class VolumeTypeDistribution:
    """UDF / shared volumes per user (Fig. 11)."""

    udf_volumes_per_user: dict[int, int]
    shared_volumes_per_user: dict[int, int]
    total_users: int

    def share_with_udf(self) -> float:
        """Fraction of users with at least one UDF volume (paper: 58 %)."""
        with_udf = sum(1 for count in self.udf_volumes_per_user.values() if count > 0)
        return with_udf / self.total_users if self.total_users else 0.0

    def share_with_shared(self) -> float:
        """Fraction of users with at least one shared volume (paper: 1.8 %)."""
        with_shared = sum(1 for count in self.shared_volumes_per_user.values() if count > 0)
        return with_shared / self.total_users if self.total_users else 0.0


def volume_type_distribution(dataset: TraceDataset,
                             include_attacks: bool = False) -> VolumeTypeDistribution:
    """Count distinct UDF/shared volumes referenced per user (Fig. 11)."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: deduplicate (user, volume) pairs per class with one
    # sort over a packed key, then count distinct volumes per user.
    volume_ids = source.storage_column("volume_id")
    users = source.storage_column("user_id")
    types = source.storage_column("volume_type")
    ops = source.storage_column("operation")
    has_volume = volume_ids != 0
    udf_mask = has_volume & ((types == VOLUME_TYPE_CODE[VolumeType.UDF])
                             | (ops == OPERATION_CODE[ApiOperation.CREATE_UDF]))
    shared_mask = has_volume & ~udf_mask \
        & (types == VOLUME_TYPE_CODE[VolumeType.SHARED])

    def distinct_per_user(mask: np.ndarray) -> dict[int, int]:
        if not mask.any():
            return {}
        pairs = distinct_pairs(users[mask], volume_ids[mask])
        distinct_users, counts = np.unique(pairs[:, 0], return_counts=True)
        return {int(u): int(c)
                for u, c in zip(distinct_users.tolist(), counts.tolist())}

    return VolumeTypeDistribution(
        udf_volumes_per_user=distinct_per_user(udf_mask),
        shared_volumes_per_user=distinct_per_user(shared_mask),
        total_users=len(source.user_ids()),
    )
