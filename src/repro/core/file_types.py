"""File sizes per extension and file-type taxonomy (Section 5.3, Fig. 4b/4c).

* **Fig. 4b** — the overall file-size distribution (90 % of files below
  1 MB) and the per-extension size CDFs, which are very disparate:
  incompressible media/compressed files are much larger than code or
  documents.
* **Fig. 4c** — classifying the most popular extensions into 7 categories
  and plotting, for each category, its share of the number of files against
  its share of the consumed storage: Code holds the largest fraction of
  files but minimal storage, while Audio/Video dominates storage consumption
  despite being a small fraction of the files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.util.stats import EmpiricalCDF
from repro.util.units import MB
from repro.workload.filemodel import FILE_CATEGORIES, category_of_extension

__all__ = [
    "FileSizeAnalysis",
    "file_size_analysis",
    "CategoryShare",
    "category_shares",
]


@dataclass(frozen=True)
class FileSizeAnalysis:
    """Overall and per-extension file-size distributions (Fig. 4b)."""

    sizes_by_extension: dict[str, np.ndarray]
    all_sizes: np.ndarray

    @property
    def n_files(self) -> int:
        """Number of distinct uploaded files considered."""
        return int(self.all_sizes.size)

    def extension_cdf(self, extension: str) -> EmpiricalCDF:
        """CDF of the sizes of one extension."""
        sizes = self.sizes_by_extension.get(extension)
        if sizes is None or sizes.size == 0:
            raise ValueError(f"no files with extension {extension!r}")
        return EmpiricalCDF(sizes)

    def fraction_below(self, size_bytes: float) -> float:
        """Fraction of files smaller than ``size_bytes`` (paper: 90 % < 1 MB)."""
        if self.all_sizes.size == 0:
            return 0.0
        return float(np.mean(self.all_sizes < size_bytes))

    def median_size(self, extension: str | None = None) -> float:
        """Median size, overall or for one extension."""
        sizes = self.all_sizes if extension is None else self.sizes_by_extension.get(
            extension, np.empty(0))
        if sizes.size == 0:
            raise ValueError("no files observed")
        return float(np.median(sizes))


def _distinct_file_arrays(dataset: TraceDataset, include_attacks: bool):
    """Last observed (sizes, extension codes, categories) per uploaded node.

    Columnar: selects upload records with a node id and keeps, per node, the
    last occurrence in stream order (reversed-unique trick).
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    mask = ((source.storage_column("operation")
             == OPERATION_CODE[ApiOperation.UPLOAD])
            & (source.storage_column("node_id") != 0))
    nodes = source.storage_column("node_id")[mask]
    sizes = source.storage_column("size_bytes")[mask]
    ext_codes, ext_categories = source.storage_codes("extension")
    ext_codes = ext_codes[mask]
    if nodes.size == 0:
        return sizes.astype(float), ext_codes, ext_categories
    reversed_nodes = nodes[::-1]
    _, first_in_reversed = np.unique(reversed_nodes, return_index=True)
    last_positions = (nodes.size - 1) - first_in_reversed
    return (sizes[last_positions].astype(float), ext_codes[last_positions],
            ext_categories)


def file_size_analysis(dataset: TraceDataset,
                       include_attacks: bool = False) -> FileSizeAnalysis:
    """Compute the Fig. 4b file-size distributions from uploaded files."""
    all_sizes, ext_codes, categories = _distinct_file_arrays(dataset, include_attacks)
    by_extension: dict[str, np.ndarray] = {}
    for code, extension in enumerate(categories):
        sizes = all_sizes[ext_codes == code]
        if sizes.size:
            by_extension[extension] = sizes
    return FileSizeAnalysis(
        sizes_by_extension=by_extension,
        all_sizes=all_sizes,
    )


@dataclass(frozen=True)
class CategoryShare:
    """Fig. 4c point for one file category."""

    category: str
    file_share: float
    storage_share: float
    file_count: int
    storage_bytes: int


def category_shares(dataset: TraceDataset,
                    include_attacks: bool = False) -> dict[str, CategoryShare]:
    """Compute the Fig. 4c number-of-files vs storage-space shares."""
    sizes, ext_codes, categories = _distinct_file_arrays(dataset, include_attacks)
    counts: dict[str, int] = {c: 0 for c in FILE_CATEGORIES}
    storage: dict[str, int] = {c: 0 for c in FILE_CATEGORIES}
    category_index = {c: i for i, c in enumerate(FILE_CATEGORIES)}
    # extension code -> category row, computed once per distinct extension.
    row_of = np.asarray([category_index[category_of_extension(ext)]
                         for ext in categories], dtype=np.intp)
    if sizes.size:
        rows = row_of[ext_codes]
        count_rows = np.bincount(rows, minlength=len(FILE_CATEGORIES))
        byte_rows = np.bincount(rows, weights=sizes,
                                minlength=len(FILE_CATEGORIES))
        for category, i in category_index.items():
            counts[category] = int(count_rows[i])
            storage[category] = int(byte_rows[i])
    total_files = sum(counts.values()) or 1
    total_storage = sum(storage.values()) or 1
    return {
        category: CategoryShare(
            category=category,
            file_share=counts[category] / total_files,
            storage_share=storage[category] / total_storage,
            file_count=counts[category],
            storage_bytes=storage[category],
        )
        for category in counts
    }


