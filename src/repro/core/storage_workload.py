"""Macroscopic storage workload (Section 5.1, Fig. 2).

Three analyses:

* **Fig. 2a** — time series of uploaded/downloaded GBytes per hour over the
  trace, exhibiting strong daily patterns (day-time activity up to 10x the
  night-time trough).
* **Fig. 2b** — fraction of transferred data and of storage operations per
  file-size category: a very small number of large (> 25 MB) files consumes
  ~80-90 % of the traffic while ~85-90 % of operations involve small
  (< 0.5 MB) files.
* **Fig. 2c** — hourly read/write (download/upload) byte ratio: slightly
  read-dominated (median ~1.14), highly variable within a day (up to 8x) and
  autocorrelated over time (working-habit patterns), plus the share of
  upload operations/traffic caused by file updates (10 % of operations but
  18.5 % of bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.util.stats import BoxplotSummary, autocorrelation, boxplot_summary
from repro.util.timebin import binned_sums
from repro.util.units import HOUR, MB

__all__ = [
    "TrafficTimeSeries",
    "traffic_timeseries",
    "SizeCategoryBreakdown",
    "SIZE_CATEGORIES_MB",
    "traffic_by_size_category",
    "RwRatioAnalysis",
    "rw_ratio_analysis",
    "UpdateTrafficShare",
    "update_traffic_share",
]


# ---------------------------------------------------------------------------
# Fig. 2a — traffic time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficTimeSeries:
    """Hourly upload/download traffic (bytes per bin)."""

    bin_edges: np.ndarray
    upload_bytes: np.ndarray
    download_bytes: np.ndarray
    bin_width: float

    def peak_to_trough(self, series: np.ndarray | None = None) -> float:
        """Ratio between the busiest and the quietest non-empty bin."""
        values = self.upload_bytes if series is None else series
        positive = values[values > 0]
        if positive.size == 0:
            return 1.0
        return float(positive.max() / positive.min())

    def daily_pattern(self, series: np.ndarray | None = None) -> np.ndarray:
        """Average traffic per hour of day (24 values), for the daily shape."""
        values = self.upload_bytes if series is None else series
        hours_per_day = int(round(86400 / self.bin_width))
        pattern = np.zeros(hours_per_day)
        counts = np.zeros(hours_per_day)
        for i, value in enumerate(values):
            pattern[i % hours_per_day] += value
            counts[i % hours_per_day] += 1
        counts[counts == 0] = 1
        return pattern / counts


def traffic_timeseries(dataset: TraceDataset, bin_width: float = HOUR,
                       include_attacks: bool = False) -> TrafficTimeSeries:
    """Compute the Fig. 2a hourly traffic series."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    binner = dataset.span_binner(bin_width)
    # Columnar fast path: operation-code masks over the cached bin column.
    bins = source.storage_bins(binner)
    sizes = source.storage_column("size_bytes")
    codes = source.storage_column("operation")
    uploads = binned_sums(binner, bins, sizes,
                          codes == OPERATION_CODE[ApiOperation.UPLOAD])
    downloads = binned_sums(binner, bins, sizes,
                            codes == OPERATION_CODE[ApiOperation.DOWNLOAD])
    return TrafficTimeSeries(bin_edges=binner.edges(), upload_bytes=uploads,
                             download_bytes=downloads, bin_width=bin_width)


# ---------------------------------------------------------------------------
# Fig. 2b — traffic vs file-size category
# ---------------------------------------------------------------------------

#: File-size categories of Fig. 2b, in MBytes: (< 0.5), (0.5-1), (1-5),
#: (5-25), (> 25).
SIZE_CATEGORIES_MB: tuple[tuple[float, float], ...] = (
    (0.0, 0.5), (0.5, 1.0), (1.0, 5.0), (5.0, 25.0), (25.0, float("inf")),
)


@dataclass(frozen=True)
class SizeCategoryBreakdown:
    """Per-size-category shares of operations and traffic (Fig. 2b)."""

    categories: tuple[str, ...]
    upload_operation_share: np.ndarray
    download_operation_share: np.ndarray
    upload_traffic_share: np.ndarray
    download_traffic_share: np.ndarray

    def rows(self) -> list[tuple[str, float, float, float, float]]:
        """One row per category: (label, up ops, down ops, up bytes, down bytes)."""
        return [
            (label,
             float(self.upload_operation_share[i]),
             float(self.download_operation_share[i]),
             float(self.upload_traffic_share[i]),
             float(self.download_traffic_share[i]))
            for i, label in enumerate(self.categories)
        ]


def _category_label(low: float, high: float) -> str:
    if high == float("inf"):
        return f">{low:g}MB"
    if low == 0.0:
        return f"<{high:g}MB"
    return f"{low:g}-{high:g}MB"


def _share_by_category(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-size-category shares from a size_bytes array."""
    n_categories = len(SIZE_CATEGORIES_MB)
    edges = np.asarray([high * MB for _, high in SIZE_CATEGORIES_MB[:-1]])
    category = np.searchsorted(edges, sizes, side="right")
    ops = np.bincount(category, minlength=n_categories).astype(float)
    traffic = np.bincount(category, weights=sizes, minlength=n_categories)
    ops_total = ops.sum() or 1.0
    traffic_total = traffic.sum() or 1.0
    return ops / ops_total, traffic / traffic_total


def traffic_by_size_category(dataset: TraceDataset,
                             include_attacks: bool = False) -> SizeCategoryBreakdown:
    """Compute the Fig. 2b shares of operations and traffic by file size."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    codes = source.storage_column("operation")
    sizes = source.storage_column("size_bytes").astype(float)
    up = codes == OPERATION_CODE[ApiOperation.UPLOAD]
    down = codes == OPERATION_CODE[ApiOperation.DOWNLOAD]
    upload_ops, upload_traffic = _share_by_category(sizes[up])
    download_ops, download_traffic = _share_by_category(sizes[down])
    labels = tuple(_category_label(low, high) for low, high in SIZE_CATEGORIES_MB)
    return SizeCategoryBreakdown(
        categories=labels,
        upload_operation_share=upload_ops,
        download_operation_share=download_ops,
        upload_traffic_share=upload_traffic,
        download_traffic_share=download_traffic,
    )


# ---------------------------------------------------------------------------
# Fig. 2c — R/W ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RwRatioAnalysis:
    """Hourly R/W (download/upload) byte ratios and their autocorrelation."""

    ratios: np.ndarray
    boxplot: BoxplotSummary
    acf: np.ndarray
    confidence_bound: float

    @property
    def median(self) -> float:
        """Median hourly R/W ratio (the paper reports 1.14)."""
        return self.boxplot.median

    @property
    def mean(self) -> float:
        """Mean hourly R/W ratio (the paper reports 1.17)."""
        return self.boxplot.mean

    def significant_lags(self) -> int:
        """Number of lags (>0) whose ACF exceeds the 95 % confidence bound."""
        return int(np.sum(np.abs(self.acf[1:]) > self.confidence_bound))

    def is_correlated(self) -> bool:
        """True when well over 5 % of lags fall outside the confidence bound."""
        n_lags = max(len(self.acf) - 1, 1)
        return self.significant_lags() > 0.15 * n_lags


def rw_ratio_analysis(dataset: TraceDataset, bin_width: float = HOUR,
                      max_lag: int | None = None,
                      include_attacks: bool = False,
                      min_bytes: float = 0.0,
                      series: TrafficTimeSeries | None = None) -> RwRatioAnalysis:
    """Compute the Fig. 2c R/W ratio boxplot and autocorrelation.

    ``min_bytes`` excludes bins where either direction moved fewer bytes than
    the threshold: at laptop scale a nearly idle hour (a few KB uploaded
    against a large download) would otherwise produce meaningless ratio
    outliers that the full-scale trace never exhibits.  ``series`` is the
    Fig. 2a :func:`traffic_timeseries` of ``dataset`` at the same
    ``bin_width`` and ``include_attacks``, when the caller already has it.
    """
    if series is None:
        series = traffic_timeseries(dataset, bin_width=bin_width,
                                    include_attacks=include_attacks)
    mask = (series.upload_bytes > min_bytes) & (series.download_bytes > min_bytes)
    ratios = series.download_bytes[mask] / series.upload_bytes[mask]
    if ratios.size < 3:
        raise ValueError("not enough busy hours to analyse the R/W ratio")
    acf = autocorrelation(ratios, max_lag=max_lag)
    bound = 2.0 / np.sqrt(ratios.size)
    return RwRatioAnalysis(ratios=ratios, boxplot=boxplot_summary(ratios),
                           acf=acf, confidence_bound=bound)


# ---------------------------------------------------------------------------
# Update traffic share (Section 5.1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateTrafficShare:
    """Share of upload operations and bytes caused by file updates."""

    update_operations: int
    total_operations: int
    update_bytes: int
    total_bytes: int

    @property
    def operation_share(self) -> float:
        """Fraction of uploads that are updates (paper: 10.05 %)."""
        return self.update_operations / self.total_operations if self.total_operations else 0.0

    @property
    def traffic_share(self) -> float:
        """Fraction of upload bytes caused by updates (paper: 18.47 %)."""
        return self.update_bytes / self.total_bytes if self.total_bytes else 0.0


def update_traffic_share(dataset: TraceDataset,
                         include_attacks: bool = False) -> UpdateTrafficShare:
    """Quantify how much upload traffic is due to updates of existing files."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    upload_mask = (source.storage_column("operation")
                   == OPERATION_CODE[ApiOperation.UPLOAD])
    update_mask = upload_mask & source.storage_column("is_update")
    sizes = source.storage_column("size_bytes")
    return UpdateTrafficShare(
        update_operations=int(update_mask.sum()),
        total_operations=int(upload_mask.sum()),
        update_bytes=int(sizes[update_mask].sum()),
        total_bytes=int(sizes[upload_mask].sum()),
    )
