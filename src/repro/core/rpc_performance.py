"""RPC service-time analysis (Section 7.1, Figs. 12 and 13).

Fig. 12 plots the CDF of the service time of every RPC against the metadata
store, grouped into file-system management RPCs, upload-management RPCs and
other read-only RPCs; every distribution shows a long tail (7 %-22 % of
samples far from the median).  Fig. 13 is a scatter plot of median service
time against call frequency, with RPCs classified as read, write/update/
delete or cascade: reads are the fastest, cascades are more than an order of
magnitude slower but infrequent, and writes are as frequent as reads but
slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.trace.records import RpcClass, RpcName, rpc_class_of
from repro.util.stats import EmpiricalCDF, tail_fraction_beyond

__all__ = [
    "RpcServiceTimes",
    "rpc_service_times",
    "RpcScatterPoint",
    "rpc_scatter",
    "FIG12_GROUPS",
]


#: RPC grouping of Fig. 12a/12b/12c.
FIG12_GROUPS: dict[str, tuple[RpcName, ...]] = {
    "filesystem": (
        RpcName.CREATE_UDF, RpcName.DELETE_VOLUME, RpcName.GET_VOLUME_ID,
        RpcName.LIST_SHARES, RpcName.LIST_VOLUMES, RpcName.MAKE_DIR,
        RpcName.MAKE_FILE, RpcName.MOVE, RpcName.UNLINK_NODE, RpcName.GET_DELTA,
    ),
    "upload": (
        RpcName.ADD_PART_TO_UPLOADJOB, RpcName.DELETE_UPLOADJOB,
        RpcName.GET_REUSABLE_CONTENT, RpcName.GET_UPLOADJOB,
        RpcName.MAKE_CONTENT, RpcName.MAKE_UPLOADJOB,
        RpcName.SET_UPLOADJOB_MULTIPART_ID, RpcName.TOUCH_UPLOADJOB,
    ),
    "other": (
        RpcName.GET_USER_ID_FROM_TOKEN, RpcName.GET_FROM_SCRATCH,
        RpcName.GET_NODE, RpcName.GET_ROOT, RpcName.GET_USER_DATA,
    ),
}


@dataclass(frozen=True)
class RpcServiceTimes:
    """Service-time samples grouped per RPC name (Fig. 12)."""

    samples: dict[RpcName, np.ndarray]

    def observed_rpcs(self) -> list[RpcName]:
        """RPC names with at least one sample."""
        return [rpc for rpc, values in self.samples.items() if values.size > 0]

    def cdf(self, rpc: RpcName) -> EmpiricalCDF:
        """CDF of the service times of one RPC."""
        values = self.samples.get(rpc)
        if values is None or values.size == 0:
            raise ValueError(f"no samples for RPC {rpc.value}")
        return EmpiricalCDF(values)

    def median(self, rpc: RpcName) -> float:
        """Median service time of one RPC (seconds)."""
        values = self.samples.get(rpc)
        if values is None or values.size == 0:
            raise ValueError(f"no samples for RPC {rpc.value}")
        return float(np.median(values))

    def tail_fraction(self, rpc: RpcName, multiple_of_median: float = 10.0) -> float:
        """Fraction of samples beyond ``multiple_of_median`` x the median.

        The paper's notion of "very far from the median" (7 %-22 % of
        service times across RPCs).
        """
        values = self.samples.get(rpc)
        if values is None or values.size == 0:
            raise ValueError(f"no samples for RPC {rpc.value}")
        return tail_fraction_beyond(values, multiple_of_median)

    def group_samples(self, group: str) -> dict[RpcName, np.ndarray]:
        """Samples restricted to one Fig. 12 group."""
        if group not in FIG12_GROUPS:
            raise KeyError(f"unknown Fig. 12 group {group!r}")
        return {rpc: self.samples[rpc] for rpc in FIG12_GROUPS[group]
                if rpc in self.samples and self.samples[rpc].size > 0}

    def count(self, rpc: RpcName) -> int:
        """Number of calls observed for one RPC."""
        values = self.samples.get(rpc)
        return int(values.size) if values is not None else 0


def rpc_service_times(dataset: TraceDataset,
                      include_attacks: bool = True) -> RpcServiceTimes:
    """Group RPC service times per RPC name.

    Attack traffic is included by default: the back-end served it, so its
    RPCs are part of the measured performance.
    """
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: argsort the RPC code column once and split the
    # service-time column at the code boundaries.
    codes = source.rpc_column("rpc")
    times = source.rpc_column("service_time")
    if codes.size == 0:
        return RpcServiceTimes(samples={})
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_times = times[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    rpc_names = list(RpcName)
    samples = {
        rpc_names[int(chunk_codes[0])]: chunk_times
        for chunk_codes, chunk_times
        in zip(np.split(sorted_codes, boundaries), np.split(sorted_times, boundaries))
    }
    return RpcServiceTimes(samples=samples)


@dataclass(frozen=True)
class RpcScatterPoint:
    """One point of the Fig. 13 scatter plot."""

    rpc: RpcName
    rpc_class: RpcClass
    operation_count: int
    median_service_time: float


def rpc_scatter(dataset: TraceDataset, include_attacks: bool = True,
                times: RpcServiceTimes | None = None) -> list[RpcScatterPoint]:
    """Compute the Fig. 13 median-service-time vs frequency scatter.

    ``times`` is the Fig. 12 :func:`rpc_service_times` of ``dataset`` with
    the same ``include_attacks``, when the caller already has it.
    """
    if times is None:
        times = rpc_service_times(dataset, include_attacks=include_attacks)
    points = []
    for rpc in times.observed_rpcs():
        points.append(RpcScatterPoint(
            rpc=rpc,
            rpc_class=rpc_class_of(rpc),
            operation_count=times.count(rpc),
            median_service_time=times.median(rpc),
        ))
    points.sort(key=lambda p: p.operation_count, reverse=True)
    return points


def class_median_ranges(points: list[RpcScatterPoint]) -> dict[RpcClass, tuple[float, float]]:
    """Min/max median service time per RPC class (used by tests/benches)."""
    ranges: dict[RpcClass, tuple[float, float]] = {}
    for point in points:
        low, high = ranges.get(point.rpc_class, (float("inf"), 0.0))
        ranges[point.rpc_class] = (min(low, point.median_service_time),
                                   max(high, point.median_service_time))
    return ranges
