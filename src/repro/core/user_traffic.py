"""Traffic distribution across users and user classes (Section 6.1, Fig. 7b/7c).

Key observations reproduced here:

* only 14 % of users downloaded data in the month and 25 % uploaded — a
  minority of users is responsible for the storage workload;
* the traffic distribution across active users is extremely unequal: the
  Lorenz curve is far from the diagonal, the Gini coefficient is ~0.9 and
  1 % of users account for ~65 % of the traffic;
* classifying users à la Drago et al. (occasional / upload-only /
  download-only / heavy) shows U1 is dominated by occasional users
  (85.8 %), unlike the campus-biased Dropbox population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.util.distinct import distinct
from repro.util.inequality import gini_coefficient, lorenz_curve, top_share
from repro.util.stats import EmpiricalCDF
from repro.util.units import KB

__all__ = [
    "UserTraffic",
    "per_user_traffic",
    "TrafficInequality",
    "traffic_inequality",
    "UserClassBreakdown",
    "classify_users",
]


@dataclass(frozen=True)
class UserTraffic:
    """Upload/download bytes per user over the trace."""

    upload_bytes: dict[int, int]
    download_bytes: dict[int, int]
    all_users: int

    def users_who_uploaded(self) -> int:
        """Users with at least one uploaded byte."""
        return sum(1 for v in self.upload_bytes.values() if v > 0)

    def users_who_downloaded(self) -> int:
        """Users with at least one downloaded byte."""
        return sum(1 for v in self.download_bytes.values() if v > 0)

    def upload_share_of_users(self) -> float:
        """Fraction of all users who uploaded anything (paper: ~25 %)."""
        return self.users_who_uploaded() / self.all_users if self.all_users else 0.0

    def download_share_of_users(self) -> float:
        """Fraction of all users who downloaded anything (paper: ~14 %)."""
        return self.users_who_downloaded() / self.all_users if self.all_users else 0.0

    def total_traffic(self, user_id: int) -> int:
        """Upload + download bytes of one user."""
        return self.upload_bytes.get(user_id, 0) + self.download_bytes.get(user_id, 0)

    def traffic_values(self, kind: str = "total") -> np.ndarray:
        """Per-user traffic values (only users with non-zero traffic)."""
        if kind == "upload":
            values = [v for v in self.upload_bytes.values() if v > 0]
        elif kind == "download":
            values = [v for v in self.download_bytes.values() if v > 0]
        elif kind == "total":
            users = set(self.upload_bytes) | set(self.download_bytes)
            values = [self.total_traffic(u) for u in users]
            values = [v for v in values if v > 0]
        else:
            raise ValueError("kind must be 'upload', 'download' or 'total'")
        return np.asarray(values, dtype=float)

    def traffic_cdf(self, kind: str = "total") -> EmpiricalCDF:
        """CDF of per-user transferred data (Fig. 7b)."""
        values = self.traffic_values(kind)
        if values.size == 0:
            raise ValueError("no traffic observed")
        return EmpiricalCDF(values)


def per_user_traffic(dataset: TraceDataset,
                     include_attacks: bool = False) -> UserTraffic:
    """Aggregate upload/download bytes per user."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: per-user byte totals via distinct ids, a binary
    # search for each row's id and a weighted bincount.
    op_codes = source.storage_column("operation")
    users = source.storage_column("user_id")
    sizes = source.storage_column("size_bytes")

    def totals(mask: np.ndarray) -> dict[int, int]:
        masked_users = users[mask]
        if masked_users.size == 0:
            return {}
        ids = distinct(masked_users)
        sums = np.bincount(np.searchsorted(ids, masked_users),
                           weights=sizes[mask], minlength=ids.size)
        return dict(zip(ids.tolist(), sums.astype(np.int64).tolist()))

    return UserTraffic(
        upload_bytes=totals(op_codes == OPERATION_CODE[ApiOperation.UPLOAD]),
        download_bytes=totals(op_codes == OPERATION_CODE[ApiOperation.DOWNLOAD]),
        all_users=source.user_count())


@dataclass(frozen=True)
class TrafficInequality:
    """Lorenz curve and Gini coefficient of per-user traffic (Fig. 7c)."""

    lorenz_population: np.ndarray
    lorenz_traffic: np.ndarray
    gini: float
    top_1_percent_share: float
    top_5_percent_share: float
    active_users: int


def traffic_inequality(dataset: TraceDataset, kind: str = "total",
                       include_attacks: bool = False,
                       traffic: UserTraffic | None = None) -> TrafficInequality:
    """Compute the Fig. 7c inequality indicators for per-user traffic.

    ``traffic`` is the Fig. 7b :func:`per_user_traffic` of ``dataset`` with
    the same ``include_attacks``, when the caller already has it.
    """
    if traffic is None:
        traffic = per_user_traffic(dataset, include_attacks=include_attacks)
    values = traffic.traffic_values(kind)
    if values.size == 0:
        raise ValueError("no traffic observed")
    xs, ys = lorenz_curve(values)
    return TrafficInequality(
        lorenz_population=xs,
        lorenz_traffic=ys,
        gini=gini_coefficient(values),
        top_1_percent_share=top_share(values, 0.01),
        top_5_percent_share=top_share(values, 0.05),
        active_users=int(values.size),
    )


@dataclass(frozen=True)
class UserClassBreakdown:
    """Shares of the Drago et al. user classes (Section 6.1)."""

    occasional: float
    upload_only: float
    download_only: float
    heavy: float
    counts: dict[str, int]

    def as_dict(self) -> dict[str, float]:
        """Class shares keyed by class name."""
        return {
            "occasional": self.occasional,
            "upload_only": self.upload_only,
            "download_only": self.download_only,
            "heavy": self.heavy,
        }


def classify_users(dataset: TraceDataset, occasional_threshold: int = 10 * KB,
                   ratio_orders_of_magnitude: float = 3.0,
                   include_attacks: bool = False,
                   traffic: UserTraffic | None = None) -> UserClassBreakdown:
    """Classify every user following Drago et al. (as used in Section 6.1).

    A user is *occasional* when they transferred less than 10 KB in total;
    *upload-only* / *download-only* when one direction exceeds the other by
    more than three orders of magnitude; *heavy* otherwise.  ``traffic`` is
    the :func:`per_user_traffic` of ``dataset`` with the same
    ``include_attacks``, when the caller already has it.
    """
    if traffic is None:
        traffic = per_user_traffic(dataset, include_attacks=include_attacks)
    counts = {"occasional": 0, "upload_only": 0, "download_only": 0, "heavy": 0}
    ratio_threshold = 10.0 ** ratio_orders_of_magnitude
    all_users = dataset.user_ids() if include_attacks else \
        dataset.without_attack_traffic().user_ids()
    for user_id in all_users:
        up = traffic.upload_bytes.get(user_id, 0)
        down = traffic.download_bytes.get(user_id, 0)
        total = up + down
        if total < occasional_threshold:
            counts["occasional"] += 1
        elif down == 0 or (down > 0 and up / max(down, 1) >= ratio_threshold):
            counts["upload_only"] += 1
        elif up == 0 or (up > 0 and down / max(up, 1) >= ratio_threshold):
            counts["download_only"] += 1
        else:
            counts["heavy"] += 1
    total_users = sum(counts.values()) or 1
    return UserClassBreakdown(
        occasional=counts["occasional"] / total_users,
        upload_only=counts["upload_only"] / total_users,
        download_only=counts["download_only"] / total_users,
        heavy=counts["heavy"] / total_users,
        counts=counts,
    )
