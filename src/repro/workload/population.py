"""The user population model.

Section 6 of the paper characterises U1 users:

* using the Drago et al. classification, 85.82 % of users are *occasional*
  (they transfer less than 10 KB in the month), 7.22 % are upload-only,
  2.34 % download-only and 4.62 % heavy;
* per-user traffic is extremely skewed: 1 % of users generate 65 % of the
  traffic and the Gini coefficient of the per-user traffic distribution is
  ~0.9 (Fig. 7c);
* 58 % of users have created at least one user-defined volume while only
  1.8 % have a shared volume (Fig. 11);
* only 14 % of users downloaded anything in the month and 25 % uploaded.

:func:`build_population` materialises a population consistent with those
observations; the activity *weight* of each user follows a lognormal whose
sigma is chosen to match the Gini target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.workload.config import WorkloadConfig

__all__ = ["UserClass", "User", "build_population"]


class UserClass(str, enum.Enum):
    """User activity classes (Drago et al. / Section 6.1)."""

    OCCASIONAL = "occasional"
    UPLOAD_ONLY = "upload_only"
    DOWNLOAD_ONLY = "download_only"
    HEAVY = "heavy"


@dataclass
class User:
    """One synthetic U1 user."""

    user_id: int
    user_class: UserClass
    #: Relative activity weight; scales the number of sessions that are
    #: active and the number of operations per active session.
    activity_weight: float
    #: Number of user-defined volumes the user creates during the trace.
    udf_volumes: int
    #: Number of shared volumes the user participates in.
    shared_volumes: int
    #: Hour-of-day phase offset so that not every user peaks at 2 pm sharp.
    phase_offset_hours: float = 0.0
    #: Preferred extension categories; heavier developers churn code files,
    #: media hoarders upload songs.  Kept as an index bias into the file
    #: model's profile table.
    developer_bias: float = 0.0

    @property
    def may_upload(self) -> bool:
        """Whether this user's class allows uploads."""
        return self.user_class in (UserClass.UPLOAD_ONLY, UserClass.HEAVY,
                                   UserClass.OCCASIONAL)

    @property
    def may_download(self) -> bool:
        """Whether this user's class allows downloads."""
        return self.user_class in (UserClass.DOWNLOAD_ONLY, UserClass.HEAVY,
                                   UserClass.OCCASIONAL)

    @property
    def is_occasional(self) -> bool:
        """True for occasional users (< 10 KB transferred in the month)."""
        return self.user_class is UserClass.OCCASIONAL


def _assign_classes(config: WorkloadConfig, rng: np.random.Generator) -> list[UserClass]:
    classes = [UserClass.OCCASIONAL, UserClass.UPLOAD_ONLY,
               UserClass.DOWNLOAD_ONLY, UserClass.HEAVY]
    probabilities = [config.occasional_fraction, config.upload_only_fraction,
                     config.download_only_fraction, config.heavy_fraction]
    indices = rng.choice(len(classes), size=config.n_users, p=probabilities)
    return [classes[i] for i in indices]


def build_population(config: WorkloadConfig,
                     rng: np.random.Generator | None = None) -> list[User]:
    """Build the synthetic user population described by ``config``."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)

    classes = _assign_classes(config, rng)
    # Lognormal activity weights: sigma ~ 2.33 yields Gini ~ 0.9 for the
    # resulting traffic distribution.  Occasional users are clamped to a tiny
    # weight so that they stay below the 10 KB threshold.
    raw_weights = rng.lognormal(mean=0.0, sigma=config.activity_sigma,
                                size=config.n_users)

    users: list[User] = []
    for user_id in range(1, config.n_users + 1):
        user_class = classes[user_id - 1]
        weight = float(raw_weights[user_id - 1])
        if user_class is UserClass.OCCASIONAL:
            weight = min(weight, 0.05)
        elif user_class is UserClass.HEAVY:
            weight = max(weight, 1.0)

        udf = 0
        if rng.random() < config.udf_user_fraction:
            udf = 1 + int(rng.integers(0, config.max_udf_volumes))
        shared = 0
        if rng.random() < config.shared_user_fraction:
            shared = 1 + int(rng.integers(0, config.max_shared_volumes))

        users.append(User(
            user_id=user_id,
            user_class=user_class,
            activity_weight=weight,
            udf_volumes=udf,
            shared_volumes=shared,
            phase_offset_hours=float(rng.normal(0.0, 2.0)),
            developer_bias=float(rng.random()),
        ))
    return users
