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
sigma is chosen to match the Gini target.  Each attribute (class, weight,
volume counts, diurnal phase offset, developer bias) is one array draw over
the whole population.
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

#: User classes in the order of the configured class fractions.
_CLASSES = (UserClass.OCCASIONAL, UserClass.UPLOAD_ONLY,
            UserClass.DOWNLOAD_ONLY, UserClass.HEAVY)


def build_population(config: WorkloadConfig,
                     rng: np.random.Generator | None = None) -> list[User]:
    """Build the synthetic user population described by ``config``.

    Every per-user attribute is drawn as one array over the population, so
    the number of Generator calls does not depend on the population size.
    """
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_users

    classes = rng.choice(len(_CLASSES), size=n, p=[
        config.occasional_fraction, config.upload_only_fraction,
        config.download_only_fraction, config.heavy_fraction])
    # Lognormal activity weights: sigma ~ 2.33 yields Gini ~ 0.9 for the
    # resulting traffic distribution.  Occasional users are clamped to a tiny
    # weight so that they stay below the 10 KB threshold.
    weights = rng.lognormal(mean=0.0, sigma=config.activity_sigma, size=n)
    weights = np.where(classes == _CLASSES.index(UserClass.OCCASIONAL),
                       np.minimum(weights, 0.05), weights)
    weights = np.where(classes == _CLASSES.index(UserClass.HEAVY),
                       np.maximum(weights, 1.0), weights)

    udf_u, shared_u, developer_bias = rng.random((3, n))
    # Counts are drawn for every user; a bound of 0 is valid at fraction 0.
    udf = np.where(udf_u < config.udf_user_fraction,
                   1 + rng.integers(0, max(config.max_udf_volumes, 1), size=n),
                   0)
    shared = np.where(shared_u < config.shared_user_fraction,
                      1 + rng.integers(0, max(config.max_shared_volumes, 1),
                                       size=n), 0)
    phase = rng.normal(0.0, 2.0, size=n)

    return [
        User(user_id=user_id, user_class=_CLASSES[c], activity_weight=w,
             udf_volumes=u, shared_volumes=s, phase_offset_hours=p,
             developer_bias=b)
        for user_id, c, w, u, s, p, b in zip(
            range(1, n + 1), classes.tolist(), weights.tolist(),
            udf.tolist(), shared.tolist(), phase.tolist(),
            developer_bias.tolist())
    ]
