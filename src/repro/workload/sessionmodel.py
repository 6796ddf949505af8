"""Session arrival and session length models.

Section 7.3 of the paper characterises U1 sessions:

* session arrivals follow the users' working habits (diurnal + weekly
  patterns, Fig. 15);
* 32 % of sessions are shorter than one second (NAT/firewall boxes closing
  idle TCP connections) and 97 % are shorter than 8 hours (Fig. 16);
* only 5.57 % of sessions perform any data-management operation ("active"
  sessions); active sessions are much longer than cold ones, and 20 % of
  the active sessions account for 96.7 % of all data-management operations;
* 2.76 % of authentication requests fail.

:meth:`SessionModel.plan_sessions` samples the sessions of a whole
population in one pass: session starts are a thinned inhomogeneous Poisson
process (Lewis & Shedler 1979) run over every user's candidates at once,
and lengths, activity flags, authentication outcomes and operation counts
are drawn as arrays over all accepted sessions.  The pass makes the same
number of Generator calls for any population size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.diurnal import DiurnalProfile
from repro.workload.population import User, UserClass

__all__ = ["SessionTable", "SessionModel"]


@dataclass(frozen=True)
class SessionTable:
    """The planned sessions of a population, one array entry per session.

    Sessions are ordered by ``(owner, start)``; ``owner`` indexes the user
    sequence the table was planned for.  ``n_ops`` is the planned operation
    count of an active session that authenticates (0 otherwise).
    """

    owner: np.ndarray
    start: np.ndarray
    length: np.ndarray
    active: np.ndarray
    auth_fails: np.ndarray
    n_ops: np.ndarray

    def __len__(self) -> int:
        return len(self.owner)


class SessionModel:
    """Samples the session plans of a whole population."""

    #: Multiplier applied to the probability that a session is active,
    #: depending on the user class: heavy users are active almost every
    #: session, occasional users almost never.
    _ACTIVE_MULTIPLIER = {
        UserClass.OCCASIONAL: 0.35,
        UserClass.UPLOAD_ONLY: 4.0,
        UserClass.DOWNLOAD_ONLY: 4.0,
        UserClass.HEAVY: 9.0,
    }

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator,
                 diurnal: DiurnalProfile | None = None):
        self._config = config
        self._rng = rng
        self._diurnal = diurnal or DiurnalProfile(
            peak_to_trough=config.diurnal_peak_to_trough,
            weekend_factor=config.weekend_factor,
        )
        # Thinning bound of the inhomogeneous Poisson process; constant per
        # configuration, so computed once instead of per call.
        self._max_multiplier = self._diurnal.max_intensity(config.start_time)

    def plan_sessions(self, users: Sequence[User]) -> SessionTable:
        """Every session of ``users`` over the measurement window."""
        config = self._config
        rng = self._rng
        n_users = len(users)
        weight = np.array([u.activity_weight for u in users], dtype=float)
        phase = np.array([u.phase_offset_hours for u in users], dtype=float)
        multiplier = np.array([self._ACTIVE_MULTIPLIER[u.user_class]
                               for u in users], dtype=float)

        # Thinning: a homogeneous candidate stream at the intensity bound,
        # sorted within each user and accepted with probability
        # intensity / bound at the user's phase-shifted time.
        duration = config.duration_days * DAY
        rate_bound = config.sessions_per_user_day / DAY * self._max_multiplier
        counts = rng.poisson(rate_bound * duration, size=n_users)
        owner = np.repeat(np.arange(n_users), counts)
        candidates = config.start_time + rng.uniform(0.0, duration,
                                                     size=owner.size)
        candidates = candidates[np.lexsort((candidates, owner))]
        shifted = candidates + phase[owner] * 3600.0
        accept_prob = self._diurnal.intensity_array(shifted) / self._max_multiplier
        accepted = ((rng.random(owner.size) < accept_prob)
                    & (candidates < config.end_time))
        owner = owner[accepted]
        start = candidates[accepted]
        n = owner.size

        # Short/body length mixture: 32 % of sessions are sub-second
        # NAT/firewall closures (Fig. 16), the body is a capped lognormal.
        short_u, active_u, auth_u = rng.random((3, n))
        short = rng.uniform(0.05, 1.0, size=n)
        body = np.minimum(
            rng.lognormal(mean=np.log(config.session_length_median),
                          sigma=config.session_length_sigma, size=n),
            config.session_length_cap)
        length = np.where(short_u < config.short_session_fraction, short, body)
        length = np.minimum(length, config.end_time - start)

        active_prob = np.minimum(
            0.95, config.active_session_fraction * multiplier
            * np.minimum(3.0, 1.0 + weight / 10.0))
        active = (length >= 1.0) & (active_u < active_prob[owner])
        auth_fails = auth_u < config.auth_failure_fraction

        # Operation counts of the active sessions that authenticate: a
        # heavy-tailed multiplier scaled by the owner's activity weight.
        counted = active & ~auth_fails
        heavy_tail = rng.pareto(1.15, size=int(np.count_nonzero(counted))) + 0.3
        weight_factor = 0.5 + np.minimum(weight[owner[counted]], 50.0)
        max_ops = config.max_ops_per_session
        scaled = (config.mean_ops_per_active_session * heavy_tail
                  * weight_factor / 5.0)
        n_ops = np.zeros(n, dtype=np.int64)
        n_ops[counted] = np.minimum(
            np.minimum(scaled, max_ops).astype(np.int64) + 1, max_ops)
        return SessionTable(owner=owner, start=start, length=length,
                            active=active, auth_fails=auth_fails, n_ops=n_ops)
