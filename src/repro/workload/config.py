"""Configuration of the synthetic workload generator.

Every parameter defaults to the value reported (or implied) by the paper;
:meth:`WorkloadConfig.scaled` produces a laptop-scale configuration that keeps
all the *relative* quantities intact while shrinking the user population and
the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.trace.records import TRACE_EPOCH
from repro.util.units import DAY, HOUR

__all__ = ["WorkloadConfig", "AttackConfig"]


@dataclass(frozen=True)
class AttackConfig:
    """One DDoS episode (Section 5.4).

    The three attacks observed in the trace (Jan 15, Jan 16 and Feb 6) shared
    a single user id and its credentials across thousands of desktop clients
    to distribute illegal content, multiplying session/authentication
    activity by 5-15x and API storage activity by 4.6-245x until engineers
    deleted the fraudulent account.
    """

    start_day: float
    duration_hours: float = 2.0
    session_amplification: float = 10.0
    storage_amplification: float = 50.0
    #: Size of the single shared file the attackers distribute.  The spike in
    #: Fig. 5 is about request counts, not bytes; a moderate size keeps the
    #: laptop-scale traffic totals from being swamped by the attack.
    shared_file_size: int = 10 * 1024 * 1024

    def start_time(self, trace_start: float) -> float:
        """Absolute start timestamp given the trace start."""
        return trace_start + self.start_day * DAY

    def end_time(self, trace_start: float) -> float:
        """Absolute end timestamp given the trace start."""
        return self.start_time(trace_start) + self.duration_hours * HOUR


@dataclass(frozen=True)
class WorkloadConfig:
    """All knobs of the synthetic workload.

    The defaults describe the full-scale U1 deployment (1.29 M users over 30
    days); use :meth:`scaled` for test- and laptop-sized runs.
    """

    # ------------------------------------------------------------ population
    seed: int = 0
    n_users: int = 1_294_794
    duration_days: float = 30.0
    start_time: float = TRACE_EPOCH

    #: User-class mix measured in Section 6.1 (Drago et al. classification).
    occasional_fraction: float = 0.8582
    upload_only_fraction: float = 0.0722
    download_only_fraction: float = 0.0234
    heavy_fraction: float = 0.0462

    #: Lognormal sigma of the per-user activity weight.  sigma = 2.33 yields a
    #: Gini coefficient of ~0.9 for per-user traffic, matching Fig. 7c.
    activity_sigma: float = 2.33

    #: Fraction of users with at least one user-defined volume (58 %) and with
    #: at least one shared volume (1.8 %), Section 6.3.
    udf_user_fraction: float = 0.58
    shared_user_fraction: float = 0.018
    max_udf_volumes: int = 8
    max_shared_volumes: int = 4

    # -------------------------------------------------------------- sessions
    #: Mean number of sessions per user per day, before diurnal modulation.
    sessions_per_user_day: float = 1.1
    #: Fraction of sessions that are shorter than one second (NAT/firewall
    #: connection resets), Section 7.3 reports 32 %.
    short_session_fraction: float = 0.32
    #: Lognormal parameters of the body of the session-length distribution
    #: (median ~25 minutes); 97 % of sessions should stay below 8 hours.
    session_length_median: float = 1500.0
    session_length_sigma: float = 1.6
    #: Maximum session length (two days).
    session_length_cap: float = 2 * DAY
    #: Fraction of sessions that perform data-management operations
    #: ("active sessions"); the paper reports 5.57 %.  The effective value is
    #: modulated per user class.
    active_session_fraction: float = 0.0557
    #: Probability that a user authentication request fails (2.76 %).
    auth_failure_fraction: float = 0.0276

    # ------------------------------------------------------------ operations
    #: Power-law exponent and cut-off of intra-session inter-operation gaps
    #: (Fig. 9 reports alpha = 1.44-1.54).
    burst_alpha: float = 1.5
    burst_theta: float = 1.0
    burst_cap: float = 4 * HOUR
    #: Mean number of storage operations per active session, before the
    #: per-user activity weight is applied (long-tailed; 80 % of active
    #: sessions have at most ~92 operations).
    mean_ops_per_active_session: float = 25.0
    max_ops_per_session: int = 3000

    #: Probability that an upload is an update of an existing file (10.05 %
    #: of uploads; 18.47 % of upload bytes because updates favour larger
    #: frequently-edited files).
    update_fraction: float = 0.10
    #: Probability that a brand-new upload duplicates content already stored
    #: by some user (file-level cross-user dedup ratio of 0.171).
    duplicate_fraction: float = 0.17
    #: Zipf exponent of the popularity of duplicated contents.
    duplicate_zipf_exponent: float = 1.1

    #: Upper clamp on sampled file sizes.  The per-extension lognormal tails
    #: occasionally produce multi-GB outliers that would dominate a
    #: laptop-scale trace; the clamp keeps the ">25 MB dominates traffic"
    #: shape of Fig. 2b without letting a single sample swamp the totals.
    max_file_bytes: int = 512 * 1024 * 1024

    #: Probability that a newly created file is short-lived (deleted within
    #: hours of its creation); Section 5.2 reports that 17.1 % of files are
    #: deleted within 8 hours and 28.9 % within the month.
    short_lived_file_fraction: float = 0.17

    # --------------------------------------------------------------- diurnal
    #: Ratio between the peak (working hours) and the trough (night) of the
    #: hourly activity profile; the paper reports up to 10x for uploads.
    diurnal_peak_to_trough: float = 10.0
    #: Relative activity reduction during weekends (Mondays are ~15 % above
    #: weekend levels for authentications).
    weekend_factor: float = 0.85

    # ---------------------------------------------------------------- attacks
    attacks: tuple[AttackConfig, ...] = field(default_factory=lambda: (
        AttackConfig(start_day=4.0, duration_hours=2.0,
                     session_amplification=5.0, storage_amplification=4.6),
        AttackConfig(start_day=5.0, duration_hours=2.0,
                     session_amplification=15.0, storage_amplification=245.0),
        AttackConfig(start_day=26.0, duration_hours=2.0,
                     session_amplification=8.0, storage_amplification=6.7),
    ))

    # -------------------------------------------------------------- factories
    @classmethod
    def scaled(cls, users: int, days: float, seed: int = 0,
               **overrides) -> "WorkloadConfig":
        """A configuration shrunk to ``users`` users over ``days`` days.

        All relative parameters (class mix, update/duplicate fractions,
        diurnal shape, ...) are kept; the attack schedule is rescaled so that
        the three episodes still fall inside the measurement window.
        """
        if users <= 0:
            raise ValueError("users must be positive")
        if days <= 0:
            raise ValueError("days must be positive")
        base = cls()
        scale = days / base.duration_days
        attacks = tuple(
            replace(attack, start_day=attack.start_day * scale)
            for attack in base.attacks
        )
        config = replace(base, n_users=users, duration_days=days, seed=seed,
                         attacks=attacks)
        if overrides:
            config = replace(config, **overrides)
        return config

    def replace(self, **overrides) -> "WorkloadConfig":
        """Copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`ValueError` when the configuration is inconsistent."""
        class_sum = (self.occasional_fraction + self.upload_only_fraction +
                     self.download_only_fraction + self.heavy_fraction)
        if abs(class_sum - 1.0) > 1e-6:
            raise ValueError(f"user-class fractions must sum to 1, got {class_sum}")
        for name in ("update_fraction", "duplicate_fraction",
                     "short_session_fraction", "active_session_fraction",
                     "auth_failure_fraction", "short_lived_file_fraction",
                     "udf_user_fraction", "shared_user_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for fraction, bound in (("udf_user_fraction", "max_udf_volumes"),
                                ("shared_user_fraction", "max_shared_volumes")):
            if getattr(self, fraction) > 0 and getattr(self, bound) < 1:
                raise ValueError(f"{bound} must be >= 1 when {fraction} > 0")
        if self.n_users <= 0:
            raise ValueError("n_users must be positive")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if not 1.0 < self.burst_alpha:
            raise ValueError("burst_alpha must exceed 1")
        if self.diurnal_peak_to_trough < 1.0:
            raise ValueError("diurnal_peak_to_trough must be >= 1")

    @property
    def end_time(self) -> float:
        """Absolute end timestamp of the measurement window."""
        return self.start_time + self.duration_days * DAY
