"""Diurnal and weekly modulation of user activity.

The paper observes strong daily patterns: hourly upload volume is up to 10x
higher during central day hours than at night (Fig. 2a), authentication
activity is 50-60 % higher during the day (Fig. 15) and Mondays peak ~15 %
above weekends.  It also observes that the R/W ratio decays roughly linearly
from 6 am to 3 pm — users download more content when they start their
clients, and upload more during working hours.

:class:`DiurnalProfile` turns those observations into a time-varying
intensity multiplier and a time-varying download bias used by the operation
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.units import DAY, HOUR

__all__ = ["DiurnalProfile"]


@dataclass(frozen=True)
class DiurnalProfile:
    """Hour-of-day / day-of-week activity modulation.

    Parameters
    ----------
    peak_to_trough:
        Ratio between the maximum (early afternoon) and minimum (night)
        hourly intensity.
    weekend_factor:
        Multiplier applied on Saturdays and Sundays.
    phase_hours:
        Hour of the day (0-24) at which activity peaks.
    """

    peak_to_trough: float = 10.0
    weekend_factor: float = 0.85
    phase_hours: float = 14.0

    def __post_init__(self) -> None:
        if self.peak_to_trough < 1.0:
            raise ValueError("peak_to_trough must be >= 1")
        if not 0.0 < self.weekend_factor <= 1.5:
            raise ValueError("weekend_factor must be in (0, 1.5]")

    # ------------------------------------------------------------------ time
    @staticmethod
    def hour_of_day(timestamp: float) -> float:
        """Hour of the (UTC) day, in [0, 24)."""
        return (timestamp % DAY) / HOUR

    @staticmethod
    def day_of_week(timestamp: float) -> int:
        """Day of the week with Monday = 0 (the trace epoch falls on a
        Saturday, 2014-01-11, and POSIX day 0 was a Thursday)."""
        return int(timestamp // DAY + 3) % 7

    # ------------------------------------------------------------- intensity
    def intensity(self, timestamp: float) -> float:
        """Relative activity multiplier at ``timestamp`` (mean ~1 over a week).

        The intra-day shape is a raised cosine with the configured
        peak-to-trough ratio, peaking at :attr:`phase_hours`.
        """
        hour = self.hour_of_day(timestamp)
        # Raised cosine in [trough, peak].
        peak = self.peak_to_trough
        trough = 1.0
        mid = (peak + trough) / 2.0
        amplitude = (peak - trough) / 2.0
        value = mid + amplitude * math.cos(2 * math.pi * (hour - self.phase_hours) / 24.0)
        if self.day_of_week(timestamp) >= 5:
            value *= self.weekend_factor
        # Normalise so that the weekly mean multiplier is ~1.
        return value / mid

    def intensity_array(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`intensity` over an array of timestamps."""
        ts = np.asarray(timestamps, dtype=np.float64)
        hour = (ts % DAY) / HOUR
        peak = self.peak_to_trough
        trough = 1.0
        mid = (peak + trough) / 2.0
        amplitude = (peak - trough) / 2.0
        value = mid + amplitude * np.cos(2 * np.pi * (hour - self.phase_hours) / 24.0)
        # day_of_week(ts) = (ts // DAY + 3) % 7; weekends are days 5 and 6.
        weekend = ((ts // DAY).astype(np.int64) + 3) % 7 >= 5
        value = np.where(weekend, value * self.weekend_factor, value)
        return value / mid

    def max_intensity(self, start_time: float = 0.0) -> float:
        """Maximum of :meth:`intensity` over one week from ``start_time``."""
        hours = start_time + np.arange(24 * 7) * HOUR
        return float(self.intensity_array(hours).max())

    # --------------------------------------------------------- download bias
    def download_bias(self, timestamp: float) -> float:
        """Multiplier (>1 favours downloads) encoding the R/W daily trend.

        The paper finds a linear decay of the R/W ratio from 6 am to 3 pm:
        downloads dominate when clients start up in the morning, uploads
        dominate during working hours.  We encode that as a bias that decays
        linearly from 1.5 at 6 am to 0.8 at 3 pm and stays flat otherwise.
        """
        hour = self.hour_of_day(timestamp)
        if 6.0 <= hour <= 15.0:
            frac = (hour - 6.0) / 9.0
            return 1.5 - 0.7 * frac
        return 1.0

    def download_bias_array(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`download_bias` over an array of timestamps.

        The materializer computes the bias of every realised transition of
        a whole batch of sessions in one call.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        hour = (ts % DAY) / HOUR
        bias = 1.5 - 0.7 * ((hour - 6.0) / 9.0)
        return np.where((hour >= 6.0) & (hour <= 15.0), bias, 1.0)
