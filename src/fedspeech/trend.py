"""Compute-trend extrapolation: when does a slow device catch a fast one?

Assumes edge compute doubles every ``doubling_months`` months, so a device
``r`` times slower reaches parity after ``(doubling_months / 12) * log2(r)``
years. The exact law is implemented; reports show the precise parity date
rather than any rounded rule of thumb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidRatioError

DEFAULT_BASE_YEAR = 2022.0
DEFAULT_DOUBLING_MONTHS = 18.0


@dataclass(frozen=True)
class TrendForecast:
    base_year: float
    doubling_months: float
    slowdown_ratio: float

    @property
    def years_to_parity(self) -> float:
        return (self.doubling_months / 12.0) * math.log2(self.slowdown_ratio)

    @property
    def parity_year(self) -> float:
        return self.base_year + self.years_to_parity


def speedup_after(years: float, doubling_months: float = DEFAULT_DOUBLING_MONTHS) -> float:
    """Compute gain after ``years`` under the doubling law."""
    if years < 0:
        raise ConfigError("years must be >= 0")
    if doubling_months <= 0:
        raise ConfigError("doubling period must be > 0")
    return 2.0 ** (12.0 * years / doubling_months)


def parity_year(base_year: float, slow_time_s: float, fast_time_s: float,
                doubling_months: float = DEFAULT_DOUBLING_MONTHS) -> TrendForecast:
    """Forecast when the slow device matches the fast one."""
    if fast_time_s <= 0:
        raise ConfigError("fast time must be > 0")
    if fast_time_s > slow_time_s:
        raise InvalidRatioError(
            f"slow time {slow_time_s} is already faster than {fast_time_s}")
    if not (math.isfinite(doubling_months) and doubling_months > 0):
        raise ConfigError(f"doubling period must be finite and > 0, got {doubling_months}")
    if not math.isfinite(base_year):
        raise ConfigError(f"base year must be finite, got {base_year}")
    return TrendForecast(base_year=base_year, doubling_months=doubling_months,
                         slowdown_ratio=slow_time_s / fast_time_s)
