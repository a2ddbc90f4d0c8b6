"""Compute-trend extrapolation: when does a slow device catch a fast one?

Assumes edge compute doubles every ``doubling_months`` months, so a device
``r`` times slower reaches parity after ``(doubling_months / 12) * log2(r)``
years. The exact law is implemented; reports show the precise parity date
rather than any rounded rule of thumb.
"""

from __future__ import annotations

import math

from .errors import ConfigError

DEFAULT_BASE_YEAR = 2022.0
DEFAULT_DOUBLING_MONTHS = 18.0


def speedup_after(years: float, doubling_months: float = DEFAULT_DOUBLING_MONTHS) -> float:
    """Compute gain after ``years`` under the doubling law."""
    if years < 0:
        raise ConfigError("years must be >= 0")
    if doubling_months <= 0:
        raise ConfigError("doubling period must be > 0")
    return 2.0 ** (12.0 * years / doubling_months)


def years_to_parity(slow_time_s: float, fast_time_s: float,
                    doubling_months: float = DEFAULT_DOUBLING_MONTHS) -> float:
    """Years until the slow device matches the fast one."""
    if fast_time_s <= 0:
        raise ConfigError("fast time must be > 0")
    if fast_time_s > slow_time_s:
        raise ConfigError(f"slow time {slow_time_s} is already faster than {fast_time_s}")
    if not (math.isfinite(doubling_months) and doubling_months > 0):
        raise ConfigError(f"doubling period must be finite and > 0, got {doubling_months}")
    return (doubling_months / 12.0) * math.log2(slow_time_s / fast_time_s)
