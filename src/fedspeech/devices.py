"""Device profiles, throughput calibration, time prediction, and memory fit.

Each built-in profile carries the measured seconds-per-batch anchors for the
``base`` and ``large`` presets at 5.5 s average clips (batch 1 and 4, fp32
and, where supported, mixed precision). Prediction works by calibrating an
effective training throughput from the anchor whose precision matches and
whose batch size is nearest to the request, then scaling by training FLOPs.
No efficiency extrapolation is attempted beyond the measured anchors, since
batch-size utilisation effects are hardware facts the FLOP model cannot
invent.

Memory fit uses a whole-process residency estimate: full training statics
(weights, gradients, optimizer state) plus the runtime floor plus the
retained activations scaled by ``residency_factor`` to cover backward
temporaries and allocator slack. Cells within ``MARGINAL_BAND`` of the budget
(either side) are reported ``marginal`` rather than forced to a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .arch import REFERENCE_CLIP_S, ArchitectureSpec, Precision, WorkloadSpec
from .costs import forward_flops
from .errors import ConfigError, MissingAnchorError
from .memory import (GB, MemoryCalibration, default_calibration, static_memory,
                     training_flops)
from .settings import read, read_value


@dataclass(frozen=True)
class Anchor:
    """One measured (architecture, workload) -> seconds-per-batch point."""

    arch: str
    batch: int
    precision: Precision
    seconds_per_batch: float
    duration_s: float = REFERENCE_CLIP_S

    def __post_init__(self) -> None:
        if self.seconds_per_batch <= 0:
            raise ConfigError("anchor times must be > 0")

    @property
    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(duration_s=self.duration_s, batch=self.batch,
                            precision=self.precision)


@dataclass(frozen=True)
class DeviceProfile:
    """One device; its fields are the keys of a ``devices:`` config entry."""

    name: str
    memory_gb: float
    os_reserve_gb: float = 0.0
    supports_mixed: bool = False
    anchors: tuple[Anchor, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if not self.memory_gb > self.os_reserve_gb >= 0:
            raise ConfigError("device memory must exceed the OS reserve")
        if not self.anchors:
            raise ConfigError(f"device {self.name!r} needs anchors")

    @property
    def memory_budget_bytes(self) -> float:
        return self.memory_gb * GB - self.os_reserve_gb * GB


@dataclass(frozen=True)
class TimePrediction:
    device: str  # the profile's name
    seconds_per_batch: float
    effective_throughput: float  # training FLOP/s
    anchor_used: Anchor


class FitVerdict(str, enum.Enum):
    FITS = "fits"
    MARGINAL = "marginal"
    OOM = "oom"


MARGINAL_BAND = 0.10

# The reference devices in the config's ``devices:`` format, with their
# measured training-time anchors at 5.5 s clips.
_XAVIER_AGX_ANCHORS = [  # both Xavier AGX memory variants share one measurement
    {"arch": "base", "batch": 1, "precision": "fp32", "seconds_per_batch": 0.38},
    {"arch": "base", "batch": 1, "precision": "mixed", "seconds_per_batch": 0.43},
    {"arch": "base", "batch": 4, "precision": "fp32", "seconds_per_batch": 1.08},
    {"arch": "base", "batch": 4, "precision": "mixed", "seconds_per_batch": 0.82},
    {"arch": "large", "batch": 1, "precision": "fp32", "seconds_per_batch": 0.88},
    {"arch": "large", "batch": 1, "precision": "mixed", "seconds_per_batch": 0.87},
    {"arch": "large", "batch": 4, "precision": "mixed", "seconds_per_batch": 1.72},
]
_BUILTIN_DEVICES = [
    # NVIDIA A40, server GPU (48 GB)
    {"name": "a40", "memory_gb": 48, "supports_mixed": True, "anchors": [
        {"arch": "base", "batch": 1, "precision": "fp32", "seconds_per_batch": 0.12},
        {"arch": "base", "batch": 1, "precision": "mixed", "seconds_per_batch": 0.11},
        {"arch": "base", "batch": 4, "precision": "fp32", "seconds_per_batch": 0.27},
        {"arch": "base", "batch": 4, "precision": "mixed", "seconds_per_batch": 0.21},
        {"arch": "large", "batch": 1, "precision": "fp32", "seconds_per_batch": 0.23},
        {"arch": "large", "batch": 1, "precision": "mixed", "seconds_per_batch": 0.21},
        {"arch": "large", "batch": 4, "precision": "fp32", "seconds_per_batch": 0.43},
        {"arch": "large", "batch": 4, "precision": "mixed", "seconds_per_batch": 0.42}]},
    # MacBook Pro 2019, 8-core i9 (16 GB)
    {"name": "macbook-pro-2019", "memory_gb": 16, "os_reserve_gb": 1.5, "anchors": [
        {"arch": "base", "batch": 1, "precision": "fp32", "seconds_per_batch": 3.76},
        {"arch": "base", "batch": 4, "precision": "fp32", "seconds_per_batch": 12.83},
        {"arch": "large", "batch": 1, "precision": "fp32", "seconds_per_batch": 9.05},
        {"arch": "large", "batch": 4, "precision": "fp32", "seconds_per_batch": 33.66}]},
    # Raspberry Pi 4, 4-core CPU (8 GB); the large preset does not fit
    {"name": "rpi4", "memory_gb": 8, "os_reserve_gb": 1.5, "anchors": [
        {"arch": "base", "batch": 1, "precision": "fp32", "seconds_per_batch": 16.60},
        {"arch": "base", "batch": 4, "precision": "fp32", "seconds_per_batch": 53.26}]},
    # NVIDIA Jetson Xavier AGX (16 GB)
    {"name": "xavier-agx", "memory_gb": 16, "os_reserve_gb": 1.5, "supports_mixed": True,
     "anchors": _XAVIER_AGX_ANCHORS},
    # NVIDIA Jetson Xavier AGX, 32 GB variant
    {"name": "xavier-agx-32gb", "memory_gb": 32, "os_reserve_gb": 1.5,
     "supports_mixed": True, "anchors": _XAVIER_AGX_ANCHORS},
    # NVIDIA Jetson Xavier NX (8 GB); the large preset does not fit
    {"name": "xavier-nx", "memory_gb": 8, "os_reserve_gb": 1.5, "supports_mixed": True,
     "anchors": [
        {"arch": "base", "batch": 1, "precision": "fp32", "seconds_per_batch": 0.67},
        {"arch": "base", "batch": 1, "precision": "mixed", "seconds_per_batch": 0.61},
        {"arch": "base", "batch": 4, "precision": "fp32", "seconds_per_batch": 1.78},
        {"arch": "base", "batch": 4, "precision": "mixed", "seconds_per_batch": 1.14}]},
]


def read_devices(entries: object, where: str = "devices",
                 pool: Sequence[DeviceProfile] = ()) -> tuple[DeviceProfile, ...]:
    """``pool`` with each ``devices:`` entry read over the profile of its
    name, in any case, or added when no profile has that name."""
    profiles = {p.name: p for p in pool}
    for i, entry in enumerate(read_value(tuple[dict, ...], entries, where)):
        name = entry.get("name")
        base = profiles.get(name.lower()) if isinstance(name, str) else None
        profile = read(DeviceProfile, entry, f"{where}[{i}]", base)
        profiles[profile.name] = profile
    return tuple(profiles.values())


@lru_cache(maxsize=1)
def builtin_profiles() -> tuple[DeviceProfile, ...]:
    """Reference devices with their measured training-time anchors."""
    return read_devices(_BUILTIN_DEVICES)


_ALIASES = {"macbook": "macbook-pro-2019", "rpi": "rpi4", "agx": "xavier-agx",
            "agx-32gb": "xavier-agx-32gb", "nx": "xavier-nx"}


def get_profile(name: str,
                profiles: Optional[Sequence[DeviceProfile]] = None) -> DeviceProfile:
    pool = {p.name: p for p in (profiles if profiles is not None else builtin_profiles())}
    key = _ALIASES.get(name.lower(), name.lower())
    if key not in pool:
        raise ConfigError(f"unknown device {name!r}; available: {', '.join(sorted(pool))}")
    return pool[key]


# ---------------------------------------------------------------------------
# Throughput calibration and prediction


def _select_anchor(profile: DeviceProfile, arch: ArchitectureSpec,
                   workload: WorkloadSpec) -> Anchor:
    if workload.precision is Precision.MIXED and not profile.supports_mixed:
        raise MissingAnchorError(f"{profile.name} has no mixed-precision support")
    candidates = [a for a in profile.anchors
                  if a.arch == arch.name and a.precision is workload.precision]
    if not candidates:
        raise MissingAnchorError(
            f"{profile.name} has no anchor for arch={arch.name!r} "
            f"precision={workload.precision.value}")
    return min(candidates, key=lambda a: (abs(a.batch - workload.batch), a.batch))


def predict_batch_time(profile: DeviceProfile, arch: ArchitectureSpec,
                       workload: WorkloadSpec) -> TimePrediction:
    """Seconds per batch for an arbitrary workload on this device.

    The effective training throughput (FLOP/s) is calibrated from the
    matching anchor; predicting at an anchor's own workload returns the
    measured anchor time exactly.
    """
    anchor = _select_anchor(profile, arch, workload)
    throughput = (training_flops(forward_flops(arch, anchor.workload))
                  / anchor.seconds_per_batch)
    seconds = training_flops(forward_flops(arch, workload)) / throughput
    return TimePrediction(profile.name, seconds, throughput, anchor)


# ---------------------------------------------------------------------------
# Memory fit


def check_fit(profile: DeviceProfile, peak_memory_bytes: float) -> FitVerdict:
    """Compare a peak-memory estimate against the device budget.

    Within ``MARGINAL_BAND`` of the budget (either side) the verdict is
    ``marginal``; otherwise ``fits`` or ``oom``.
    """
    budget = profile.memory_budget_bytes
    if abs(peak_memory_bytes - budget) <= MARGINAL_BAND * budget:
        return FitVerdict.MARGINAL
    return FitVerdict.FITS if peak_memory_bytes <= budget else FitVerdict.OOM


class Residency(NamedTuple):
    """Whole-process peak residency of a training step, in bytes, by part."""

    statics: int  # weights, gradients and optimizer state: 16 B per parameter
    runtime_floor: float  # interpreter, framework and loader
    activations: float  # residency_factor times the retained activations

    @property
    def total(self) -> float:
        """The residency a fit checks: the parts added in the order above."""
        return self.statics + self.runtime_floor + self.activations


def training_residency_bytes(arch: ArchitectureSpec, workload: WorkloadSpec,
                             calibration: Optional[MemoryCalibration] = None) -> Residency:
    """Whole-process peak residency of a training step, for fit checks."""
    cal = calibration or default_calibration()
    report = forward_flops(arch, workload)
    activations = report.total_activation_bytes_per_sample * workload.batch
    return Residency(static_memory(report), cal.runtime_overhead_bytes,
                     cal.residency_factor * activations)

