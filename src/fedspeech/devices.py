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
temporaries and allocator slack. Cells near the budget (within 10 percent
either side) are reported ``marginal`` rather than forced to a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .arch import ArchitectureSpec, Precision, WorkloadSpec
from .costs import forward_flops
from .errors import ConfigError, MissingAnchorError, UnsupportedPrecisionError
from .memory import MemoryCalibration, default_calibration, static_memory, training_flops

GB = 1e9


@dataclass(frozen=True)
class Anchor:
    """One measured (architecture, workload) -> seconds-per-batch point."""

    arch_name: str
    batch: int
    precision: Precision
    seconds_per_batch: float
    duration_s: float = 5.5
    sample_rate_hz: int = 16_000

    def __post_init__(self) -> None:
        if self.seconds_per_batch <= 0:
            raise ConfigError("anchor times must be > 0")

    @property
    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(duration_s=self.duration_s, sample_rate_hz=self.sample_rate_hz,
                            batch=self.batch, precision=self.precision)


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    memory_total_bytes: float
    os_reserve_bytes: float
    supports_mixed: bool
    anchors: tuple[Anchor, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.memory_total_bytes > self.os_reserve_bytes >= 0:
            raise ConfigError("device memory must exceed the OS reserve")

    @property
    def memory_budget_bytes(self) -> float:
        return self.memory_total_bytes - self.os_reserve_bytes


@dataclass(frozen=True)
class TimePrediction:
    seconds_per_batch: float
    effective_throughput: float  # training FLOP/s
    anchor_used: Anchor


class FitVerdict(str, enum.Enum):
    FITS = "fits"
    MARGINAL = "marginal"
    OOM = "oom"


_MARGINAL_BAND = 0.10


def _anchors(arch_name: str, table: Sequence[tuple[int, str, float]]) -> list[Anchor]:
    return [Anchor(arch_name, batch, Precision(prec), seconds)
            for batch, prec, seconds in table]


def builtin_profiles() -> tuple[DeviceProfile, ...]:
    """Reference devices with their measured training-time anchors."""
    edge_reserve = 1.5 * GB
    agx_anchors = tuple(  # both Xavier AGX memory variants share one measurement
        _anchors("base", [(1, "fp32", 0.38), (1, "mixed", 0.43),
                          (4, "fp32", 1.08), (4, "mixed", 0.82)])
        + _anchors("large", [(1, "fp32", 0.88), (1, "mixed", 0.87),
                             (4, "mixed", 1.72)]))
    return (
        DeviceProfile(
            name="a40", memory_total_bytes=48 * GB, os_reserve_bytes=0.0,
            supports_mixed=True,
            description="NVIDIA A40, server GPU (48 GB)",
            anchors=tuple(
                _anchors("base", [(1, "fp32", 0.12), (1, "mixed", 0.11),
                                  (4, "fp32", 0.27), (4, "mixed", 0.21)])
                + _anchors("large", [(1, "fp32", 0.23), (1, "mixed", 0.21),
                                     (4, "fp32", 0.43), (4, "mixed", 0.42)]))),
        DeviceProfile(
            name="macbook-pro-2019", memory_total_bytes=16 * GB,
            os_reserve_bytes=edge_reserve, supports_mixed=False,
            description="MacBook Pro 2019, 8-core i9 (16 GB)",
            anchors=tuple(
                _anchors("base", [(1, "fp32", 3.76), (4, "fp32", 12.83)])
                + _anchors("large", [(1, "fp32", 9.05), (4, "fp32", 33.66)]))),
        DeviceProfile(
            name="rpi4", memory_total_bytes=8 * GB, os_reserve_bytes=edge_reserve,
            supports_mixed=False,
            description="Raspberry Pi 4, 4-core CPU (8 GB); large preset does not fit",
            anchors=tuple(_anchors("base", [(1, "fp32", 16.60), (4, "fp32", 53.26)]))),
        DeviceProfile(
            name="xavier-agx", memory_total_bytes=16 * GB, os_reserve_bytes=edge_reserve,
            supports_mixed=True,
            description="NVIDIA Jetson Xavier AGX (16 GB)",
            anchors=agx_anchors),
        DeviceProfile(
            name="xavier-agx-32gb", memory_total_bytes=32 * GB,
            os_reserve_bytes=edge_reserve, supports_mixed=True,
            description="NVIDIA Jetson Xavier AGX, 32 GB variant",
            anchors=agx_anchors),
        DeviceProfile(
            name="xavier-nx", memory_total_bytes=8 * GB, os_reserve_bytes=edge_reserve,
            supports_mixed=True,
            description="NVIDIA Jetson Xavier NX (8 GB); large preset does not fit",
            anchors=tuple(
                _anchors("base", [(1, "fp32", 0.67), (1, "mixed", 0.61),
                                  (4, "fp32", 1.78), (4, "mixed", 1.14)]))),
    )


_ALIASES = {
    "a40": "a40",
    "macbook": "macbook-pro-2019", "macbook-pro-2019": "macbook-pro-2019",
    "rpi": "rpi4", "rpi4": "rpi4",
    "agx": "xavier-agx", "xavier-agx": "xavier-agx",
    "agx-32gb": "xavier-agx-32gb", "xavier-agx-32gb": "xavier-agx-32gb",
    "nx": "xavier-nx", "xavier-nx": "xavier-nx",
}


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
        raise UnsupportedPrecisionError(
            f"{profile.name} has no mixed-precision support")
    candidates = [a for a in profile.anchors
                  if a.arch_name == arch.name and a.precision is workload.precision]
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
    return TimePrediction(seconds_per_batch=seconds, effective_throughput=throughput,
                          anchor_used=anchor)


# ---------------------------------------------------------------------------
# Memory fit


def check_fit(profile: DeviceProfile, peak_memory_bytes: float) -> FitVerdict:
    """Compare a peak-memory estimate against the device budget.

    Within 10 percent of the budget (either side) the verdict is
    ``marginal``; otherwise ``fits`` or ``oom``.
    """
    budget = profile.memory_budget_bytes
    if abs(peak_memory_bytes - budget) <= _MARGINAL_BAND * budget:
        return FitVerdict.MARGINAL
    return FitVerdict.FITS if peak_memory_bytes <= budget else FitVerdict.OOM


def training_residency_bytes(arch: ArchitectureSpec, workload: WorkloadSpec,
                             calibration: Optional[MemoryCalibration] = None) -> float:
    """Whole-process peak residency of a training step, for fit checks."""
    cal = calibration or default_calibration()
    report = forward_flops(arch, workload)
    activations = report.total_activation_bytes_per_sample * workload.batch
    return (static_memory(report)
            + cal.runtime_overhead_bytes
            + cal.residency_factor * activations)

