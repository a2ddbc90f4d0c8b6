"""Training FLOPs, static memory, and the forward-pass memory timeline.

Two distinct memory quantities are modelled, because they answer different
questions:

* :func:`memory_timeline` reproduces what an activation profiler reports at
  the end of the forward pass: fp32 weights plus a fixed runtime floor plus
  the retained-activation total scaled by a single fitted overhead factor
  ``kappa``. This is the number the per-layer accumulation plots are built
  from, and it is deliberately lean: gradients and optimizer state are not
  yet materialised at that point of the step.
* :func:`static_memory` is the steady-state footprint of weights, gradients,
  and optimizer state, independent of sequence length. Device-fit checks
  combine it with an allocator and backward-temporaries multiplier (see
  ``devices``).

``kappa`` is fitted once against a measured reference peak and is part of
an immutable :class:`MemoryCalibration` record, never global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .arch import REFERENCE_CLIP_S, ArchitectureSpec, Precision, WorkloadSpec, base_preset
from .costs import CostReport, forward_flops
from .errors import ConfigError

GB = 1e9
BACKWARD_FLOP_MULTIPLIER = 2.0  # backward ~= 2x forward for matmul-dominated nets

#: The workload of the activation-profiler peak the default calibration is
#: fitted on: the base encoder trained on 5.5 s clips at batch 4, full precision.
REFERENCE_WORKLOAD = WorkloadSpec(REFERENCE_CLIP_S, batch=4, precision=Precision.FP32)

DEFAULT_RUNTIME_OVERHEAD_BYTES = 400e6  # interpreter + framework + loader floor
DEFAULT_RESIDENCY_FACTOR = 3.2  # backward temporaries + allocator slack, whole process

# Bytes per parameter held across a training step with Adam: fp32 weights 4,
# grads 4, two moments 8. Mixed precision keeps fp32 masters and adds fp16
# working weights and grads, which lands on the same total.
TRAINING_STATIC_BYTES_PER_PARAM = 16


@dataclass(frozen=True)
class MemoryCalibration:
    """Immutable calibration constants for the memory models, keyed as the
    ``memory`` config section. ``activation_overhead`` (kappa) is fitted on
    construction, so that the reference workload peaks at the reference peak."""

    runtime_overhead_gb: float = DEFAULT_RUNTIME_OVERHEAD_BYTES / GB
    residency_factor: float = DEFAULT_RESIDENCY_FACTOR
    reference_peak_gb: float = 2.54  # measured peak of REFERENCE_WORKLOAD
    activation_overhead: float = field(init=False)

    def __post_init__(self) -> None:
        if self.runtime_overhead_gb < 0:
            raise ConfigError(f"runtime_overhead_gb must be >= 0, got {self.runtime_overhead_gb}")
        if self.residency_factor <= 0:
            raise ConfigError(f"residency_factor must be > 0, got {self.residency_factor}")
        object.__setattr__(self, "activation_overhead", fit_activation_overhead(
            base_preset(), REFERENCE_WORKLOAD, self.reference_peak_gb * GB,
            self.runtime_overhead_bytes))

    @property
    def runtime_overhead_bytes(self) -> float:
        return self.runtime_overhead_gb * GB


@dataclass(frozen=True)
class MemoryTimeline:
    """Forward-order activation accumulation and the resulting peak.

    ``static_bytes`` here is the sequence-length-independent portion present
    while the forward pass runs: fp32 weights plus the runtime floor. The
    peak is ``static_bytes + kappa * cumulative_bytes[-1]`` and lands on the
    last forward layer, where everything retained for backward coexists.
    """

    arch_name: str
    layer_labels: tuple[str, ...]
    layer_kinds: tuple[str, ...]
    per_layer_bytes: tuple[float, ...]
    cumulative_bytes: tuple[float, ...]
    static_bytes: float
    activation_overhead: float

    @property
    def activation_bytes(self) -> float:
        return self.cumulative_bytes[-1] if self.cumulative_bytes else 0.0

    @property
    def peak_bytes(self) -> float:
        return self.static_bytes + self.activation_overhead * self.activation_bytes


def training_flops(report: CostReport) -> float:
    """Training FLOPs of a forward cost report: forward plus 2x forward."""
    fwd = report.total_fwd_flops
    return fwd + BACKWARD_FLOP_MULTIPLIER * fwd


def static_memory(report: CostReport) -> int:
    """Weights + gradients + optimizer state, in bytes."""
    return report.total_params * TRAINING_STATIC_BYTES_PER_PARAM


def weight_bytes(report: CostReport) -> int:
    """fp32 master weights only."""
    return report.total_params * 4


def fit_activation_overhead(arch: ArchitectureSpec, workload: WorkloadSpec,
                            measured_peak_bytes: float,
                            runtime_overhead_bytes: float = DEFAULT_RUNTIME_OVERHEAD_BYTES,
                            ) -> float:
    """Solve kappa so the modelled peak matches one measured point."""
    report = forward_flops(arch, workload)
    activations = report.total_activation_bytes_per_sample * workload.batch
    static = weight_bytes(report) + runtime_overhead_bytes
    if activations <= 0:
        raise ConfigError("cannot fit the activation overhead on zero activations")
    if measured_peak_bytes <= static:
        raise ConfigError("measured peak is below the static floor; "
                          "check the measurement or the overhead setting")
    return (measured_peak_bytes - static) / activations


@lru_cache(maxsize=1)
def default_calibration() -> MemoryCalibration:
    """Calibration fitted on the bundled reference measurement."""
    return MemoryCalibration()


def memory_timeline(arch: ArchitectureSpec, workload: WorkloadSpec,
                    calibration: Optional[MemoryCalibration] = None) -> MemoryTimeline:
    """Per-layer retained bytes in forward order, with the calibrated peak."""
    cal = calibration or default_calibration()
    report = forward_flops(arch, workload)
    batch = workload.batch
    per_layer = tuple(b * batch for b in report.activation_bytes_per_sample)
    return MemoryTimeline(
        arch_name=arch.name, layer_labels=report.labels,
        layer_kinds=tuple(kind.value for kind in report.kinds),
        per_layer_bytes=per_layer, cumulative_bytes=tuple(accumulate(per_layer)),
        static_bytes=weight_bytes(report) + cal.runtime_overhead_bytes,
        activation_overhead=cal.activation_overhead)
