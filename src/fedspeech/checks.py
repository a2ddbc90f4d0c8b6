"""Built-in reference checks.

Runs every analytic model against the reference figures bundled with the
presets and device profiles (parameter and FLOP breakdowns, the two
measured memory points, device time ratios, federated wall-clock totals,
the trend forecast) plus the behavioural guarantees of the aggregation
engine and the partitioner. ``fedspeech validate`` prints one line per
check; the test suite runs the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .aggregation import (AggMethod, AggregationConfig, ClientUpdate, SyntheticFLConfig,
                          aggregate, run_synthetic_fl)
from .arch import REFERENCE_CLIP_S, Precision, WorkloadSpec, get_preset
from .costs import forward_flops
from .devices import (FitVerdict, check_fit, get_profile, predict_batch_time,
                      training_residency_bytes)
from .federation import (IDEALISED_SAMPLES_PER_CLIENT, WallClockEstimate,
                         estimate_wall_clock, partition_by_speaker, schedule_rounds,
                         synthetic_manifest, uniform_partition)
from .memory import GB, default_calibration, memory_timeline
from .trend import DEFAULT_BASE_YEAR, speedup_after, years_to_parity


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome. A check that compares one number with a bound or
    a range keeps that number in ``value`` and the bound or the range's two
    ends in ``bounds``; a check of a property keeps neither."""

    name: str
    passed: bool
    detail: str
    value: Optional[float] = None
    bounds: tuple[float, ...] = ()

    @property
    def margin(self) -> Optional[float]:
        """``value``'s relative distance from the nearer of ``bounds``,
        ``|value / bound - 1|``, or None for a check of a property. A bound
        of 0 is skipped: nothing has a relative distance to it."""
        if self.value is None:
            return None
        return min(abs(self.value / bound - 1.0) for bound in self.bounds if bound)


def _rel(value: float, target: float) -> float:
    return value / target - 1.0


def _within(name: str, value: float, target: float, tol: float,
            unit: str = "") -> CheckResult:
    rel = _rel(value, target)
    return CheckResult(name, abs(rel) <= tol,
                       f"{value:.4g}{unit} vs {target:.4g}{unit} "
                       f"({rel:+.2%}, tol {tol:.0%})",
                       float(value), (target * (1.0 - tol), target * (1.0 + tol)))


def _in_range(name: str, value: float, lo: float, hi: float) -> CheckResult:
    return CheckResult(name, lo <= value <= hi,
                       f"{value:.4g} in [{lo:.4g}, {hi:.4g}]", float(value), (lo, hi))


# --------------------------------------------------------------------- params

_PARAM_TARGETS = {  # millions
    "base": {"cnn_encoder": 4.60, "transformer": 89.78, "quantizer": 0.41,
             "total": 94.79},
    "large": {"cnn_encoder": 4.73, "transformer": 310.70, "quantizer": 0.57,
              "total": 316.00},
}


def param_checks() -> list[CheckResult]:
    out = []
    for preset, targets in _PARAM_TARGETS.items():
        report = forward_flops(get_preset(preset), WorkloadSpec(batch=1))
        for key, target in targets.items():
            tol = 0.01 if key == "total" else 0.02
            value = (report.total_params if key == "total"
                     else report.module_totals[key][0]) / 1e6
            out.append(_within(f"params/{preset}/{key}", value, target, tol, " M"))
    return out


# ---------------------------------------------------------------------- flops

_FLOP_TARGETS = {  # gigaflops at the reference clip, batch 1
    "base": {"cnn_encoder": (27.20, 0.05), "transformer": (49.16, 0.05),
             "quantizer": (0.32, 0.25), "total": (76.68, 0.05)},
    "large": {"quantizer": (0.94, 0.25), "total": (198.32, 0.05)},
}


def flop_checks() -> list[CheckResult]:
    out = []
    workload = WorkloadSpec(batch=1)
    for preset, targets in _FLOP_TARGETS.items():
        report = forward_flops(get_preset(preset), workload)
        for key, (target, tol) in targets.items():
            value = (report.total_fwd_flops if key == "total"
                     else report.module_totals[key][1]) / 1e9
            out.append(_within(f"flops/{preset}/{key}", value, target, tol, " GF"))
    return out


# --------------------------------------------------------------------- memory


def memory_checks() -> list[CheckResult]:
    out = []
    cal = default_calibration()
    arch = get_preset("base")
    out.append(_in_range("memory/activation-overhead", cal.activation_overhead,
                         0.5, 2.5))

    t1 = memory_timeline(arch, WorkloadSpec(batch=4), cal)
    t2 = memory_timeline(arch, WorkloadSpec(12.0, batch=8), cal)
    out.append(_within("memory/calibration-point", t1.peak_bytes / GB, 2.54, 1e-9, " GB"))
    out.append(_within("memory/two-point", t2.peak_bytes / GB, 9.89, 0.15, " GB"))
    ratio = (t2.peak_bytes - t2.static_bytes) / (t1.peak_bytes - t1.static_bytes)
    out.append(_within("memory/activation-ratio", ratio, (8 * 12) / (4 * REFERENCE_CLIP_S), 0.02))
    return out


# -------------------------------------------------------------------- scaling


def scaling_checks() -> list[CheckResult]:
    out = []
    arch = get_preset("base")
    worst_f, worst_m = 2.0, 2.0
    for t in (3.0, 4.0, 5.5, 7.0, 8.5, 10.0, 12.0, 13.5, 15.0):
        f1 = forward_flops(arch, WorkloadSpec(t, batch=1))
        f2 = forward_flops(arch, WorkloadSpec(2 * t, batch=1))
        rf = f2.total_fwd_flops / f1.total_fwd_flops
        rm = (f2.total_activation_bytes_per_sample
              / f1.total_activation_bytes_per_sample)
        if abs(rf - 2) > abs(worst_f - 2):
            worst_f = rf
        if abs(rm - 2) > abs(worst_m - 2):
            worst_m = rm
    out.append(_in_range("scaling/flops-doubling", worst_f, 1.95, 2.15))
    out.append(_in_range("scaling/memory-doubling", worst_m, 1.95, 2.15))

    fp32_peak, mixed_peak = (memory_timeline(arch, WorkloadSpec(batch=4, precision=p))
                             .peak_bytes for p in (Precision.FP32, Precision.MIXED))
    saving = (fp32_peak - mixed_peak) / fp32_peak
    out.append(CheckResult("scaling/mixed-saving", 0.0 < saving < 0.35,
                           f"mixed precision saves {saving:.1%} of the fp32 peak "
                           "(must stay under 35%)", saving, (0.0, 0.35)))
    return out


# -------------------------------------------------------------- device ratios


def _anchor_time(device: str, arch: str, batch: int, precision: Precision) -> float:
    profile = get_profile(device)
    pred = predict_batch_time(
        profile, get_preset(arch),
        WorkloadSpec(batch=batch, precision=precision))
    return pred.seconds_per_batch


def device_ratio_checks() -> list[CheckResult]:
    out = []
    fp32, mixed = Precision.FP32, Precision.MIXED
    ratios = [
        ("devices/macbook-vs-a40-base-b1",
         _anchor_time("macbook", "base", 1, fp32) / _anchor_time("a40", "base", 1, fp32),
         30.3, 0.10),
        ("devices/macbook-vs-a40-large-b1",
         _anchor_time("macbook", "large", 1, fp32) / _anchor_time("a40", "large", 1, fp32),
         39.5, 0.10),
        ("devices/rpi-vs-macbook-base-b1",
         _anchor_time("rpi", "base", 1, fp32) / _anchor_time("macbook", "base", 1, fp32),
         4.4, 0.05),
        ("devices/rpi-vs-a40-base-b1",
         _anchor_time("rpi", "base", 1, fp32) / _anchor_time("a40", "base", 1, fp32),
         138.0, 0.05),
        ("devices/nx-mixed-speedup-b4",
         _anchor_time("nx", "base", 4, fp32) / _anchor_time("nx", "base", 4, mixed),
         1.56, 0.03),
        ("devices/agx-mixed-speedup-b4",
         _anchor_time("agx", "base", 4, fp32) / _anchor_time("agx", "base", 4, mixed),
         1.31, 0.03),
    ]
    out += [_within(name, value, target, tol) for name, value, target, tol in ratios]

    # Per-sequence time reduction from batch 1 to batch 4, percentage points.
    for device, target in [("macbook", 15.0), ("rpi", 20.0), ("agx", 29.0), ("nx", 33.0)]:
        b1 = _anchor_time(device, "base", 1, fp32)
        b4 = _anchor_time(device, "base", 4, fp32) / 4.0
        reduction = (1.0 - b4 / b1) * 100.0
        out.append(CheckResult(
            f"devices/{device}-batch4-reduction", abs(reduction - target) <= 2.0,
            f"{reduction:.1f} pp vs {target:.0f} pp (tol 2 pp)", reduction,
            (target - 2.0, target + 2.0)))
    return out


# ----------------------------------------------------------------- memory fit

# Measured feasibility of every (device, preset, batch, precision) cell:
# True means training ran, False means it hit out-of-memory.
_FEASIBILITY_TABLE = [
    ("a40", "base", 1, "fp32", True), ("a40", "base", 1, "mixed", True),
    ("a40", "base", 4, "fp32", True), ("a40", "base", 4, "mixed", True),
    ("a40", "large", 1, "fp32", True), ("a40", "large", 1, "mixed", True),
    ("a40", "large", 4, "fp32", True), ("a40", "large", 4, "mixed", True),
    ("macbook", "base", 1, "fp32", True), ("macbook", "base", 4, "fp32", True),
    ("macbook", "large", 1, "fp32", True), ("macbook", "large", 4, "fp32", True),
    ("rpi", "base", 1, "fp32", True), ("rpi", "base", 4, "fp32", True),
    ("rpi", "large", 1, "fp32", False), ("rpi", "large", 4, "fp32", False),
    ("agx", "base", 1, "fp32", True), ("agx", "base", 1, "mixed", True),
    ("agx", "base", 4, "fp32", True), ("agx", "base", 4, "mixed", True),
    ("agx", "large", 1, "fp32", True), ("agx", "large", 1, "mixed", True),
    ("agx", "large", 4, "fp32", False), ("agx", "large", 4, "mixed", True),
    ("nx", "base", 1, "fp32", True), ("nx", "base", 1, "mixed", True),
    ("nx", "base", 4, "fp32", True), ("nx", "base", 4, "mixed", True),
    ("nx", "large", 1, "fp32", False), ("nx", "large", 1, "mixed", False),
    ("nx", "large", 4, "fp32", False), ("nx", "large", 4, "mixed", False),
]


def memory_fit_checks() -> list[CheckResult]:
    out = []
    for device, preset, batch, precision, ran in _FEASIBILITY_TABLE:
        profile = get_profile(device)
        workload = WorkloadSpec(batch=batch, precision=Precision(precision))
        peak = training_residency_bytes(get_preset(preset), workload).total
        verdict = check_fit(profile, peak)
        wanted = ({FitVerdict.FITS, FitVerdict.MARGINAL} if ran
                  else {FitVerdict.OOM, FitVerdict.MARGINAL})
        out.append(CheckResult(
            f"fit/{device}/{preset}-b{batch}-{precision}",
            verdict in wanted,
            f"{peak / GB:.2f} GB vs {profile.memory_budget_bytes / GB:.1f} GB "
            f"budget -> {verdict.value} ({'ran' if ran else 'oom'} on device)",
            peak, (profile.memory_budget_bytes,)))
    return out


# ----------------------------------------------------------------- wall clock


def wall_clock_checks() -> list[CheckResult]:
    out = []
    arch, workload = get_preset("base"), WorkloadSpec(batch=4)
    partition = uniform_partition(10, IDEALISED_SAMPLES_PER_CLIENT)
    schedule = schedule_rounds(10, 10, 150, seed=1)

    def estimate(device: str) -> WallClockEstimate:
        pred = predict_batch_time(get_profile(device), arch, workload)
        return estimate_wall_clock(partition, schedule, pred, arch, workload)

    est = estimate("a40")
    epoch_h = est.seconds_per_local_epoch[0].item() / 3600.0
    out.append(_within("wallclock/a40-epoch-hours", epoch_h, 0.37, 0.02, " h"))
    out.append(_within("wallclock/a40-total-hours", est.total_hours, 55.5, 0.02, " h"))
    for device, days in [("macbook", 110.0), ("rpi", 456.0), ("agx", 9.0), ("nx", 15.0)]:
        out.append(_within(f"wallclock/{device}-days", estimate(device).total_days, days,
                           0.05, " d"))
    return out


# ---------------------------------------------------------------------- trend


def trend_checks() -> list[CheckResult]:
    out = []
    nx = _anchor_time("nx", "base", 4, Precision.FP32)
    a40 = _anchor_time("a40", "base", 4, Precision.FP32)
    out.append(_in_range("trend/nx-parity-year",
                         DEFAULT_BASE_YEAR + years_to_parity(nx, a40), 2026.0, 2028.0))
    out.append(_within("trend/one-doubling", speedup_after(1.5), 2.0, 1e-12))
    years = years_to_parity(8.0, 1.0)
    out.append(_within("trend/ratio-8-years", years, 4.5, 1e-12, " y"))
    return out


# ---------------------------------------------------------- aggregation rules


def aggregation_checks(trials: int = 10_000, seed: int = 5) -> list[CheckResult]:
    out = []
    fedavg = AggregationConfig(method=AggMethod.FEDAVG)
    v1 = aggregate([ClientUpdate("a", np.array([0.0, 2.0]), 1),
                    ClientUpdate("b", np.array([4.0, 0.0]), 3)], fedavg)
    error = float(np.max(np.abs(v1 - np.array([3.0, 0.5]))))
    out.append(CheckResult("agg/fedavg-hand", error < 1e-12, f"got {v1.tolist()}",
                           error, (1e-12,)))

    cfg = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=1.0)
    v2 = aggregate([ClientUpdate("a", np.array([1.0, 0.0]), 5, local_loss=1.0),
                    ClientUpdate("b", np.array([0.0, 1.0]), 5, local_loss=2.0)], cfg)
    error = float(np.max(np.abs(v2 - np.array([2 / 3, 1 / 3]))))
    out.append(CheckResult("agg/loss-weighted-hand", error < 1e-12, f"got {v2.tolist()}",
                           error, (1e-12,)))

    rng = np.random.default_rng(seed)
    alpha0 = AggregationConfig(method=AggMethod.LOSS_WEIGHTED, alpha=0.0)
    reduction_ok = hull_ok = perm_ok = True
    scale_change = 0.0
    for _ in range(1000):
        updates = _random_updates(rng)
        if not np.array_equal(aggregate(updates, alpha0), aggregate(updates, fedavg)):
            reduction_ok = False
    for _ in range(trials):
        updates = _random_updates(rng)
        agg = aggregate(updates, fedavg)
        stack = np.stack([u.weights for u in updates])
        if not (np.all(agg >= stack.min(axis=0) - 1e-9)
                and np.all(agg <= stack.max(axis=0) + 1e-9)):
            hull_ok = False
        shuffled = [updates[i] for i in rng.permutation(len(updates))]
        if not np.array_equal(aggregate(shuffled, fedavg), agg):
            perm_ok = False
        scaled = [ClientUpdate(u.client_id, u.weights, u.n_samples * 10, u.local_loss)
                  for u in updates]
        scale_change = max(scale_change, float(np.max(np.abs(aggregate(scaled, fedavg) - agg))))
    out.append(CheckResult("agg/alpha0-reduction", reduction_ok,
                           "alpha=0 identical to fedavg on 1000 random inputs"))
    out.append(CheckResult("agg/convex-hull", hull_ok,
                           f"coordinate bounds hold on {trials} random inputs"))
    out.append(CheckResult("agg/permutation-invariance", perm_ok,
                           f"order never changes the result ({trials} trials)"))
    out.append(CheckResult("agg/weight-scale-invariance", scale_change <= 1e-12,
                           f"scaling all n_k by 10 is a no-op ({trials} trials)",
                           scale_change, (1e-12,)))
    return out


def _random_updates(rng: np.random.Generator) -> list[ClientUpdate]:
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(1, 8))
    return [ClientUpdate(f"c{i}", rng.normal(size=dim),
                         int(rng.integers(1, 100)), float(rng.uniform(0.01, 5.0)))
            for i in range(n)]


# --------------------------------------------------------------- synthetic FL


def synthetic_fl_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(11)

    # Full participation converges to the weighted mean of the optima.
    optima = rng.normal(size=(10, 6))
    n_samples = tuple(int(x) for x in rng.integers(50, 200, size=10))
    cfg = SyntheticFLConfig(optima=optima, n_samples=n_samples, rounds=60, seed=3)
    traj = run_synthetic_fl(cfg, AggregationConfig(method=AggMethod.FEDAVG))
    dist = float(np.linalg.norm(traj.final_weights - cfg.population_optimum()))
    out.append(CheckResult("flsim/fedavg-fixed-point", dist < 1e-6,
                           f"final distance to weighted mean {dist:.2e}", dist, (1e-6,)))

    # One persistent outlier: loss-weighted lands closer to the inlier mean.
    inliers = rng.normal(size=(9, 4)) * 0.2
    outlier = np.full((1, 4), 8.0)
    cfg_out = SyntheticFLConfig(optima=np.vstack([inliers, outlier]),
                                n_samples=(10,) * 10, learning_rate=0.2,
                                local_steps=2, rounds=40, seed=3)
    inlier_mean = inliers.mean(axis=0)
    fa = run_synthetic_fl(cfg_out, AggregationConfig(method=AggMethod.FEDAVG))
    lw = run_synthetic_fl(cfg_out, AggregationConfig(method=AggMethod.LOSS_WEIGHTED,
                                                     alpha=1.0))
    d_fa = float(np.linalg.norm(fa.final_weights - inlier_mean))
    d_lw = float(np.linalg.norm(lw.final_weights - inlier_mean))
    out.append(CheckResult("flsim/outlier-downweighting", d_lw < d_fa,
                           f"loss-weighted {d_lw:.3f} vs fedavg {d_fa:.3f} "
                           "from the inlier consensus", d_lw, (d_fa,)))

    # Partial participation (20 of 100) needs strictly more rounds than
    # 10 of 10 to reach the same population loss.
    r10, r100, threshold = participation_round_counts()
    ok = r10 is not None and r100 is not None and r100 > r10
    out.append(CheckResult("flsim/partial-participation-slower", ok,
                           f"rounds to loss {threshold:.3g}: 10/10 -> {r10}, "
                           f"20/100 -> {r100}", *((r100, (r10,)) if ok else ())))
    return out


def participation_round_counts(seed: int = 17) -> tuple[Optional[int], Optional[int], float]:
    """Rounds needed to reach a fixed population loss with full vs partial
    participation; returns (rounds_10_of_10, rounds_20_of_100, threshold).

    The 100-client population holds the same ten optima, each split into ten
    jittered shards: same weighted mean, but a strictly higher loss floor
    (the smaller, noisier shards of a harder setting). The shared threshold
    therefore sits closer to the 100-client floor, and on top of that the
    20-of-100 sampling adds round-to-round drift, so the partial run needs
    strictly more rounds for every tested seed.
    """
    rng = np.random.default_rng(seed)
    dim = 6
    optima10 = 3.0 + rng.normal(size=(10, dim))
    optima100 = np.tile(optima10, (10, 1)) + rng.normal(scale=0.4, size=(100, dim))
    cfg10 = SyntheticFLConfig(optima=optima10, n_samples=(100,) * 10,
                              learning_rate=0.05, local_steps=1, rounds=400, seed=seed)
    cfg100 = SyntheticFLConfig(optima=optima100, n_samples=(10,) * 100,
                               learning_rate=0.05, local_steps=1, rounds=1200,
                               per_round=20, seed=seed)
    threshold = cfg10.population_loss(cfg10.population_optimum()) + 1.0
    agg = AggregationConfig(method=AggMethod.FEDAVG)
    r10 = run_synthetic_fl(cfg10, agg).rounds_to_loss(threshold)
    r100 = run_synthetic_fl(cfg100, agg).rounds_to_loss(threshold)
    return r10, r100, threshold


# ---------------------------------------------------------------- partitioner


def partitioner_checks() -> list[CheckResult]:
    out = []
    manifest = synthetic_manifest()
    total_h = np.cumsum(manifest.durations_s)[-1].item() / 3600.0  # added in row order
    out.append(_within("partition/fixture-hours", total_h, 298.0, 0.01, " h"))

    clients = 10
    part = partition_by_speaker(manifest, clients, seed=2)
    counts = part.n_utterances.tolist()
    even = len(manifest) // clients  # each client's clips in an even split, +-5 %
    low, high = even - even // 20, even + even // 20
    farthest = max(counts, key=lambda c: abs(c - even))
    out.append(CheckResult("partition/client-counts", low <= farthest <= high,
                           f"counts {min(counts)}..{max(counts)} vs {even} +-5%",
                           farthest, (low, high)))
    ratio = part.total_duration_s.max().item() / part.total_duration_s.min().item()
    out.append(CheckResult("partition/duration-balance", ratio <= 1.1,
                           f"max/min client duration {ratio:.4f} (limit 1.1)", ratio, (1.1,)))
    # every speaker held by exactly one client
    held = np.bincount(part.speakers, minlength=len(manifest.speaker_rows))
    disjoint = bool((held == 1).all())
    covered = sum(counts) == len(manifest)
    out.append(CheckResult("partition/speaker-disjoint", disjoint and covered,
                           "speaker sets disjoint and every utterance assigned"))

    again = partition_by_speaker(manifest, clients, seed=2)
    identical = np.array_equal(part.n_speakers, again.n_speakers) and \
        np.array_equal(part.speakers, again.speakers)
    out.append(CheckResult("partition/deterministic", identical,
                           "repeated seeded runs are identical"))
    return out


# ----------------------------------------------------------------- the runner

CHECK_GROUPS: list[tuple[str, Callable[[], list[CheckResult]]]] = [
    ("parameter totals", param_checks),
    ("inference flops", flop_checks),
    ("memory model", memory_checks),
    ("scaling behaviour", scaling_checks),
    ("device time ratios", device_ratio_checks),
    ("device memory fit", memory_fit_checks),
    ("federated wall clock", wall_clock_checks),
    ("hardware trend", trend_checks),
    ("aggregation rules", aggregation_checks),
    ("synthetic federated run", synthetic_fl_checks),
    ("speaker partitioner", partitioner_checks),
]


def run_all_checks() -> list[CheckResult]:
    results: list[CheckResult] = []
    for _, fn in CHECK_GROUPS:
        results.extend(fn())
    return results
