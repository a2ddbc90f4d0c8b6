"""Command-line entry point.

Subcommands::

    analyze       per-layer and per-module parameter / FLOP breakdown
    memory        forward-pass memory timeline and peak
    predict-time  seconds per batch on a device, with a memory-fit verdict
    fl-plan       partition + schedule + wall-clock + communication estimate
    fl-sim        synthetic federated run with fedavg or loss-weighted serving
    forecast      device parity year under a compute-doubling trend
    validate      run every built-in reference check and print a table

Exit codes: 0 success, 1 a failed ``validate`` check, 2 configuration or
validation error, 3 data error (manifest problems), 4 infeasible request
(failed memory fit with --fail-on-oom); each error type carries its code.
Reports embed the resolved configuration and are byte-identical across
runs with the same inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .aggregation import AggMethod, AggregationConfig, SyntheticFLConfig, run_synthetic_fl
from .arch import REFERENCE_CLIP_S, Precision, WorkloadSpec, arch_to_mapping
from .config import (FlSettings, config_fingerprint, load_config, resolve_arch,
                     resolve_calibration, resolve_profiles)
from .costs import forward_flops, module_rollup
from .devices import MARGINAL_BAND, DeviceProfile, FitVerdict, Residency, TimePrediction, \
    check_fit, get_profile, predict_batch_time, training_residency_bytes
from .errors import ConfigError, FedspeechError, InfeasibleError, MissingAnchorError, \
    allocating
from .federation import (IDEALISED_SAMPLES_PER_CLIENT, estimate_communication,
                         estimate_wall_clock, partition_by_speaker, round_stragglers,
                         schedule_rounds, uniform_partition)
from .lazy import np
from .memory import GB, MemoryCalibration, memory_timeline
from .report import (COST_CSV_HEADER, PLAN_CSV_HEADER, TIMELINE_CSV_HEADER,
                     TRAJECTORY_CSV_HEADER, cost_report_payload, cost_report_rows,
                     partition_payload, plan_rows, schedule_payload, straggler_rows,
                     timeline_payload, timeline_rows, trajectory_payload, trajectory_rows,
                     wall_clock_payload, write_csv, write_json)
from .settings import blamed_on, read, to_mapping
from .trend import DEFAULT_BASE_YEAR, DEFAULT_DOUBLING_MONTHS, years_to_parity

EXIT_OK = 0

# fl-sim's clients all hold this many samples; aggregation normalises an
# equal count away, and 100 keeps the bits of the reports written before.
SYNTHETIC_SAMPLES_PER_CLIENT = 100


def _meta(args: argparse.Namespace, arch=None, profiles=(), **extra) -> dict:
    """A report's resolved inputs and their fingerprint, which changes with
    every input that changes a number in the report. A device is recorded by
    its name and the digest of all it holds, anchors included."""
    resolved = {"command": args.command, **extra}
    if arch is not None:
        resolved["arch"] = arch_to_mapping(arch)
    if profiles:
        resolved["profiles"] = {p.name: _profile_digest(p) for p in profiles}
    resolved["fingerprint"] = config_fingerprint(resolved)
    return resolved


@functools.cache  # profiles are frozen, and a process reads few of them
def _profile_digest(profile: DeviceProfile) -> str:
    return config_fingerprint({**to_mapping(profile),
                               "anchors": [to_mapping(a) for a in profile.anchors]})


def _workload_from(args: argparse.Namespace, cfg: dict,
                   base: WorkloadSpec | None = None) -> WorkloadSpec:
    """The config's workload section under the workload flags the command has."""
    return read(WorkloadSpec, cfg.get("workload", {}), "workload", base,
                duration_s=args.duration, batch=args.batch,
                precision=args.precision and Precision(args.precision))


def _anchor_line(profile: DeviceProfile, workload: WorkloadSpec, pred: TimePrediction) -> str:
    """The anchor a prediction for ``workload`` on ``profile`` was calibrated
    from, and the training FLOP/s it gave."""
    anchor = pred.anchor_used
    return (f"anchor: {anchor.arch} at batch {anchor.batch}, {anchor.precision.value}, "
            f"{anchor.duration_s} s clips: {anchor.seconds_per_batch} s/batch on {profile.name} "
            f"(batch distance {abs(anchor.batch - workload.batch)}); calibrated "
            f"{pred.effective_throughput:.6g} training FLOP/s")


def _kappa_line(cal: MemoryCalibration) -> str:
    return (f"kappa: {cal.activation_overhead:.6g}, fitted to a reference peak of "
            f"{cal.reference_peak_gb} GB (the memory timeline's; the fit scales activations "
            "by the residency factor)")


def _fit_lines(profile: DeviceProfile, cal: MemoryCalibration, residency: Residency,
               verdict: FitVerdict) -> list[str]:
    """The residency's three parts, and the fit's margin and band."""
    budget = profile.memory_budget_bytes
    margin = budget - residency.total
    return [
        f"residency: {residency.total / GB:.4f} GB = statics {residency.statics / GB:.4f} GB "
        f"+ runtime floor {residency.runtime_floor / GB:.4f} GB + activations "
        f"{residency.activations / GB:.4f} GB ({cal.residency_factor} x those retained)",
        f"fit: {verdict.value}, margin {margin / GB:+.4f} GB ({margin / budget:+.2%}) of a "
        f"{budget / GB:.4f} GB budget; marginal within {MARGINAL_BAND:.0%} of it",
    ]


def _fit_and_time(args: argparse.Namespace, arch, workload: WorkloadSpec, cal,
                  profile) -> tuple[TimePrediction, Residency, FitVerdict, list[str]]:
    """The training residency of ``workload``, its fit on ``profile``, its
    predicted batch time there and, under --explain, the lines that explain
    them. The fit is answered first: with --fail-on-oom a workload that does
    not fit exits 4, and the line also names a missing anchor; otherwise a
    missing anchor exits 2, and under --explain its line also gives the fit."""
    residency = training_residency_bytes(arch, workload, cal)
    verdict = check_fit(profile, residency.total)
    fit = _fit_lines(profile, cal, residency, verdict) if args.explain else []
    try:
        pred, missing = predict_batch_time(profile, arch, workload), ""
    except MissingAnchorError as exc:
        pred, missing = None, str(exc)
    if args.fail_on_oom and verdict is FitVerdict.OOM:
        raise InfeasibleError(
            f"{arch.name} at batch {workload.batch} on {workload.duration_s} s clips does "
            f"not fit on {profile.name}: {residency.total / 1e9:.2f} GB vs "
            f"{profile.memory_budget_bytes / 1e9:.2f} GB" + (missing and f", and {missing}"))
    if missing:  # a refusal stays one line
        raise MissingAnchorError("; ".join([missing, *fit]))
    explanation = [_anchor_line(profile, workload, pred), _kappa_line(cal), *fit] \
        if args.explain else []
    return pred, residency, verdict, explanation


def _explain(*lines: str) -> None:
    """Write to stderr how a command's numbers were made, from the very values
    its reports hold."""
    print("\n".join(f"explain: {line}" for line in lines), file=sys.stderr)


def _out_dir(args: argparse.Namespace, cfg: dict) -> Path:
    out = Path(args.out or cfg.get("output_dir", "reports"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write reports to {out}: {exc.strerror}") from None
    return out


# ------------------------------------------------------------------ commands


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    arch = resolve_arch(cfg, args.arch)
    workload = _workload_from(args, cfg)
    report = forward_flops(arch, workload)
    meta = _meta(args, arch, workload=to_mapping(workload))
    out = _out_dir(args, cfg)
    rollup = module_rollup(report)
    write_json(out / "analyze.json", cost_report_payload(report, rollup, meta))
    write_csv(out / "analyze.csv", COST_CSV_HEADER, cost_report_rows(report))
    write_csv(out / "analyze_modules.csv", ["module", "params_m", "gflops"],
              [[row["module"], f"{row['params'] / 1e6:.4f}", f"{row['gflops']:.4f}"]
               for row in rollup])
    print(f"{arch.name}: {report.total_params / 1e6:.2f} M params, "
          f"{report.total_fwd_flops / 1e9:.2f} GFLOPs forward "
          f"({workload.duration_s} s, batch {workload.batch})")
    for row in rollup:
        print(f"  {row['module']:<12} {row['params'] / 1e6:10.2f} M "
              f"{row['gflops']:10.2f} GF")
    print(f"wrote {out / 'analyze.json'} and {out / 'analyze.csv'}")
    return EXIT_OK


def cmd_memory(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    arch = resolve_arch(cfg, args.arch)
    workload = _workload_from(args, cfg)
    cal = resolve_calibration(cfg)
    timeline = memory_timeline(arch, workload, cal)
    meta = _meta(args, arch, workload=to_mapping(workload), memory=to_mapping(cal))
    out = _out_dir(args, cfg)
    write_json(out / "memory.json", timeline_payload(timeline, meta))
    write_csv(out / "memory.csv", TIMELINE_CSV_HEADER, timeline_rows(timeline))
    print(f"{arch.name} @ {workload.duration_s} s, batch {workload.batch}, "
          f"{workload.precision.value}: peak {timeline.peak_bytes / 1e9:.2f} GB "
          f"(static {timeline.static_bytes / 1e9:.2f} GB, "
          f"activations {timeline.activation_bytes / 1e9:.2f} GB)")
    print(f"wrote {out / 'memory.json'} and {out / 'memory.csv'}")
    return EXIT_OK


def cmd_predict_time(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    arch = resolve_arch(cfg, args.arch)
    workload = _workload_from(args, cfg)
    profiles = resolve_profiles(cfg)
    profile = get_profile(args.device, profiles)
    cal = resolve_calibration(cfg)
    pred, residency, verdict, explanation = _fit_and_time(args, arch, workload, cal, profile)
    meta = _meta(args, arch, [profile], device=profile.name,
                 workload=to_mapping(workload), memory=to_mapping(cal))
    out = _out_dir(args, cfg)
    write_json(out / "predict_time.json", {
        "meta": meta,
        "device": profile.name,
        "seconds_per_batch": pred.seconds_per_batch,
        "effective_throughput_flops": pred.effective_throughput,
        "anchor": {"arch": pred.anchor_used.arch,
                   "batch": pred.anchor_used.batch,
                   "precision": pred.anchor_used.precision.value,
                   "seconds_per_batch": pred.anchor_used.seconds_per_batch},
        "residency_bytes": residency.total,
        "fit": verdict.value,
    })
    write_csv(out / "predict_time.csv",
              ["device", "arch", "duration_s", "batch", "precision",
               "seconds_per_batch", "fit"],
              [[profile.name, arch.name, workload.duration_s, workload.batch,
                workload.precision.value, f"{pred.seconds_per_batch:.6g}",
                verdict.value]])
    print(f"{profile.name}: {pred.seconds_per_batch:.3f} s/batch for {arch.name} "
          f"({workload.duration_s} s, batch {workload.batch}, "
          f"{workload.precision.value}); memory fit: {verdict.value}")
    print(f"wrote {out / 'predict_time.json'} and {out / 'predict_time.csv'}")
    if args.explain:
        _explain(*explanation)
    return EXIT_OK


def cmd_fl_plan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    fl = read(FlSettings, cfg.get("fl", {}), "fl", clients=args.clients,
              per_round=args.per_round, rounds=args.rounds, local_epochs=args.local_epochs,
              batch=args.batch, seed=args.seed)
    arch = resolve_arch(cfg, args.arch)
    profiles = resolve_profiles(cfg)
    profile = get_profile(args.device or "a40", profiles)
    cal = resolve_calibration(cfg)
    per_round = fl.clients if fl.per_round is None else fl.per_round
    # the fl section's batch is the one trained; the workload section gives
    # the precision, the sample rate and an idealised corpus's clip length
    workload = _workload_from(args, cfg)
    with blamed_on("fl.batch" if args.batch is None else ""):
        workload = replace(workload, batch=fl.batch)

    if args.manifest:  # meta records its content, not its path
        for flag, value, what in (("--samples-per-client", args.samples_per_client, "sizes"),
                                  ("--mean-duration", args.duration, "sets the clips of")):
            if value is not None:
                raise ConfigError(f"{flag} {what} an idealised corpus; "
                                  "it cannot be given with --manifest")
        from .manifest_cache import load_manifest_cached  # hashlib only for a manifest

        # numpy loads in there, beside the manifest's hash
        partition, digest = load_manifest_cached(
            args.manifest, lambda manifest: partition_by_speaker(manifest, fl.clients,
                                                                 fl.seed))
        corpus = {"manifest_sha256": digest}
        # each client trains at its own mean clip length; the longest needs the most memory
        fit_workload = replace(workload, duration_s=partition.mean_duration_s.max().item())
    else:
        # numpy loads here, so its import is timed with the command and not
        # with the first layer that makes an array
        np.ndarray
        samples = IDEALISED_SAMPLES_PER_CLIENT if args.samples_per_client is None \
            else args.samples_per_client
        partition = uniform_partition(fl.clients, samples, workload.duration_s)
        corpus = {"samples_per_client": samples, "duration_s": workload.duration_s}
        fit_workload = workload

    schedule = schedule_rounds(fl.clients, per_round, fl.rounds, fl.seed)
    # the anchor is chosen by the arch, the precision and the batch, so every
    # client the estimate times has the anchor found here
    _, _, verdict, explanation = _fit_and_time(args, arch, fit_workload, cal, profile)
    estimate = estimate_wall_clock(partition, schedule, profile, arch, workload,
                                   fl.local_epochs)
    # before any report, which a refusal to allocate them leaves unwritten
    stragglers = round_stragglers(estimate, schedule, fl.local_epochs) if args.explain \
        else None
    comm = estimate_communication(forward_flops(arch, fit_workload), schedule,
                                  workload.precision)

    meta = _meta(args, arch, [profile], device=profile.name, clients=fl.clients,
                 rounds=fl.rounds, per_round=per_round, batch=fl.batch,
                 local_epochs=fl.local_epochs, seed=fl.seed,
                 precision=workload.precision.value,
                 sample_rate_hz=workload.sample_rate_hz, **corpus)
    out = _out_dir(args, cfg)
    write_json(out / "fl_partition.json", partition_payload(partition, meta))
    write_json(out / "fl_schedule.json", schedule_payload(schedule, meta))
    write_json(out / "fl_plan.json", wall_clock_payload(estimate, comm, meta))
    write_csv(out / "fl_plan.csv", PLAN_CSV_HEADER, plan_rows(partition, estimate))
    print(f"{fl.clients} clients x {fl.rounds} rounds on {profile.name}: "
          f"{estimate.total_hours:.1f} h total ({estimate.total_days:.2f} days), "
          f"{comm / 1e12:.3f} TB moved; memory fit: {verdict.value}")
    print(f"wrote {out / 'fl_plan.json'} (+ partition, schedule, csv)")
    if args.explain:  # last, so that a refusal is never preceded by an explanation
        _explain(*explanation)
        rows = straggler_rows(estimate, stragglers)
        sys.stderr.writelines(rows.texts("explain: " + rows.row, "\n"))
        sys.stderr.write("\n")
    return EXIT_OK


def cmd_fl_sim(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    agg = read(AggregationConfig, cfg.get("aggregation", {}), "aggregation",
               method=args.agg and AggMethod(args.agg), alpha=args.alpha)
    if agg.method is AggMethod.FEDAVG:  # which weights clients by their sample counts alone
        section = cfg.get("aggregation", {})
        for name, given, what in (
                ("--alpha", args.alpha is not None, "weights clients by their loss"),
                ("aggregation.alpha", "alpha" in section, "weights clients by their loss"),
                ("aggregation.epsilon", "epsilon" in section,
                 "floors the losses clients are weighted by")):
            if given:
                raise ConfigError(f"{name} {what}; it cannot be given with fedavg")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if seed < 0 or args.spread < 0:
        raise ConfigError(f"seed and spread must be >= 0, got {seed} and {args.spread}")
    if not math.isfinite(args.spread):
        raise ConfigError(f"spread must be finite, got {args.spread}")
    rng = np.random.default_rng(seed)
    # a negative size leaves the optima empty, which SyntheticFLConfig reports
    with allocating(f"--clients {args.clients} x --dim {args.dim} client optima"):
        optima = rng.normal(scale=args.spread, size=(max(args.clients, 0), max(args.dim, 0)))
    with allocating(f"the sample counts of {len(optima)} clients"):
        n_samples = np.full(len(optima), SYNTHETIC_SAMPLES_PER_CLIENT, np.int64)
    sim = SyntheticFLConfig(
        optima=optima, n_samples=n_samples, learning_rate=args.lr,
        local_steps=args.local_steps, rounds=args.rounds, per_round=args.per_round,
        seed=seed, report_pre_loss=args.pre_loss)
    trajectory = run_synthetic_fl(sim, agg)

    meta = _meta(args, None, agg=agg.method.value, alpha=agg.alpha, epsilon=agg.epsilon,
                 clients=args.clients, per_round=args.per_round or args.clients,
                 rounds=args.rounds, dim=args.dim, lr=args.lr,
                 local_steps=args.local_steps, spread=args.spread, pre_loss=args.pre_loss,
                 seed=seed)
    out = _out_dir(args, cfg)
    write_json(out / "fl_sim.json", trajectory_payload(trajectory, meta))
    write_csv(out / "fl_sim.csv", TRAJECTORY_CSV_HEADER, trajectory_rows(trajectory))
    print(f"{agg.method.value}: {args.rounds} rounds, final population loss "
          f"{trajectory.population_loss[-1]:.4g}, distance to weighted-mean optimum "
          f"{trajectory.distance_to_optimum[-1]:.4g}")
    print(f"wrote {out / 'fl_sim.json'} and {out / 'fl_sim.csv'}")
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    if not math.isfinite(args.base_year):
        raise ConfigError(f"base year must be finite, got {args.base_year}")
    cfg = load_config(args.config)
    profiles = resolve_profiles(cfg)
    arch = resolve_arch(cfg, args.arch)
    device = get_profile(args.device, profiles)
    reference = get_profile(args.reference, profiles)
    # the headline compares batch 4 unless a flag or the config sets the batch
    workload = _workload_from(args, cfg, WorkloadSpec(batch=4))
    headline_key = f"b{workload.batch}-{workload.precision.value}"

    combos = {}  # each combination the anchors can compare and the device is not faster in
    predictions = {}  # the device's and the reference's, by combination
    for batch in sorted({1, 4, workload.batch}):
        for precision in (Precision.FP32, Precision.MIXED):
            key = f"b{batch}-{precision.value}"
            w = replace(workload, batch=batch, precision=precision)
            try:
                predictions[key] = [predict_batch_time(d, arch, w) for d in (device, reference)]
            except MissingAnchorError as exc:
                if key == headline_key:
                    raise ConfigError(
                        f"no anchors for the requested comparison {key}: {exc}") from None
                continue
            slow, fast = (p.seconds_per_batch for p in predictions[key])
            if slow < fast:
                if key == headline_key:
                    raise ConfigError(
                        f"{device.name} is already faster than {reference.name} at {key} "
                        f"(slowdown ratio {slow / fast:.3f} < 1); no parity year to forecast")
                continue
            years = years_to_parity(slow, fast, args.doubling_months)
            combos[key] = {"slow_s": slow, "fast_s": fast, "slowdown_ratio": slow / fast,
                           "years_to_parity": years, "parity_year": args.base_year + years}
    headline = combos[headline_key]

    meta = _meta(args, arch, [device, reference], device=device.name,
                 reference=reference.name, workload=to_mapping(workload),
                 doubling_months=args.doubling_months, base_year=args.base_year)
    out = _out_dir(args, cfg)
    write_json(out / "forecast.json", {"meta": meta, "headline": headline_key,
                                       "combos": combos})
    print(f"{device.name} is {headline['slowdown_ratio']:.1f}x slower than "
          f"{reference.name} ({headline_key}); parity around "
          f"{headline['parity_year']:.1f} with {args.doubling_months:.0f}-month "
          "doubling")
    print(f"wrote {out / 'forecast.json'}")
    if args.explain:
        _explain(*(_anchor_line(d, workload, p)
                   for d, p in zip((device, reference), predictions[headline_key])),
                 f"parity: {headline_key}: {headline['slow_s']:.6g} s/batch on {device.name} "
                 f"/ {headline['fast_s']:.6g} s/batch on {reference.name} = slowdown ratio "
                 f"{headline['slowdown_ratio']:.6g}; {headline['years_to_parity']:.6g} years "
                 f"at {args.doubling_months:g}-month doubling, parity in "
                 f"{headline['parity_year']:.6g}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .checks import run_all_checks  # only validate loads the reference checks

    results = run_all_checks()
    failed = sum(not r.passed for r in results)
    if args.json:
        print(json.dumps([{"name": r.name, "passed": r.passed, "value": r.value,
                           "bounds": list(r.bounds) or None, "margin": r.margin,
                           "detail": r.detail} for r in results], indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


# -------------------------------------------------------------------- parser


def _add_config_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config path (or set FEDSPEECH_CONFIG)")
    p.add_argument("--out", help="output directory (default: reports)")


def _add_common(p: argparse.ArgumentParser, duration: bool = True) -> None:
    _add_config_and_out(p)
    p.add_argument("--arch", help="architecture preset (base or large)")
    if duration:
        p.add_argument("--duration", type=float, help="clip length in seconds")
    p.add_argument("--batch", type=int, help="batch size")
    p.add_argument("--precision", choices=["fp32", "mixed"])


FAIL_ON_OOM_HELP = "exit 4 when the workload does not fit"
EXPLAIN_HELP = "write to stderr the anchor, kappa, the residency's parts"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspeech",
        description="Resource and feasibility planner for federated "
                    "self-supervised speech training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameter and FLOP breakdown")
    _add_common(p)

    p = sub.add_parser("memory", help="forward-pass memory timeline")
    _add_common(p)

    p = sub.add_parser("predict-time", help="per-batch training time on a device")
    _add_common(p)
    p.add_argument("--device", required=True)
    p.add_argument("--fail-on-oom", action="store_true", help=FAIL_ON_OOM_HELP)
    p.add_argument("--explain", action="store_true", help=f"{EXPLAIN_HELP} and the fit margin")

    p = sub.add_parser("fl-plan", help="federated wall-clock and traffic estimate")
    _add_common(p, duration=False)  # an idealised corpus has --mean-duration
    p.add_argument("--manifest", help="TSV manifest; omit for an idealised corpus")
    p.add_argument("--clients", type=int)
    p.add_argument("--per-round", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--local-epochs", type=int)
    p.add_argument("--device")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-per-client", type=int,
                   help="idealised corpus size per client (default: "
                        f"{IDEALISED_SAMPLES_PER_CLIENT}); not with --manifest")
    p.add_argument("--mean-duration", type=float, dest="duration", metavar="MEAN_DURATION",
                   help="idealised clip length in seconds (default: the config's "
                        f"workload.duration_s, else {REFERENCE_CLIP_S}); not with --manifest")
    p.add_argument("--fail-on-oom", action="store_true", help=FAIL_ON_OOM_HELP)
    p.add_argument("--explain", action="store_true",
                   help=f"{EXPLAIN_HELP}, the fit margin and each round's straggler")

    p = sub.add_parser("fl-sim", help="synthetic federated aggregation run")
    _add_config_and_out(p)
    p.add_argument("--agg", choices=["fedavg", "loss", "loss_weighted"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--per-round", type=int)
    p.add_argument("--rounds", type=int, default=SyntheticFLConfig.rounds)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--lr", type=float, default=SyntheticFLConfig.learning_rate)
    p.add_argument("--local-steps", type=int, default=SyntheticFLConfig.local_steps)
    p.add_argument("--spread", type=float, default=1.0,
                   help="stddev of the synthetic client optima")
    p.add_argument("--pre-loss", action="store_true",
                   help="weight by the loss before local training")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("forecast", help="parity-year forecast between two devices")
    _add_common(p)
    p.add_argument("--device", required=True)
    p.add_argument("--reference", default="a40")
    p.add_argument("--doubling-months", type=float, default=DEFAULT_DOUBLING_MONTHS)
    p.add_argument("--base-year", type=float, default=DEFAULT_BASE_YEAR)
    p.add_argument("--explain", action="store_true",
                   help="write to stderr both devices' anchors and the headline's parity "
                        "arithmetic")

    p = sub.add_parser("validate", help="run the built-in reference checks")
    p.add_argument("--json", action="store_true",
                   help="print each check as JSON: name, passed, value, bounds, margin")
    return parser


@functools.cache
def _end_without_teardown() -> None:
    """Once a process: at its exit, move every live object into the
    collector's permanent generation, so the interpreter's last collections
    skip the reference cycles of every module loaded (numpy's among them),
    whose memory the OS takes back anyway. ``main`` returns only once every
    report is closed and renamed and every thread it started is joined;
    ``atexit`` handlers still run, the standard streams are still flushed,
    and an object freed by its reference count is still freed. Not under
    ``-X dev``, which asks to see what finalizers warn of."""
    if sys.flags.dev_mode:
        return
    import atexit
    import gc

    atexit.register(gc.freeze)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for the life of the process, built on the
    first call. Parsing leaves it unchanged: every default is immutable and
    each ``parse_args`` fills a fresh ``Namespace``."""
    return build_parser()


def main(argv=None) -> int:
    # numpy's BLAS runs on the calling thread. Its pool of threads would only
    # spin beside fedspeech's own (the manifest hash), and the one BLAS call
    # made (the norm in aggregation) rounds with the pool's size, so a report
    # would depend on the core count. numpy loads inside a command, after this.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _end_without_teardown()
    args = _parser().parse_args(argv)
    # The handler is looked up when the command runs, so one that replaces a
    # ``cmd_*`` after the parser is built is the one called.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except FedspeechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
