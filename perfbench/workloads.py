"""The four workloads: how each op's flags are drawn and which checks apply.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished. Ops come in rounds (one op, or six for
planner-sweep) and a run always ends on a whole round, so each run has the
same mix of operations whatever its seed or length. Flags for each op are
drawn from a generator seeded by ``--seed``; the program receives only those
flags and, for corpus-plan, the cached manifest.
"""

from __future__ import annotations

import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import checks
from checks import ANCHOR_DURATION_S, DEVICES, CheckFailed
from speed import WINDOW_S, Sampler

# Devices by canonical name; every one has a base, batch-4, fp32 anchor.
DEVICE_NAMES = tuple(sorted(DEVICES))


@dataclass
class Op:
    argv: list
    ctx: dict
    checks: tuple


@dataclass
class Workload:
    name: str
    in_process: bool  # ops run through fedspeech.cli.main inside one worker
    rounds: Callable[[random.Random, dict], Iterator[list]]
    uses_manifest: bool = False
    min_rounds: int = 1
    # Untimed checks made once per run: (rng, state, execute, out) -> errors
    run_checks: Optional[Callable] = None


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -------------------------------------------------------------- corpus-plan

CORPUS = {"clients": 10, "rounds": 150, "batch": 4}


def corpus_rounds(rng, state):
    manifest, facts = state["manifest"], state["facts"]
    while True:
        device = rng.choice(DEVICE_NAMES)
        argv = ["fl-plan", "--manifest", str(manifest),
                "--clients", str(CORPUS["clients"]), "--rounds", str(CORPUS["rounds"]),
                "--batch", str(CORPUS["batch"]), "--device", device,
                "--seed", str(_seed(rng))]
        yield [Op(argv, dict(CORPUS, device=device, facts=facts), checks.CORPUS_CHECKS)]


# --------------------------------------------------------------- fleet-plan

FLEET = {"clients": 500, "samples_per_client": 400, "per_round": 50, "rounds": 1000,
         "batch": 4}
# Mean clip lengths other than the anchors' 5.5 s; every fourth op uses 5.5 s
# so the anchor check runs in every run.
FLEET_MEANS = tuple(round(2.0 + 0.25 * k, 2) for k in range(41)
                    if round(2.0 + 0.25 * k, 2) != ANCHOR_DURATION_S)


def fleet_rounds(rng, state):
    i = 0
    while True:
        device = rng.choice(DEVICE_NAMES)
        mean = ANCHOR_DURATION_S if i % 4 == 0 else rng.choice(FLEET_MEANS)
        argv = ["fl-plan", "--clients", str(FLEET["clients"]),
                "--samples-per-client", str(FLEET["samples_per_client"]),
                "--per-round", str(FLEET["per_round"]), "--rounds", str(FLEET["rounds"]),
                "--batch", str(FLEET["batch"]), "--device", device,
                "--mean-duration", str(mean), "--seed", str(_seed(rng))]
        yield [Op(argv, dict(FLEET, device=device, mean_duration=mean),
                  checks.FLEET_CHECKS)]
        i += 1


# ------------------------------------------------------------ planner-sweep

SWEEP_DURATIONS = tuple(round(1.0 + 0.05 * k, 2) for k in range(581))  # 1 s .. 30 s
SWEEP_BATCHES = tuple(range(1, 33))
PRECISIONS = ("fp32", "mixed")
ANCHOR_EVERY = 10  # every tenth predict-time query per arch is an anchor point


def _predict_targets(arch):
    """(device, precision) pairs the published anchors cover for an arch."""
    return sorted({(d, p) for d, (_, _, anchors) in DEVICES.items()
                   for (a, _, p) in anchors if a == arch})


def sweep_rounds(rng, state):
    """Rounds of six ops: analyze, memory and predict-time for base and large.

    No (command, arch, duration, batch, precision, device) point repeats in a
    run, so a cache kept across calls cannot stand in for the work. Durations
    sit on a 50 ms grid, so analyze meets the same (arch, duration) at
    several batches and the batch-scaling check runs.
    """
    seen: set = set()
    anchors = {arch: sorted((d, b, p) for d, (_, _, table) in DEVICES.items()
                            for (a, b, p) in table if a == arch)
               for arch in ("base", "large")}
    anchor_points = {arch: set(pool) for arch, pool in anchors.items()}
    for pool in anchors.values():
        rng.shuffle(pool)
    targets = {arch: _predict_targets(arch) for arch in anchors}
    predicted = {"base": 0, "large": 0}

    def fresh(command, arch, device=None, precisions=PRECISIONS):
        while True:
            point = (command, arch, rng.choice(SWEEP_DURATIONS), rng.choice(SWEEP_BATCHES),
                     rng.choice(precisions), device)
            is_anchor = (device is not None and point[2] == ANCHOR_DURATION_S
                         and (device, point[3], point[4]) in anchor_points[arch])
            if point not in seen and not is_anchor:
                seen.add(point)
                return point

    while True:
        ops = []
        for arch in ("base", "large"):
            for command in ("analyze", "memory"):
                _, _, duration, batch, precision, _ = fresh(command, arch)
                ops.append(_sweep_op(command, arch, duration, batch, precision, None, state))
            if predicted[arch] % ANCHOR_EVERY == 0 and anchors[arch]:
                device, batch, precision = anchors[arch].pop()
                duration = ANCHOR_DURATION_S
                seen.add(("predict-time", arch, duration, batch, precision, device))
            else:
                device, precision = rng.choice(targets[arch])
                _, _, duration, batch, precision, _ = fresh(
                    "predict-time", arch, device, (precision,))
            predicted[arch] += 1
            ops.append(_sweep_op("predict-time", arch, duration, batch, precision, device,
                                 state))
        yield ops


def _sweep_op(command, arch, duration, batch, precision, device, state):
    argv = [command, "--arch", arch, "--duration", str(duration), "--batch", str(batch),
            "--precision", precision]
    if device is not None:
        argv += ["--device", device]
    ctx = {"arch": arch, "duration": duration, "batch": batch, "precision": precision,
           "device": device, "state": state}
    return Op(argv, ctx, checks.SWEEP_CHECKS[command])


def sweep_run_checks(rng, state, execute, out_root) -> list:
    try:
        checks.sweep_coverage(state)
    except CheckFailed as exc:
        return [f"planner-sweep coverage: {exc}"]
    return []


# ------------------------------------------------------------------- fl-sim

FL_SIM = ["fl-sim", "--agg", "loss", "--alpha", "1.0", "--clients", "100",
          "--per-round", "20", "--rounds", "500", "--dim", "2000"]


def sim_rounds(rng, state):
    while True:
        yield [Op(FL_SIM + ["--seed", str(_seed(rng))], {"rounds": 500}, checks.SIM_CHECKS)]


def sim_run_checks(rng, state, execute, out_root: Path) -> list:
    """Once per run, untimed: alpha 0 against fedavg, and fedavg's contraction."""
    seed = str(_seed(rng))
    small = ["--clients", "20", "--per-round", "5", "--rounds", "30", "--dim", "500",
             "--seed", seed]
    contraction = {"lr": 0.1, "local_steps": 2, "rounds": 20}
    runs = {
        "loss0": ["fl-sim", "--agg", "loss", "--alpha", "0"] + small,
        "fedavg": ["fl-sim", "--agg", "fedavg"] + small,
        "full": ["fl-sim", "--agg", "fedavg", "--clients", "10", "--dim", "500",
                 "--rounds", str(contraction["rounds"]), "--lr", str(contraction["lr"]),
                 "--local-steps", str(contraction["local_steps"]), "--seed", seed],
    }
    reports, errors = {}, []
    for name, argv in runs.items():
        out = out_root / f"check-{name}"
        code = execute(argv + ["--out", str(out)], -1)[0]
        if code != 0:
            errors.append(f"fl-sim run check {name}: exit code {code}")
            return errors
        reports[name] = checks.read_reports(out)
        shutil.rmtree(out, ignore_errors=True)
    for check, args in ((checks.sim_alpha_zero, (reports["loss0"], reports["fedavg"])),
                        (checks.sim_contraction, (reports["full"], contraction))):
        try:
            check(*args)
        except (CheckFailed, KeyError, IndexError, ValueError, TypeError) as exc:
            errors.append(f"{check.__name__}: {exc}")
    return errors


WORKLOADS = {
    "corpus-plan": Workload("corpus-plan", False, corpus_rounds, uses_manifest=True,
                            min_rounds=2),
    "fleet-plan": Workload("fleet-plan", False, fleet_rounds),
    "planner-sweep": Workload("planner-sweep", True, sweep_rounds,
                              run_checks=sweep_run_checks),
    "fl-sim": Workload("fl-sim", True, sim_rounds, run_checks=sim_run_checks),
}


# ---------------------------------------------------------------- the loop


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) \
        if path.exists() else 0


def run_checks(op: Op, out: Path) -> list:
    try:
        reports = checks.read_reports(out)
    except (OSError, ValueError) as exc:
        return [f"{op.argv[0]}: unreadable report: {exc}"]
    errors = []
    for check in op.checks:
        try:
            check(reports, op.ctx)
        except (CheckFailed, KeyError, IndexError, ValueError, TypeError) as exc:
            errors.append(f"{op.argv[0]} {check.__name__}: {exc}")
    return errors


def closed_loop(rounds: Iterator[list], seconds: float, out_root: Path, execute,
                results: list, sampler: Optional[Sampler] = None,
                min_rounds: int = 1) -> list:
    """Run whole rounds until ``seconds`` have passed; append one result per op.

    ``execute(argv, op_id)`` returns (exit code, wall seconds, peak RSS MB or
    None, wall-to-reference scale or None). Only that call is timed; output
    checks run after it. A missing scale comes from ``sampler``, the speed
    sampler of this process. Each result's ``ref_s`` is its time in
    reference seconds (see speed.py).
    """
    start = time.perf_counter()
    n_rounds = 0
    first = len(results)
    for ops in rounds:
        for op in ops:
            op_id = len(results)
            out = out_root / f"op{op_id:05d}"
            began = time.perf_counter()
            code, wall, rss, scale = execute(op.argv + ["--out", str(out)], op_id)
            result = {"op": op_id, "s": wall, "scale": scale,
                      "span": (began, time.perf_counter()), "rss_mb": rss,
                      "bytes": dir_bytes(out), "failed": code != 0, "errors": []}
            if code == 0:
                result["errors"] = run_checks(op, out)
            else:
                print(f"op {op_id} ({' '.join(op.argv)}) exited {code}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            results.append(result)
        n_rounds += 1
        if n_rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    if sampler is not None:
        time.sleep(WINDOW_S)  # let the last op's window fill with samples
    for result in results[first:]:
        span = result.pop("span")
        if result["scale"] is None:
            result["scale"] = sampler.scale(*span)
        result["ref_s"] = result["s"] * result["scale"]
    return results[first:]
