"""Benchmark for the fedspeech planner.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload corpus-plan --seed 1 --seconds 20 --trace 0

Workloads: corpus-plan, fleet-plan, planner-sweep, fl-sim (or ``all``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from inputs import ensure_manifest
import speed

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 7  # fresh interpreters per run; the median is reported
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("report_mb", "MB"))


def program_env(root: Path):
    """Environment that imports fedspeech from the checkout's src/, or None."""
    src = root / "src"
    if not (src / "fedspeech" / "__init__.py").is_file():
        return None
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list, env: dict):
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def sampled(cmd_tail: list, env: dict, samples: Path):
    """Run one program process under the speed launcher:
    (exit code, wall seconds, peak RSS MB, wall-to-reference scale)."""
    code, wall, rss = spawn([sys.executable, str(HERE / "speed.py"), "--samples",
                             str(samples)] + cmd_tail, env)
    scale = speed.scale_from(json.loads(samples.read_text())) if samples.is_file() else None
    return code, wall, rss, scale


def setup_seconds(env: dict, out: Path) -> tuple:
    """Median time of a fresh interpreter importing fedspeech and building its
    parser, in reference seconds and in wall seconds. The first start only
    warms the file cache and is dropped."""
    starts = []
    for _ in range(SETUP_STARTS + 1):
        code, wall, _, scale = sampled(["--setup"], env, out / "setup-speed.json")
        if code != 0:
            raise RuntimeError(f"importing fedspeech failed with exit code {code}")
        starts.append((wall * scale, wall))
    return (statistics.median(s for s, _ in starts[1:]),
            statistics.median(w for _, w in starts[1:]))


def traced_cli(env: dict, out: Path, dumps: list, alloc: bool):
    """Executor for ops run as their own traced program process."""
    def execute(argv, op_id):
        spans = out / f"spans{op_id:05d}.json"
        cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
               "--op", str(op_id)] + (["--alloc"] if alloc else []) + ["--"] + argv
        code, wall, rss = spawn(cmd, env)
        scale = None
        if spans.is_file():
            dumps.append(json.loads(spans.read_text()))
            scale = speed.scale_from(dumps[-1]["speed"])
        return code, wall, rss, scale
    return execute


def workload_state(workload) -> dict:
    state: dict = {}
    if workload.uses_manifest:
        state["manifest"], state["facts"] = ensure_manifest()
    return state


def run_plan_workload(workload, seed, seconds, trace, env, out):
    """Each op is its own ``fedspeech fl-plan`` process."""
    rounds = workload.rounds(random.Random(seed), workload_state(workload))
    ops: list = []
    dumps: list = []

    def untraced(argv, op_id):
        return sampled(["--"] + argv, env, out / f"speed{op_id:05d}.json")

    if not trace:
        return {"untraced": workloads.closed_loop(rounds, seconds, out, untraced, ops,
                                                  min_rounds=workload.min_rounds)}, [], [], None
    phases = {"untraced": workloads.closed_loop(rounds, seconds / 2, out, untraced, ops),
              "traced": workloads.closed_loop(rounds, seconds / 2, out,
                                              traced_cli(env, out, dumps, False), ops)}
    return phases, dumps, [], None


def run_worker_workload(workload, seed, seconds, trace, env, out):
    """All ops run in one worker process through fedspeech.cli.main."""
    result_file = out / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--result", str(result_file)]
    code, _, rss = spawn(cmd, env)
    if code != 0:
        raise RuntimeError(f"{workload.name} worker exited {code}")
    result = json.loads(result_file.read_text())
    return result["phases"], result.get("trace", []), result["run_errors"], rss


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    out = HERE / ".out" / f"{name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setup, setup_wall = setup_seconds(env, out) if not trace else (None, None)
        if workload.in_process:
            phases, dumps, run_errors, rss = run_worker_workload(
                workload, seed, seconds, int(trace), env, out)
        else:
            phases, dumps, run_errors, rss = run_plan_workload(
                workload, seed, seconds, trace, env, out)
        if trace:  # one round with the allocation pass, each op in a fresh process
            alloc_out = out / "alloc"
            alloc_out.mkdir()
            rounds = workload.rounds(random.Random(seed), workload_state(workload))
            phases["alloc"] = workloads.closed_loop(
                rounds, 0, alloc_out, traced_cli(env, alloc_out, dumps, True), [])
    finally:
        shutil.rmtree(out, ignore_errors=True)

    every = [op for ops in phases.values() for op in ops]
    errors = run_errors + [e for op in every for e in op["errors"]]
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    done = {phase: [op for op in ops if not op["failed"]] for phase, ops in phases.items()}
    if not all(done.values()):
        raise RuntimeError(f"{name}: every op of a phase failed")

    def p50(phase, key="ref_s"):
        return statistics.median(op[key] for op in done[phase])

    if not trace:
        ok = done["untraced"]
        print(f"{name:<14} wall-clock medians: setup {setup_wall:.4g} s, "
              f"op {p50('untraced', 's'):.4g} s", file=sys.stderr)
        values = {"setup_s": setup, "op_p50_s": p50("untraced"),
                  "ops_per_s": len(ok) / sum(op["ref_s"] for op in ok),
                  "peak_rss_mb": rss if rss is not None
                  else statistics.median(op["rss_mb"] for op in ok),
                  "report_mb": statistics.fmean(op["bytes"] for op in ok) / 1e6}
        units = END_TO_END
    else:
        scale = {op["op"]: op["scale"] for op in phases["traced"]}
        values = tracing.layer_metrics(tracing.merge(dumps), len(phases["traced"]), scale)
        values["trace.untraced_op_p50_s"] = p50("untraced")
        values["trace.traced_op_p50_s"] = p50("traced")
        values["trace.overhead_share"] = p50("traced") / p50("untraced") - 1
        units = tracing.PER_LAYER
    return {"correct": not errors, "attempted": len(every),
            "failed": sum(op["failed"] for op in every),
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = program_env(Path.cwd())
    if env is None:
        print("error: run from the root of a fedspeech checkout (no src/fedspeech here)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        for key, metric in result["metrics"].items():
            print(f"{name:<14} {key:<45} {metric['value']:.6g} {metric['unit']}")
        print(f"{name:<14} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        results[name] = result
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
