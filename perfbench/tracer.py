"""Spans around the program's public functions, for the traced run.

The tracer patches the named functions in every loaded ``fedspeech`` module
from outside; nothing under ``src/`` changes and the untraced runs carry no
wrappers. Each span records its name, start, end, parent span and op id,
plus an optional note (rows loaded, bytes written, ...) taken after the
call's end. Spans stay in memory and are written out when the traced
process ends.

A separate allocation pass, one round of ops each in a fresh process, wraps
only the functions that have an ``alloc_mb`` metric and records how far the
process's resident size rises above its size at the call's start, polled
every 5 ms. (``tracemalloc`` made the manifest load 8x slower, and a traced
corpus-plan run then took 150 s of the 180 s a run may take.) Each of these
calls is the largest allocation its process has made so far, so the rise is
its own.

Run one traced command in its own process (the plan workloads do this)::

    python3 perfbench/tracer.py --spans FILE [--alloc] --op N -- fl-plan ...
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time

from speed import Sampler

# (module, function, span name, note taken from (args, kwargs, result))
TARGETS = (
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_memory", "cli.memory", None),
    ("cli", "cmd_predict_time", "cli.predict-time", None),
    ("cli", "cmd_fl_plan", "cli.fl-plan", None),
    ("cli", "cmd_fl_sim", "cli.fl-sim", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "resolve_profiles", "config.resolve_profiles", None),
    ("costs", "forward_flops", "costs.forward_flops", lambda a, k, r: (a[0], a[1])),
    ("memory", "memory_timeline", "memory.memory_timeline", None),
    ("devices", "get_profile", "devices.get_profile", None),
    ("devices", "predict_batch_time", "devices.predict_batch_time", None),
    ("devices", "training_residency_bytes", "devices.training_residency_bytes", None),
    ("federation", "load_manifest", "federation.load_manifest", lambda a, k, r: len(r)),
    ("federation", "partition_by_speaker", "federation.partition_by_speaker", None),
    ("federation", "uniform_partition", "federation.uniform_partition", None),
    ("federation", "schedule_rounds", "federation.schedule_rounds", None),
    ("federation", "estimate_wall_clock", "federation.estimate_wall_clock", None),
    ("report", "write_json", "report.write_json",
     lambda a, k, r: os.path.getsize(a[0])),
    ("report", "write_csv", "report.write_csv", None),
    ("report", "partition_payload", "report.partition_payload", None),
    ("aggregation", "run_synthetic_fl", "aggregation.run_synthetic_fl", None),
    ("aggregation", "aggregate", "aggregation.aggregate",
     lambda a, k, r: len(a[0]) * a[0][0].weights.size),
)
ALLOC_TARGETS = ("federation.load_manifest", "federation.partition_by_speaker",
                 "federation.uniform_partition", "aggregation.run_synthetic_fl")
CLI_COMMANDS = ("cli.analyze", "cli.memory", "cli.predict-time", "cli.fl-plan",
                "cli.fl-sim")

# Every per-layer metric, with its unit. A layer a workload leaves idle
# reports 0.
PER_LAYER = (
    ("federation.load_manifest.s", "s"),
    ("federation.load_manifest.rows_per_s", "1/s"),
    ("federation.load_manifest.alloc_mb", "MB"),
    ("federation.partition_by_speaker.s", "s"),
    ("federation.partition_by_speaker.alloc_mb", "MB"),
    ("federation.uniform_partition.s", "s"),
    ("federation.uniform_partition.alloc_mb", "MB"),
    ("federation.schedule_rounds.s", "s"),
    ("federation.estimate_wall_clock.s", "s"),
    ("costs.forward_flops.s", "s"),
    ("costs.forward_flops.calls_per_op", "count"),
    ("costs.forward_flops.distinct_share", "ratio"),
    ("memory.memory_timeline.s", "s"),
    ("devices.get_profile.s", "s"),
    ("devices.predict_batch_time.s", "s"),
    ("devices.training_residency_bytes.s", "s"),
    ("config.load_config.s", "s"),
    ("config.resolve_profiles.s", "s"),
    ("cli.build_parser.s", "s"),
    ("cli.analyze.s", "s"),
    ("cli.memory.s", "s"),
    ("cli.predict-time.s", "s"),
    ("cli.self_s", "s"),
    ("report.write_json.s", "s"),
    ("report.write_json.mb_per_s", "MB/s"),
    ("report.partition_payload.s", "s"),
    ("report.write_csv.s", "s"),
    ("aggregation.run_synthetic_fl.s", "s"),
    ("aggregation.run_synthetic_fl.self_s", "s"),
    ("aggregation.run_synthetic_fl.alloc_mb", "MB"),
    ("aggregation.aggregate.s", "s"),
    ("aggregation.aggregate.computed_gb_per_s", "GB/s"),
    ("trace.untraced_op_p50_s", "s"),
    ("trace.traced_op_p50_s", "s"),
    ("trace.overhead_share", "ratio"),
)


ALLOC_POLL_S = 0.005
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Patches ``fedspeech`` functions with span or allocation recorders."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.op = 0
        self.spans: list = []  # [name, start, end, parent index, op, note]
        self.allocs: list = []  # [name, op, peak MB above the call's start]
        self._stack: list = []
        self._restore: list = []

    def _span_wrapper(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    def _alloc_wrapper(self, name, fn, note):
        # A thread polls this process's resident size while the call runs;
        # the call's alloc_mb is the peak above its starting size.
        def traced(*args, **kwargs):
            start = _resident_bytes()
            peak = [start]
            done = threading.Event()

            def poll():
                while not done.wait(ALLOC_POLL_S):
                    peak[0] = max(peak[0], _resident_bytes())
            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            try:
                return fn(*args, **kwargs)
            finally:
                done.set()
                poller.join()
                peak[0] = max(peak[0], _resident_bytes())
                self.allocs.append([name, self.op, (peak[0] - start) / 1e6])
        return traced

    def install(self) -> None:
        import fedspeech.cli  # noqa: F401  (loads every module the CLI uses)

        make = self._alloc_wrapper if self.alloc else self._span_wrapper
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fedspeech" or n.startswith("fedspeech.")]
        for module, attr, name, note in TARGETS:
            if self.alloc and name not in ALLOC_TARGETS:
                continue
            original = getattr(sys.modules[f"fedspeech.{module}"], attr)
            wrapped = make(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        """Spans and allocations as JSON; cost-model keys become hashes, which
        only need to compare equal within this process."""
        spans = [s[:5] + [hash(s[5]) if s[0] == "costs.forward_flops" else s[5]]
                 for s in self.spans]
        return {"spans": spans, "allocs": self.allocs}


def merge(dumps: list) -> dict:
    """Concatenate dumps from several processes, re-basing parent indices."""
    spans, allocs = [], []
    for d in dumps:
        base = len(spans)
        spans += [s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in d["spans"]]
        allocs += d["allocs"]
    return {"spans": spans, "allocs": allocs}


def layer_metrics(trace: dict, n_ops: int, scale: dict) -> dict:
    """Per-layer metrics from the spans of ``n_ops`` traced ops. ``scale`` maps
    an op id to the factor that turns its wall seconds into reference seconds."""
    spans = [[name, start, start + (end - start) * scale[op], parent, op, note]
             for name, start, end, parent, op, note in trace["spans"]]
    allocs = trace["allocs"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def durations(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    def median(values):
        return statistics.median(values) if values else 0.0

    def self_times(names):
        return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] in names]

    def rate(name, unit):  # note / duration per call, in ``unit``
        return median([s[5] / (s[2] - s[1]) / unit for s in spans
                       if s[0] == name and s[2] > s[1]])

    metrics = {}
    for module, attr, name, note in TARGETS:
        metrics[f"{name}.s"] = median(durations(name))
    metrics["federation.load_manifest.rows_per_s"] = rate("federation.load_manifest", 1)
    metrics["report.write_json.mb_per_s"] = rate("report.write_json", 1e6)
    metrics["aggregation.aggregate.computed_gb_per_s"] = rate("aggregation.aggregate",
                                                              1e9 / 8)
    metrics["cli.self_s"] = median(self_times(CLI_COMMANDS))
    metrics["aggregation.run_synthetic_fl.self_s"] = median(
        self_times(("aggregation.run_synthetic_fl",)))

    keys_per_op: dict = {}
    for s in spans:
        if s[0] == "costs.forward_flops":
            keys_per_op.setdefault(s[4], []).append(s[5])
    calls = sum(len(k) for k in keys_per_op.values())
    metrics["costs.forward_flops.calls_per_op"] = calls / n_ops if n_ops else 0.0
    shares = [len(set(k)) / len(k) for k in keys_per_op.values()]
    metrics["costs.forward_flops.distinct_share"] = statistics.fmean(shares) if shares \
        else 0.0
    for name in ALLOC_TARGETS:
        metrics[f"{name}.alloc_mb"] = median([a[2] for a in allocs if a[0] == name])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file written at exit")
    parser.add_argument("--alloc", action="store_true", help="allocation pass")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sampler = Sampler()
    sampler.start()
    tracer = Tracer(alloc=args.alloc)
    tracer.op = args.op
    tracer.install()
    from fedspeech import cli

    try:
        code = cli.main(command)
    finally:
        tracer.uninstall()
        sampler.stop()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), speed=[d for _, d in sampler.samples]), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
