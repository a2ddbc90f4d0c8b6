"""In-process closed loop for planner-sweep and fl-sim.

One worker process imports ``fedspeech`` and calls ``fedspeech.cli.main``
once per op, so its peak RSS is the program's plus this loop's. It writes
its per-op results (and, when traced, its spans) to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import Sampler
from tracer import Tracer


def make_execute(devnull):
    from fedspeech import cli

    def execute(argv, op_id):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(devnull):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a dead run
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - start, None, None
    return execute


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    state: dict = {}
    rounds = workload.rounds(rng, state)
    out = Path(args.out)
    result: dict = {"phases": {}}
    with open(os.devnull, "w") as devnull:
        execute = make_execute(devnull)
        ops: list = []
        sampler = Sampler()
        sampler.start()

        def phase(name, seconds, tracer=None):
            run = execute
            if tracer is not None:
                tracer.install()

                def run(argv, op_id):
                    tracer.op = op_id
                    return execute(argv, op_id)
            try:
                result["phases"][name] = workloads.closed_loop(
                    rounds, seconds, out, run, ops, sampler, workload.min_rounds)
            finally:
                if tracer is not None:
                    tracer.uninstall()

        if not args.trace:
            phase("untraced", args.seconds)
        else:
            phase("untraced", args.seconds / 2)
            spans = Tracer()
            phase("traced", args.seconds / 2, spans)
            result["trace"] = [spans.dump()]
        sampler.stop()
        result["run_errors"] = workload.run_checks(rng, state, execute, out) \
            if workload.run_checks else []
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
