"""Machine-speed reference for the benchmark's timings.

On a shared host the same op's wall time drifts by tens of percent over
seconds to minutes while the program is unchanged: on the two-core VM the
reference figures in README.md were taken on, one ``predict-time`` call read
3.2 ms to 5.9 ms across 3 s blocks of one process. A fixed piece of Python
work of the same kind (dict building, string formatting, JSON encoding),
timed in the same thread, drifts with it: the ratio of the two stayed within
+-6 % over the same blocks.

So every process that runs the program also runs a :class:`Sampler`: a
``SIGALRM`` timer that times the reference every ``PERIOD_S`` in the main
thread, between the program's bytecodes. Timings are reported in reference
seconds, wall time times ``REFERENCE_S`` over the median reference time
sampled during (and, for short ops, around) the timed span. A change to the
program moves its wall time but not the reference, so it moves the reported
time by the same factor; a change in the host's speed moves both and
cancels. The sampler costs about 1 % of each process's time, the same on
every commit.

Used as a launcher, this file runs one program process under a sampler and
writes the samples to ``--samples`` when it ends::

    python3 perfbench/speed.py --samples FILE -- fl-plan --clients 10 ...
    python3 perfbench/speed.py --samples FILE --setup

``--setup`` imports ``fedspeech`` and builds its parser, nothing more.
"""

import json
import signal
import sys
import time

REFERENCE_S = 8.0e-5  # the reference's median duration on a quiet host
PERIOD_S = 0.01
WINDOW_S = 0.5  # ops shorter than this also use samples this close to them

_RECORDS = [{"id": f"client_{i:03d}", "n": i, "secs": [i * 0.25, i * 1.5]}
            for i in range(8)]


def reference_work() -> int:
    table = {}
    for i in range(60):
        table[f"layer{i}"] = (i, i * 1.5, f"{i / 7:.6g}")
    return len(table) + len(json.dumps(_RECORDS, sort_keys=True))


class Sampler:
    """Times :func:`reference_work` every ``PERIOD_S`` in the main thread."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, reference seconds)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds to reference seconds for a span."""
        return scale_from([d for t, d in self.samples
                           if start - WINDOW_S <= t <= end + WINDOW_S])


def scale_from(durations: list) -> float:
    """REFERENCE_S times the mean speed (1 / duration) of the samples."""
    if not durations:
        raise RuntimeError("no speed samples; the span is too short to place")
    return REFERENCE_S * sum(1 / d for d in durations) / len(durations)


def main(argv) -> int:
    samples_path = argv[argv.index("--samples") + 1]
    sampler = Sampler()
    sampler.start()
    try:
        from fedspeech import cli

        if "--setup" in argv:
            cli.build_parser()
            code = 0
        else:
            code = cli.main(argv[argv.index("--") + 1:])
    finally:
        sampler.stop()
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump([d for _, d in sampler.samples], fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
