"""The host's speed, probed while a run measures, and times scaled by it.

The host lends its CPUs to other tenants, and a fixed pure-Python loop runs
at anything from its full speed to half of it, changing within a fraction
of a second and from one minute to the next. `Speedometer` runs a short
probe (the benchmark's own code, never the program's) from a SIGALRM timer
every `INTERVAL_S`, in the measuring thread and so on the CPU the job is
using. A job's time, less the probes that ran inside it, is scaled by
``REFERENCE_PROBE_S / mean probe time`` over the probes around and inside
it: the time the job would have taken at the speed where the probe takes
`REFERENCE_PROBE_S`. A change to the program leaves the probe alone, so a
program that does more work still reads slower.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time

INTERVAL_S = 0.025
# The probe's fastest time on a 2-vCPU Intel Xeon VM (Python 3.11); scaled
# times are seconds at that speed.
REFERENCE_PROBE_S = 0.25e-3


def probe_work() -> int:
    """About 0.25 ms of dict, list and tuple work, like the program's."""
    acc = 0
    for _ in range(6):
        for s in itertools.product(range(4), repeat=3):
            d: dict = {}
            for i, x in enumerate(s):
                d.setdefault(x, []).append(i)
            acc += len(d)
    return acc


class Speedometer:
    """Probes the speed every `INTERVAL_S` between `start` and `stop`.

    `mark` before and after a piece of work; `elapsed` gives its time less
    the probes inside it, and `scale` (once the probe after it has run)
    turns such a time into seconds at the reference speed.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0  # total probe time, subtracted from what it interrupted
        self._old = None

    def probe(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection the job's garbage triggers is the job's cost
        t0 = time.perf_counter()
        probe_work()
        duration = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.durations.append(duration)
        self.spent += duration

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.durations), self.spent, time.perf_counter()

    @staticmethod
    def elapsed(before, after) -> float:
        return (after[2] - before[2]) - (after[1] - before[1])

    def scale(self, seconds: float, before, after) -> float:
        """`seconds` at the reference speed, from the mean of the last probe
        before `before`, the probes between the marks and the first after."""
        lo = max(0, before[0] - 1)
        hi = min(len(self.durations), after[0] + 1)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no speed probe ran near the measured work")
        return seconds * REFERENCE_PROBE_S * len(window) / sum(window)
