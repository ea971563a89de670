"""Durations at the host's uncontended speed.

The benchmark runs on shared hosts where, for seconds to minutes at a
time, a neighbour slows a CPU by up to 2x; a fit of a few seconds, or a
whole run, can fall in such a stretch.  Raw times then measure the
neighbours as much as the program, and no statistic over one run's
repeats removes a stretch that covers the whole run.

``HostClock`` samples the CPU's current speed every ``TICK_S`` with a
fixed reference loop run from a SIGALRM handler, in this process and on
this CPU.  ``span(t0, t1)`` returns the wall time of an interval minus
the time the sampler itself took inside it, divided by the interval's
mean slowdown: the mean reference time inside it (or the nearest
sample, for intervals shorter than a tick) over ``REFERENCE_S``, the
reference loop's uncontended time.  On an uncontended CPU the result is
close to the raw wall time; a slower program still reads slower, by the
same factor.
"""

import bisect
import signal
import time

import numpy as np

TICK_S = 0.02
# Uncontended time of ``reference_loop`` on the 2-core Xeon VM the benchmark
# was tuned on; it only scales every reported time by one constant.
REFERENCE_S = 140e-6

_MATRIX = np.arange(64 * 25, dtype=np.float64).reshape(64, 25) / 1600.0


def reference_loop() -> float:
    """Seconds for a fixed ~0.1 ms of small numpy and dict work."""
    t0 = time.perf_counter()
    for i in range(50):
        float(_MATRIX[i % 64] @ _MATRIX[(i * 7) % 64])
        {j: j for j in range(8)}
    return time.perf_counter() - t0


class HostClock:
    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.costs: list[float] = []  # reference loop seconds of each sample
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame):
        cost = reference_loop()
        self.ends.append(time.perf_counter())
        self.costs.append(cost)

    def span(self, t0: float, t1: float) -> float:
        """Duration of ``[t0, t1]`` at the uncontended speed."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.costs[lo:hi]
        if inside:
            slowdown = sum(inside) / len(inside) / REFERENCE_S
        elif self.costs:
            slowdown = self.costs[max(0, lo - 1)] / REFERENCE_S
        else:
            slowdown = 1.0
        return (t1 - t0 - sum(inside)) / slowdown

    def summary(self) -> dict:
        """Distribution of the sampled slowdown over the run."""
        if not self.costs:
            return {}
        q = np.quantile(np.asarray(self.costs) / REFERENCE_S, [0.05, 0.5, 0.95])
        return {"samples": len(self.costs), "p5": float(q[0]), "p50": float(q[1]), "p95": float(q[2])}
