"""Host-speed sampling: times scaled to a fixed reference host speed.

The benchmark runs on shared VMs whose speed swings by 2x and more
within seconds, in CPU time as much as in wall time.  On a 2-core Xeon
VM a fixed 500-iteration loop of :func:`loop_s` took 1.0 to 2.3 ms over
30 s, and the fastest loop of each 1-second window ranged from 1.0 to
2.2 ms, so no estimator over raw times within one run can hide a slow
stretch that lasts the whole run.

:class:`Sampler` measures the host's speed while the job runs instead: a
SIGPROF timer interrupts the job every ``PERIOD_S`` of CPU time and runs
a short fixed loop (``LOOP`` iterations of a 3x3 matrix-vector update
in a Python loop, the kind of work lfbloch's integrator does).  The
time of an interval at reference speed is its own time (the samples
taken out) times the mean of ``REF_S / sample`` over the samples that
fall within ``WINDOW_S`` of it.  ``REF_S`` is a constant, so a faster
program reads faster and a faster host does not.

Measured on that VM: one ``convergence_study`` call repeated 53 times
over 40 s spread by 0.213 (quartile distance over median) in raw time
and by 0.055 at reference speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02      # CPU time between samples
LOOP = 100           # iterations of the sample loop
WINDOW_S = 0.1       # samples this close to an interval give its speed
# One sample loop at the reference speed: 2.0 us per iteration, about
# the fastest the 2-core Xeon VM ran it.
REF_S = LOOP * 2.0e-6

_A = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.0], [0.0, 0.0, -1.0]])


def loop_s(n: int = LOOP) -> float:
    """Time of n iterations of a fixed, lfbloch-independent loop."""
    y = np.ones(3)
    t0 = time.perf_counter()
    for _ in range(n):
        y = y + 1e-3 * (_A @ y)
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean speed of the samples relative to the reference (1 = REF_S)."""
    return statistics.fmean(REF_S / s for s in samples)


class Sampler:
    """Samples host speed on SIGPROF while the job runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.durations.append(loop_s())
        self.starts.append(t0)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._sample()

    def own_s(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] without the samples taken inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return (t1 - t0) - sum(self.durations[lo:hi])

    def ref_s(self, t0: float, t1: float) -> float:
        """Own time of [t0, t1] at the reference host speed.

        Uses the samples within ``WINDOW_S`` of the interval, or failing
        those the nearest sample on each side.
        """
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return self.own_s(t0, t1) * speed(self.durations[lo:hi])
