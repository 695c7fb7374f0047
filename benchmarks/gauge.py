"""Machine-speed gauge: converts measured durations to reference seconds.

The machines this benchmark runs on are shared, and their speed drifts.
On a shared 2-CPU Intel Xeon VM a fixed calibration kernel ran in either
about 1.9 ms or about 3.2 ms, switching between the two every few seconds
to minutes, and an mc_oracle pass ranged from 1.8 s to 4.5 s within two
minutes.  So a timed run takes one calibration sample right before every
library call, and one every SAMPLE_PERIOD seconds while the passes run,
also inside a library call.  Each measured interval loses the samples
taken inside it and is scaled by the samples within and around it:

    reference seconds = measured seconds * CAL_REF_S / (median kernel time
                        of the samples within WINDOW s of the interval)

Code that slows more or less than the kernel in the slow state keeps part
of the drift.  The kernel uses only numpy and scipy, never pmsdist, so it
costs the same on every commit and a change to pmsdist moves only the
measured side.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.special import ndtr

# The kernel's time on that VM in its fast state; it sets the scale of
# a reference second.
CAL_REF_S = 0.002
# How far either side of an interval a calibration sample still counts.
WINDOW = 0.05
# Time between the samples taken while passes run.  Single samples spike,
# and the machine changes state within a multi-second call, so a long call
# is scaled by many samples taken through it rather than the two at its ends.
SAMPLE_PERIOD = 0.1

_X = np.linspace(-4.0, 4.0, 20_000)
_M = np.random.default_rng(1).standard_normal((64, 64)) + 8.0 * np.eye(64)


def calibration_kernel() -> float:
    """A fixed mix of the work pmsdist does: vectorized special functions,
    keyed generator construction, small dense solves and interpreter loops."""
    acc = 0.0
    for _ in range(3):
        acc += float(ndtr(_X * 0.7 + 0.1).sum())
    for r in range(30):
        g = np.random.Generator(np.random.Philox(key=np.array([7, r], dtype=np.uint64)))
        acc += float(g.standard_normal(256).sum())
    for _ in range(15):
        acc += float(np.linalg.solve(_M, _M[:, 0])[0])
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


class Gauge:
    """Calibration samples taken through a run, and the scaling they imply.

    ``tick`` takes a sample when the last one is at least ``interval``
    seconds old; an infinite interval samples only once.
    """

    def __init__(self, interval: float = 0.0):
        self.interval = interval
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        # a periodic sample that falls due now waits until this one ends
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_PERIOD seconds inside the block.

        The samples come from a SIGALRM handler, which runs between two
        bytecodes of the main thread, so it never splits a timestamp; the
        timer is re-armed after each sample.
        """
        def take(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)

        previous = signal.signal(signal.SIGALRM, take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def tick(self) -> None:
        if not self.mids or time.perf_counter() - self.mids[-1] >= self.interval:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """CAL_REF_S over the median kernel time near [t0, t1]."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW)
        near = self.durations[lo:hi]
        if not near:   # nothing close by: take the nearest sample
            i = min(range(len(self.mids)),
                    key=lambda j: min(abs(self.mids[j] - t0), abs(self.mids[j] - t1)))
            near = [self.durations[i]]
        return CAL_REF_S / statistics.median(near)

    def sampled_within(self, t0: float, t1: float) -> float:
        """Total time of the calibration samples that lie inside [t0, t1]."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        return sum(d for m, d in zip(self.mids[lo:hi], self.durations[lo:hi])
                   if t0 <= m - 0.5 * d and m + 0.5 * d <= t1)

    def busy(self, t0: float, t1: float) -> float:
        """Measured seconds of [t0, t1] without the samples taken inside it."""
        return t1 - t0 - self.sampled_within(t0, t1)

    def seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], without its samples, in reference seconds."""
        return self.busy(t0, t1) * self.scale(t0, t1)
