"""A fixed piece of work that tells how fast the machine runs right now.

On a shared host the speed a process gets drifts by a third or more over
tens of seconds, and it drifts alike for the workload and for any other
Python code run in the same moment.  The benchmark therefore times this
gauge between items and scales each measured time by
``REFERENCE_S / gauge time``: the result reads as the time the same work
would take on a machine where the gauge takes ``REFERENCE_S``.

The gauge is the benchmark's own code and does not touch pebblex, so a
change to the package cannot move it.  It mixes the two kinds of work the
package does: a pure-Python breadth-first search over configurations (the
reference search of ``reference.py``: tuples, sets, a deque) and numpy
sorting and searching on a fixed array of int64 keys (what the package's
level-synchronous search does per level).  The garbage collector is off
while it runs, so how much the package keeps on the heap does not change
its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

import reference as ref

# the gauge's time on the machine the scaled figures refer to: about its
# median time between items on a 2-vCPU x86-64 VM (Intel Xeon, CPython
# 3.11, numpy 2.4), so scaled figures read close to wall time there
REFERENCE_S = 0.009


class Gauge:
    def __init__(self):
        self.board = ref.cycle(6)
        self.pebbles = ref.complete(6)
        self.keys = np.random.default_rng(20240101).integers(0, 1 << 40, size=10_000)

    def sample(self):
        """Seconds one round of the fixed work takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(2):
                ref.reachable_count(self.board, self.pebbles)
                ukeys = np.unique(self.keys)
                np.searchsorted(ukeys, np.sort(self.keys[::-1]))
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class SpeedLog:
    """Gauge samples taken between items, at most one every ``EVERY_S``,
    with the time each was taken."""

    EVERY_S = 0.25
    # a time is scaled by the gauge samples within WINDOW_S of it, and by
    # at least the NEAREST samples closest to it
    WINDOW_S = 0.75
    NEAREST = 4

    def __init__(self, gauge=None):
        self.gauge = gauge or Gauge()
        self.samples = []
        self.times = []
        self._due = 0.0

    def poll(self):
        if time.perf_counter() >= self._due:
            self.take()

    def take(self):
        self.times.append(time.perf_counter())
        self.samples.append(self.gauge.sample())
        self._due = time.perf_counter() + self.EVERY_S

    def scale(self):
        """``REFERENCE_S`` over the median of all gauge samples."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale_at(self, t):
        """``REFERENCE_S`` over the median gauge time around moment ``t``."""
        lo = bisect.bisect_left(self.times, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t + self.WINDOW_S)
        if hi - lo < self.NEAREST:
            i = bisect.bisect_left(self.times, t)
            lo = max(0, min(i - self.NEAREST // 2, len(self.times) - self.NEAREST))
            hi = lo + self.NEAREST
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
