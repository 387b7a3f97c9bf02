"""The machine's speed, measured beside the ops.

The benchmark runs on shared virtual machines whose speed drifts: for
tens of seconds at a time the same pure-Python work can take 1.3 to 1.8
times as long, without any time showing as stolen.  A fixed kernel of
stdlib work (exact fractions, dicts, sorting, small calls; nothing from
roversweep, so no change to the program moves it) is timed every
``INTERVAL_S`` of the run, and every measured time is scaled by the
kernel's time around it over ``REFERENCE_S``.  Timings are therefore
reported in milliseconds at reference speed: what the op would take on
the machine when the kernel takes ``REFERENCE_S``.  The raw wall times
and the speed samples are kept in the full result record.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# the kernel's time on an unloaded 2-vCPU x86-64 virtual machine, Python 3.11
REFERENCE_S = 0.00110


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    return acc, sorted(table.items(), key=lambda kv: kv[1])


def _kernel_s() -> float:
    """Fastest of three kernel runs, which shrugs off an interrupt."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Speedometer:
    def __init__(self):
        self.times = []      # when each sample was taken
        self.seconds = []    # the kernel's time then

    def sample(self):
        self.times.append(perf_counter())
        self.seconds.append(_kernel_s())

    def tick(self):
        """Sample if the last sample is ``INTERVAL_S`` old."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than reference the machine ran over [start, end]:
        the median kernel time of the samples from the last one before
        ``start`` to the first one after ``end``, over ``REFERENCE_S``."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end) + 1
        return statistics.median(self.seconds[lo:hi]) / REFERENCE_S

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds / self.slowdown(start, start + seconds)
