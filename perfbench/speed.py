"""A machine-speed probe that puts timings on a shared machine on one scale.

On a few cores of a shared host the same pass of a workload runs up to a
third faster or slower from one minute to the next, as other tenants come
and go.  The probe times a small fixed kernel (dict updates with tuple
keys, big-integer and ``Fraction`` arithmetic, a sort: the kinds of work
maghom does) every ``INTERVAL_S`` of CPU time, from a ``SIGPROF`` handler
in the worker itself, so it sees the core, the caches and the clock speed
the program sees at that moment.

A window of the run, such as one job, is then put on the reference scale:

    ref = (window - probe time inside it) * REFERENCE_S * mean(1 / kernel)

over the kernel samples taken in the window (at least the last two before
its end).  ``ref`` is the seconds the window would take if the kernel ran
in ``REFERENCE_S`` throughout; it is the seconds of a fixed machine speed,
so it moves with the program's work and not with the neighbours' load.

The kernel is the benchmark's own code and never calls maghom, so a
change to the program cannot change it.  The probe relies on the worker
being single-threaded: a thread left running would slow the kernel, and
the worker fails such a job.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# kernel seconds that define the reference speed (near its time on a core
# of a 2-core x86 virtual machine running CPython 3.11)
REFERENCE_S = 0.003
# CPU seconds between samples; the kernel costs ~6% of this
INTERVAL_S = 0.05
# a window is scaled by at least this many of the latest samples
MIN_SAMPLES = 2


def kernel():
    table = {}
    x = Fraction(1, 3)
    for i in range(300):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 12345678901
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
    rows = sorted(table.items(), key=lambda kv: kv[1] % 1009)
    acc = 0
    for (a, b), v in rows:
        acc ^= hash((a, b, v & 0xFFFF))
    return acc, x


class Probe:
    """Kernel samples of one worker: start times and durations, monotonic."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def start(self):
        kernel()  # warm up; not a sample
        self.sample()
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _on_signal(self, signum, frame):
        self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not kernel time
        try:
            start = time.monotonic()
            kernel()
            end = time.monotonic()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def window(self, start, end):
        """(probe seconds inside [start, end], factor to reference seconds)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.durations[lo:hi])
        near = self.durations[max(0, min(lo, hi - MIN_SAMPLES)) : hi]
        scale = REFERENCE_S * sum(1 / d for d in near) / len(near)
        return inside, scale
