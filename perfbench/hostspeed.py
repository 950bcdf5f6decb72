"""Host-speed calibration for the benchmark's timings.

On a shared host, other tenants' load can move the speed of the CPU the
benchmark runs on by tens of percent within a minute.  A fixed kernel
owned by the benchmark is timed every ``PERIOD_S`` seconds next to the
measured work; every timing is then scaled to the host speed at which the
kernel takes ``REFERENCE_S``.

A single kernel timing is itself noisy (5 to 20 ms on one host within a
minute), so timings are taken in bursts: one per ``PERIOD_S`` seconds of work
since the previous burst, up to ``BURST``.  The scale for a request uses the
mean of every timing within ``WINDOW_S`` seconds of its start or end: a
request's time sums the host's speed over its span, which the mean follows
and the median does not when the host flips between a fast and a slow state.

The kernel spends about half its time on small numpy array arithmetic mixed
with dict work and half in a plain Python float loop.  Timed next to single
requests on a shared 2-vCPU Xeon VM, it removed about a third of their
variation (standard deviation of log time 0.19 -> 0.13 for a check_sweep
classify call, 0.21 -> 0.18 for an n=6 long_trajectory segment).  Like the
other kernels tried (numpy only, Python only, pointer chasing, a small jet
evaluator), it reacts more strongly than the package to a change of host
speed, so scaled times of a run on a fast host come out high.  It never calls the package, so a change to the package cannot move it,
and the garbage collector is paused while it runs, so the size of the
program's heap does not move it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# kernel time at the reference host speed (about the median on a shared
# 2-vCPU Xeon VM)
REFERENCE_S = 0.008
PERIOD_S = 0.25
WINDOW_S = 2.0
BURST = 8


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = np.arange(7.0)
        acc = 0.0
        for i in range(750):
            b = a * 1.0001 + i
            acc += float(b @ a)
            d = {"x": i, "y": acc}
            acc += d["x"] * 0.5
        x = 1.0001
        for i in range(24000):
            acc = acc * 0.999 + x * i
            x = -x if i % 7 == 0 else x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.mean(samples)


def burst() -> list[float]:
    """``BURST`` kernel timings taken back to back."""
    return [kernel_seconds() for _ in range(BURST)]


class Sampler:
    """Kernel timings, one per ``PERIOD_S`` seconds of work, in bursts."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []

    def tick(self) -> None:
        """Take the timings due since the last tick, if ``PERIOD_S`` has passed."""
        now = time.perf_counter()
        if not self.times:
            due = BURST
        else:
            due = min(BURST, int((now - self.times[-1]) / PERIOD_S))
        for _ in range(due):
            self.kernel.append(kernel_seconds())
            self.times.append(now)

    def scale_for(self, start: float, end: float) -> float:
        """Scale for work done from ``start`` to ``end``, from the timings around it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return factor(self.kernel[lo:hi] or self.kernel)
