"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared VM the same work can take anywhere from 1x to 2x as long
from one 100 ms to the next, and the average drifts by +-20% over minutes;
CPU time drifts with it, so it is the host's speed that varies.  A fixed
reference kernel, timed on a timer signal while the work runs, measures that
speed.  A calibrated time is the measured time scaled to a machine on which
the kernel takes ``REF_KERNEL_S``:

    calibrated = (wall - kernel time) * REF_KERNEL_S / mean kernel time

The kernel mixes the two kinds of code the workloads spend their time in:
numpy operations on short vectors in a Python loop, and scalar float
arithmetic on Python lists.  It shares no code with fbarcirc.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's typical time between workflow steps on the 2-vCPU VM the
# baseline was taken on, so calibrated and raw times are close there.
REF_KERNEL_S = 0.75e-3
# Kernel runs after a region too short for the timer to sample it.
MIN_SAMPLES = 40
# First runs pay one-off costs (allocation, caches) that later ones do not.
WARMUP_RUNS = 20


class SpeedProbe:
    """Times the reference kernel on SIGALRM while a region of work runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._col = rng.standard_normal(187) + 1j * rng.standard_normal(187)
        self._vals = [float(x) for x in rng.standard_normal(64)]
        self._samples: list[float] = []
        for _ in range(WARMUP_RUNS):
            self.kernel_s()
        signal.signal(signal.SIGALRM, self._tick)

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        y = self._col.copy()
        for k in range(0, 186, 2):
            y[k + 1:] -= self._col[k + 1:] * y[k]
        vals, s = self._vals, 0.0
        for i in range(3000):
            a, b = vals[i & 63], vals[(i >> 1) & 63]
            s = s * 0.5 + a * b - (a if a > b else b)
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self._samples.append(self.kernel_s())

    def start(self, interval_s: float) -> None:
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def stop(self) -> tuple[float, float]:
        """(kernel time spent inside the region, mean kernel time)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        busy = sum(self._samples)
        while len(self._samples) < MIN_SAMPLES:
            self._samples.append(self.kernel_s())
        return busy, statistics.fmean(self._samples)


def calibrated(seconds: float, kernel_s: float) -> float:
    return seconds * REF_KERNEL_S / kernel_s
