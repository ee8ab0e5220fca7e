"""Machine-speed calibration for the benchmark's timings.

On a virtual machine that shares its cores with other tenants (measured on
a 2-vCPU Intel Xeon VM), every computation is slowed by a common factor
that flips within a second (the same kernel takes 8 or 12 ms) and whose
average drifts over minutes by up to a third.  A fixed kernel timed at
regular intervals measures that factor: with the two interleaved, the
kernel-to-workload time ratio moved by 3-6 % where the raw times moved by
16-20 %.  Timings are therefore reported at the speed where this kernel
takes REFERENCE_MS, i.e. multiplied by REFERENCE_MS / (the kernel's mean
time over the samples taken around them).

The kernel is the shape of the package's hot loop (monic_values_scaled):
a rescaled three-term recurrence over 2048 complex points in NumPy.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 3.0
PERIOD_S = 0.1
_X = np.linspace(-1.0, 1.0, 2048) + 0.1j


def kernel_ms() -> float:
    """One timed run of the calibration kernel, in ms."""
    t0 = time.perf_counter()
    prev, cur = np.ones_like(_X), _X.copy()
    for _ in range(100):
        prev, cur = cur, _X * cur - 0.25 * prev
        m = float(np.abs(cur).max())
        prev, cur = prev / m, cur / m
    return (time.perf_counter() - t0) * 1e3


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S while active.

    The handler runs between bytecodes, inside whatever the main thread is
    doing, so ``busy_s`` gives the handler time to take out of a timing.
    A long call into C code delays the next sample until it returns.
    """

    def __init__(self):
        self.samples = []  # (handler duration in s, kernel ms)
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a signal that arrives while sampling is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.samples.append((time.perf_counter() - t0, ms))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy_s(self, since: int = 0) -> float:
        """Time spent sampling from the ``since``-th sample on."""
        return sum(d for d, _ in self.samples[since:])

    def kernel_times(self):
        return [ms for _, ms in self.samples]


def speed(kernel_times) -> float:
    """Factor that takes times measured alongside these samples to the
    reference speed."""
    return REFERENCE_MS / statistics.fmean(kernel_times)
