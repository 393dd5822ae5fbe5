"""The reference kernel: the fixed unit of work behind every `ref` metric.

A `ref` figure divides a measured time by the mean duration of this kernel,
timed in the same process between the operations it normalises.  The host
this benchmark was written on switches between a fast and a slow mode (about
2x apart) every few hundred milliseconds to tens of seconds; the kernel runs
at the same mode as the operation next to it, so the ratio cancels most of
the drift.  The unit is the kernel's mean time over a run without the
samples a preemption inflated (`kernel_unit`).

The kernel imitates the instruction mix of a theta-scheme step in stefanlab
without calling it: a Python loop over small numpy arrays, a three-diagonal
stencil, one tiny LAPACK-backed numpy solve and a little pure-Python integer
arithmetic.  It must never change: a different kernel is a different unit,
and `ref` figures measured with it are not comparable with earlier ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_N = 99
_STEPS = 300
_DIAG = np.full(_N, 2.1)
_LOWER = np.full(_N - 1, -1.0)
_UPPER = np.full(_N - 1, -1.0)
_BLOCK = np.array([[4.0, 1.0, 0.0, 0.0],
                   [1.0, 4.0, 1.0, 0.0],
                   [0.0, 1.0, 4.0, 1.0],
                   [0.0, 0.0, 1.0, 4.0]])


def reference_kernel() -> float:
    """Run the fixed loop once; returns a value so the work cannot be skipped."""
    x = np.linspace(0.0, 1.0, _N)
    acc = 0.0
    count = 0
    for j in range(_STEPS):
        y = _DIAG * x
        y[1:] += _LOWER * x[:-1]
        y[:-1] += _UPPER * x[1:]
        z = np.linalg.solve(_BLOCK, y[:4])
        x = 0.45 * y
        acc += float(z[0])
        count = (count * 31 + j) % 1000003
    return acc + count


def time_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


OUTLIER = 2.0


def kernel_unit(samples) -> float:
    """Seconds per ref: the mean of the kernel samples, without preemption outliers.

    A preemption of a few milliseconds doubles one 5 ms kernel sample but
    adds well under one percent to a long operation, so a sample above
    twice the median is dropped.  The two host modes are less than twice
    apart, so no sample of the slow mode is dropped and the unit follows
    the run's mix of modes, as the operation times do.
    """
    cut = OUTLIER * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= cut)
