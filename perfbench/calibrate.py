"""Machine-speed calibration for the time metrics.

On a shared machine the speed of a CPU drifts by up to 1.5x over minutes,
as other tenants come and go.  Every timed call of the benchmark is
therefore paired with one run of a fixed numpy kernel, made just before it
in the same process, and the reported time is

    REFERENCE_S * median over the run of (call time / kernel time),

that is, the call's time on a machine where the kernel takes REFERENCE_S.
A change to the package changes the call and not the kernel, so the ratio
moves with the package alone.

The kernel is a rescaled two-state forward recursion in numpy, close in
kind to the package's own inner loops, run twice: once over a table that
fits in a core's cache, which tracks the CPU's speed, and once over a
12.6 MB table, which also tracks contention for the shared cache and
memory.  It uses only numpy and nothing from the package.  Its tables add
about 17 MB to the resident set of the process that holds them.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time, in seconds, on the 2-CPU machine recorded in
# README.md.  It only sets the scale of the reported times.
REFERENCE_S = 0.3

# (rows, width, steps) of the two parts
_PARTS = ((16, 8192, 3000), (24, 16384, 800))


class Calibration:
    """The fixed kernel, with its inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._parts = [(rng.random((4, rows, width)), rng.integers(0, rows, steps))
                       for rows, width, steps in _PARTS]

    def seconds(self) -> float:
        """Wall time of one run of the kernel, both parts."""
        start = time.perf_counter()
        for m, idx in self._parts:
            v0 = np.full(m.shape[2], 0.5)
            v1 = v0.copy()
            for t in idx:
                w0 = m[0, t] * v0 + m[1, t] * v1
                w1 = m[2, t] * v0 + m[3, t] * v1
                s = w0 + w1
                v0 = w0 / s
                v1 = w1 / s
        return time.perf_counter() - start
