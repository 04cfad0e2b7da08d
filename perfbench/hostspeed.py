"""Wall times expressed at one fixed host speed.

A small shared host slows down and speeds up by tens of percent over
seconds to minutes as its other tenants come and go.  Such a slowdown
stretches every computation in the process alike, so a fixed reference
kernel timed right before and right after each measured interval shows
by how much that interval was slowed.  ``ReferenceClock.scale`` divides
the interval's wall time by the mean of the two readings and multiplies
by ``REFERENCE_S``: the result is the time the interval would have taken
on a host where the kernel takes ``REFERENCE_S``.

The kernel uses numpy only, never blackedge, so a change to the program
moves the scaled times exactly as it moves the wall times.  Its mix
(20 x 20 ``eigh``, small matmuls, sorts and reductions on 190-vectors,
each a short numpy call) is the mix of the attack's and the oracles' hot
paths.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on an unloaded 2-core host (Python 3.11, numpy
# 2.4, one BLAS thread).  A fixed constant: scaled times are comparable
# across runs and commits, and close to wall times when the host is not
# slowed.
REFERENCE_S = 5.0e-3
KERNEL_LOOPS = 80


class ReferenceClock:
    """Times the reference kernel; scales wall times by its readings."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 20))
        self._sym = a + a.T
        self._vec = rng.standard_normal(190)
        self.readings: list[float] = []

    def read(self) -> float:
        """Seconds one run of the kernel takes now; kept in ``readings``."""
        start = time.perf_counter()
        acc = 0.0
        for _ in range(KERNEL_LOOPS):
            w, q = np.linalg.eigh(self._sym)
            acc += float((q @ (w[:, None] * q.T))[0, 0])
            acc += float(np.sort(self._vec)[3] + np.sign(self._vec).sum())
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        self.readings.append(elapsed)
        return elapsed

    @staticmethod
    def scale(wall: float, before: float, after: float) -> float:
        """``wall`` at the reference speed, given the readings around it."""
        return wall * REFERENCE_S / (0.5 * (before + after))

    def timed(self, fn):
        """Run ``fn()``; return its result, its wall time and its scaled time."""
        before = self.read()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, self.scale(wall, before, self.read())
