"""Machine-speed calibration for noisy shared hosts.

On a shared 2-core x86-64 host (Python 3.11, numpy 2.4), the machine
switched between fast and slow phases lasting a few ops, and the same
run could be 40% slower a few minutes later.  Workers therefore run a
small fixed kernel after every op (outside the op's timing), and after
each set-up-only start-up.  An op's time is divided by its slowdown, the
mean of the kernel runs just before and just after it divided by REF_S;
a start-up's time by its own kernel runs' slowdown.  This states times at
the machine speed where the kernel takes REF_S.  Raw values stay in the
run record.

Ops that are whole processes (the CLI workload) are calibrated instead by
a bare interpreter start, ``python -c pass``, over PROCESS_REF_S: the
in-process kernel did not follow the speed of child processes.

Ops whose time is numpy array arithmetic (the numeric workload's
recurrence, Cesaro and Bochner-Fejer kernels) are calibrated by a small
numpy kernel over ARRAY_REF_S: array code slowed down less than plain
Python in the host's slow phases, so the exact-arithmetic kernel
over-corrected them, and their 90th percentile fell as the machine slowed
(10-seed spread 0.084; 0.045 with the array kernel).
ARRAY_REF_S is the array kernel's time on that host when the exact
kernel took REF_S, so both state times at the same machine speed.

The kernel is plain Python exact arithmetic with hashing and sorting, the
same kind of work as trisemi's exact layer, but it calls nothing in
trisemi, so no change to the package can move it.  Garbage collection is
paused while it runs, so a heap the package keeps alive does not slow it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF_S = 1e-3
# A bare interpreter start, the calibration for ops that are whole processes.
PROCESS_REF_S = 0.05
ARRAY_REF_S = 1.05e-3
_ARRAY_POINTS = 32768
_array_x = None


def _kernel() -> list:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        key = (i % 11, acc.denominator % 97)
        table[key] = table.get(key, Fraction(0)) + acc
    return sorted(table.items())


def _array_kernel() -> float:
    global _array_x
    import numpy as np

    if _array_x is None:
        _array_x = np.linspace(0.0, 1.0, _ARRAY_POINTS)
    total = 0.0
    for _ in range(2):
        y = np.cos(3.1 * _array_x) * np.exp(-_array_x)
        total += float(np.sum(y * y))
    return total


def slowdown() -> float:
    """One kernel run's time over REF_S."""
    return sample() / REF_S


def array_slowdown() -> float:
    """One array kernel run's time over ARRAY_REF_S."""
    return sample(_array_kernel) / ARRAY_REF_S


def sample(kernel=_kernel) -> float:
    """Seconds for one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
