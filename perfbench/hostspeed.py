"""Host-speed calibration for the benchmark's time metrics.

On a shared virtual machine the same Python work takes up to ~60% longer
from one minute to the next, on each vCPU independently (CPU time tracks
wall time, so the slowdown is the host's, not scheduling). A fixed
reference loop, timed on the measured vCPU between pieces of measured
work, tracks that drift: every reported time is scaled by ``NOMINAL_S``
over the median of the readings around it, so it reads as seconds at a
fixed reference speed. The loop imports nothing from the repository, so
program changes cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Calibration readings on either side of a measurement that its scale
#: factor takes the median of: single readings jitter by ±30%.
WINDOW = 3

#: Wall time of :func:`calibrate` at the reference speed (a 2-vCPU Xeon
#: guest in a quiet period). Only scales the reported unit.
NOMINAL_S = 0.014


#: The reference loop's inputs: small ints only (CPython caches them), so
#: the loop allocates nothing and its time cannot depend on the heap or
#: the garbage collector of the process it runs in.
_STEPS = [(i * 2654435761 >> 7) & 255 for i in range(40_000)]
_TABLE = [(i * 40503 >> 5) & 255 for i in range(256)]


def _reference_work() -> int:
    table = _TABLE
    acc = 0
    for _ in range(10):
        for step in _STEPS:
            acc = table[acc ^ step]
    return acc


def calibrate() -> float:
    """Seconds one run of the reference loop takes right now."""
    start = time.monotonic()
    _reference_work()
    return time.monotonic() - start


def scaled(seconds: float, readings, index: int) -> float:
    """``seconds`` measured between calibration ``readings[index]`` and
    ``readings[index + 1]``, expressed at the reference speed."""
    near = readings[max(0, index + 1 - WINDOW):index + 1 + WINDOW]
    return seconds * NOMINAL_S / statistics.median(near)
