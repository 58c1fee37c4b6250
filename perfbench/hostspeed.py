"""The host's current speed, read from a fixed piece of reference work.

On a shared virtual machine the speed of the host drifts by tens of percent
within a minute, and every kind of work slows down together (interpreted
Python and small numpy kernels alike).  The benchmark times this fixed
work between the program's units of work and converts each unit's wall time
into reference seconds: the time it would have taken at the speed at which
one tick takes REFERENCE_TICK_S.  The work resembles the program's (a complex
term recurrence, scalar and over a 120-point ring) but calls none of it, so
a change to the program cannot change a tick.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

# one tick at the speed of this benchmark's reference host (2-CPU VM, a fast
# stretch); only ratios to it matter
REFERENCE_TICK_S = 0.0125

_RING = 0.9 * np.exp(2j * np.pi * np.arange(120) / 120)


def _work() -> complex:
    term, total, z = 1 + 0j, 0j, cmath.exp(0.3j)  # |term| ~ n^-1.5: no underflow
    for n in range(24000):
        term = term * (1.5 + n) * (0.5 + 1j + n) / ((2.5 + n) * (n + 1)) * z
        total += term
    ring_term = np.ones(120, dtype=np.complex128)
    ring_total = np.ones(120, dtype=np.complex128)
    for n in range(3000):
        ring_term *= (1.5 + n) * (0.5 + n) / ((2.5 + n) * (n + 1))
        ring_term *= _RING
        ring_total = ring_total + ring_term
    return total + complex(ring_total.sum())


def tick() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def reference_seconds(elapsed: float, tick_before: float, tick_after: float) -> float:
    """Wall time spent between two ticks, at the reference speed."""
    return elapsed * REFERENCE_TICK_S / (0.5 * (tick_before + tick_after))
