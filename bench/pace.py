"""Machine-speed reference for timings taken on a shared machine.

On a shared machine the speed of one core drifts by tens of percent over
seconds as other tenants load it.  ``reference_s`` times a fixed piece of
interpreter and small-numpy work that does not touch mdsrepair; timing it
just before and just after an interval gives the speed of that moment, and
``speed`` turns the pair into a slowdown factor against ``REF_NOMINAL_S``.
The benchmark divides set-up, round and operation times by that factor, so
they read as seconds at one fixed machine speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

perf = time.perf_counter

# Timings are rescaled to the speed at which reference_s() takes this long.
REF_NOMINAL_S = 0.01


def reference_s() -> float:
    """Seconds taken by a fixed piece of work independent of mdsrepair."""
    t0 = perf()
    x = 12345
    for _ in range(3000):
        basis = {}
        for _ in range(8):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            v = x & 0xFF
            while v:
                h = v.bit_length() - 1
                if h in basis:
                    v ^= basis[h]
                else:
                    basis[h] = v
                    break
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(300):
        a = (a @ a) % 3
    return perf() - t0


def speed(refs) -> float:
    """Slowdown against the nominal machine speed, from the reference times
    taken just before and just after an interval."""
    return statistics.fmean(refs) / REF_NOMINAL_S
