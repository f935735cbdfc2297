"""Host-speed calibration for timings taken on a shared host.

On a shared VM the same computation runs up to about 1.7x slower for
stretches of seconds to many minutes, because other tenants contend for the
host's cores and caches.  Wall-clock runs of the same code then disagree by
more than any useful regression bound.  The benchmark therefore times a
fixed unit of pure-Python work (standard library only, no notouch) right
before and right after each timed interval, and rescales the interval to
the host speed at which one unit takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean(unit before, unit after)

The unit exercises what notouch's own hot paths do (tuple keys, dict
updates, complex arithmetic, sorting), so it slows down with the host in
the same proportion; a change to notouch cannot change it.  Program costs
such as garbage collection, memory growth or slow paths stay in full in the
scaled times; only the host's speed is divided out.
"""

from __future__ import annotations

import cmath
import time

# One unit's time at the reference host speed: about its time on an idle
# core of the 2-vCPU Xeon VM the benchmark's bounds were set on.
REFERENCE_S = 0.003

_PHASES = [cmath.exp(1j * k) for k in range(17)]


def unit() -> complex:
    """A fixed amount of interpreter work: tuple keys into a dict of complex amplitudes."""
    terms: dict = {}
    for i in range(3000):
        key = tuple(sorted(((i * 7919) % 97, (i * 31) % 89, i % 83, (i * 13) % 79)))
        terms[key] = terms.get(key, 0j) + _PHASES[i % 17]
    total = 0j
    for key, amp in terms.items():
        total += amp * (key[0] - key[-1])
    return total


def time_unit() -> float:
    """Wall seconds taken by one unit now."""
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


def scale(unit_before: float, unit_after: float) -> float:
    """Factor that turns a wall time between two unit timings into reference-speed time."""
    return 2.0 * REFERENCE_S / (unit_before + unit_after)
