"""Seeded input generators shared by the workloads (standard library only).

Workloads draw their inputs in balanced blocks: each block holds every
combination of the properties that change an operation's cost, in a seeded
random order.  A run that stops after whole blocks therefore measures the
same mix on every seed, and only the values inside the mix vary.
"""

from __future__ import annotations

import cmath
import math
import random

STATISTICS_KINDS = ("boson", "fermion", "anyon", "distinguishable")


def statistics_token(kind: str, rng: random.Random) -> str:
    """A notouch statistics token; anyons get an angle drawn from U[0, 2 pi)."""
    if kind == "anyon":
        return f"anyon:{rng.uniform(0.0, 2.0 * math.pi)!r}"
    return kind


def haar_unitary_2x2(rng: random.Random) -> tuple[tuple[complex, complex], ...]:
    """Haar-random element of U(2).

    ``e^{i phi} [[a, -conj(b)], [b, conj(a)]]`` with ``(a, b)`` uniform on the
    unit 3-sphere is Haar on SU(2); an independent uniform phase makes it
    Haar on U(2).
    """
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    r = math.sqrt(sum(x * x for x in g))
    a = complex(g[0], g[1]) / r
    b = complex(g[2], g[3]) / r
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return (
        (phase * a, -phase * b.conjugate()),
        (phase * b, phase * a.conjugate()),
    )


def random_state(num_amplitudes: int, rng: random.Random) -> tuple[complex, ...]:
    """Normalised vector with i.i.d. complex Gaussian amplitudes."""
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(num_amplitudes)]
    total = math.sqrt(sum(abs(z) ** 2 for z in amps))
    return tuple(z / total for z in amps)


def angle_grid(count: int, rng: random.Random) -> list[float]:
    """``count`` equally spaced angles over one turn, at a random offset."""
    step = 2.0 * math.pi / count
    start = rng.uniform(0.0, step)
    return [start + i * step for i in range(count)]
