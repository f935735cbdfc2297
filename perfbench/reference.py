"""Closed-form expected results, computed without notouch.

Every check in the benchmark compares notouch's output with a value from
this module, so the module uses only the standard library and derives each
value from the physics of the circuit, never from a notouch call.

Conventions shared with notouch's documentation: modes are labelled from 1,
a rail pair ``(up, down)`` encodes bit 0 on ``up``, qubit 1 is the most
significant bit, and the measurement at angle ``theta`` realises the
observable ``A(theta) = cos(theta) Z + sin(theta) X``.
"""

from __future__ import annotations

import cmath
import math


def exchange_phase(token: str) -> complex:
    """Phase ``s`` picked up when two particles swap, from a statistics token."""
    if token == "boson":
        return 1.0 + 0.0j
    if token == "fermion":
        return -1.0 + 0.0j
    kind, _, theta = token.partition(":")
    if kind != "anyon":
        raise ValueError(f"no exchange phase for {token!r}")
    return cmath.exp(1j * float(theta))


def ring_amplitudes(unitaries, phase: complex) -> tuple[complex, complex]:
    """Accepted amplitudes of the GHZ ring: (all particles stay, all shift).

    Particle ``j`` starts on mode ``2j-1``.  It stays there with amplitude
    ``U_j[0,0]`` or moves to ``2j`` with ``U_j[1,0]``, and the permutation
    carries ``2j`` to ``2j+2`` (``2n`` to ``2``).  Only the two uniform
    choices put one particle in every pair; the shifted pattern lists the
    particles as ``(4, 6, ..., 2n, 2)``, ``n-1`` inversions from sorted order.
    """
    stay = 1.0 + 0.0j
    shift = 1.0 + 0.0j
    for u in unitaries:
        stay *= complex(u[0][0])
        shift *= complex(u[1][0])
    return stay, phase ** (len(unitaries) - 1) * shift


def ring_patterns(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted occupied modes of the two accepted ring patterns."""
    return tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2))


def correlation_matrix(psi) -> list[list[float]]:
    """``T[i][j] = <psi| s_i (x) s_j |psi>`` for ``s_0 = Z``, ``s_1 = X``."""

    def apply(op, qubit, vec):
        out = [0j] * 4
        for index, amp in enumerate(vec):
            bit = (index >> (1 - qubit)) & 1
            if op == "Z":
                out[index] += amp if bit == 0 else -amp
            else:
                out[index ^ (1 << (1 - qubit))] += amp
        return out

    table = []
    for a in ("Z", "X"):
        row = []
        for b in ("Z", "X"):
            phi = apply(a, 0, apply(b, 1, list(psi)))
            row.append(sum((x.conjugate() * y for x, y in zip(psi, phi)), 0j).real)
        table.append(row)
    return table


def correlation(table, theta1: float, theta2: float) -> float:
    """``E = <psi| A(theta1) (x) A(theta2) |psi>`` from the correlation matrix."""
    a = (math.cos(theta1), math.sin(theta1))
    b = (math.cos(theta2), math.sin(theta2))
    return sum(a[i] * table[i][j] * b[j] for i in range(2) for j in range(2))


def chsh_max(table) -> float:
    """Largest CHSH value with all four settings in the x-z plane.

    CHSH = a.T(b+b') + a'.T(b-b'); ``b+b'`` and ``b-b'`` are orthogonal, so the
    maximum is ``2 sqrt(s1^2 + s2^2)`` over the singular values of ``T``,
    which is twice its Frobenius norm.
    """
    return 2.0 * math.sqrt(sum(x * x for row in table for x in row))


# Independent particles carry classical correlations only: E = cos(t1) cos(t2),
# whose CHSH maximum is 2.
DISTINGUISHABLE_TABLE = [[1.0, 0.0], [0.0, 0.0]]


def fidelity(a, b) -> float:
    """Squared overlap of two normalised state vectors."""
    return abs(sum((x.conjugate() * y for x, y in zip(a, b)), 0j)) ** 2
