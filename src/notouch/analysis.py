"""Correlation experiments, CHSH evaluation and tripartite class witnesses.

Measurements follow the optical picture: a real rotation on each rail pair
followed by particle detection, with outcome +1 assigned to the pair's first
rail and -1 to the second.  Correlations are expectations of the outcome
product over the re-post-selected distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .engine import RunOutput
from .errors import DimensionMismatch, PatternMismatch, ZeroProbability
from .fock import canonicalize, canonicalize_labeled, norm
from .qubits import QubitState

Pair = Tuple[int, int]


@dataclass(frozen=True)
class MeasurementSetting:
    """One detection angle; realized as the rotation [[p, q], [q, -p]]."""

    theta: float

    @property
    def matrix(self) -> np.ndarray:
        p = np.cos(self.theta / 2.0)
        q = np.sin(self.theta / 2.0)
        return np.array([[p, q], [q, -p]], dtype=complex)


class CorrelationEvaluator:
    """Correlation E(theta_1, ..., theta_k) of one run on k rail pairs.

    Built once per (run, pairs), then evaluated on any batch of settings.  For
    every accepted term and each of its 2^k rail-rotation branches it stores
    the canonical key, the outcome sign, the coefficient (amplitude times
    reordering phase times matrix sign) and which factor, cos(theta/2) or
    sin(theta/2), each pair contributes.

    Every pair must hold exactly one particle in every accepted term
    (``PatternMismatch`` otherwise).  Particles outside the pairs are not
    measured, so a subset of the target pairs gives the marginal correlation.
    """

    def __init__(self, out: RunOutput, pairs: Sequence[Pair]):
        if out.probability <= 0.0:
            raise ZeroProbability("cannot correlate an impossible run")
        pairs = [tuple(pair) for pair in pairs]
        if len({m for pair in pairs for m in pair}) != 2 * len(pairs):
            raise PatternMismatch(f"rail pairs {pairs} must be disjoint mode pairs")
        self.num_pairs = len(pairs)
        base = out.accepted.scaled(1.0 / norm(out.accepted))
        # canonical key -> (outcome, [(coefficient, trig kinds), ...]) in
        # first-appearance order; kind 0 is cos(theta/2), 1 is sin(theta/2)
        groups: dict = {}
        for modes, species, amp in base.items():
            rails = []
            for pair in pairs:
                if (pair[0] in modes) + (pair[1] in modes) != 1:
                    raise PatternMismatch(
                        f"accepted term {modes} does not hold exactly one "
                        f"particle in rail pair {pair}"
                    )
                u = 0 if pair[0] in modes else 1
                rails.append((modes.index(pair[u]), u))
            for branch in itertools.product((0, 1), repeat=len(pairs)):
                raw = list(modes)
                coeff = amp
                outcome = 1
                kinds = []
                for pair, (pos, u), v in zip(pairs, rails, branch):
                    raw[pos] = pair[v]
                    outcome *= 1 if v == 0 else -1
                    kinds.append(int(v != u))
                    if (v, u) == (1, 1):  # the -p entry of the rotation
                        coeff = -coeff
                if species is not None:
                    key = canonicalize_labeled(raw, species)
                else:
                    key, phase = canonicalize(raw, out.statistics)
                    coeff = coeff * phase
                groups.setdefault(key, (outcome, []))[1].append((coeff, kinds))
        self._groups = list(groups.values())

    def __call__(self, *thetas) -> np.ndarray:
        """Correlation at one angle array per pair, broadcast together.

        Equal-shaped arrays give a list of settings; arrays shaped for
        broadcasting (``t1[:, None], t2[None, :]``) give a separable grid,
        built from outer products without a points-by-branches array.
        """
        if len(thetas) != self.num_pairs:
            raise DimensionMismatch("one measurement setting per rail pair required")
        trig = []
        for theta in thetas:
            half = np.asarray(theta, dtype=float) / 2.0
            trig.append((np.cos(half), np.sin(half)))
        # Branch terms are summed one by one in construction order, so grid
        # values, and with them the CHSH grid search's ties, stay bit-stable.
        numerator = denominator = 0.0
        for outcome, branches in self._groups:
            amplitude = None
            for coeff, kinds in branches:
                term = coeff
                for factors, kind in zip(trig, kinds):
                    term = factors[kind] * term
                if amplitude is None:
                    amplitude = term
                else:
                    amplitude += term
            weight = np.abs(amplitude) ** 2
            numerator = numerator + outcome * weight
            denominator = denominator + weight
        return numerator / denominator


def correlation(out: RunOutput, settings: Sequence, pairs: Sequence[Pair]) -> float:
    """Expectation of the product of rail outcomes at the given settings.

    Every pair must hold exactly one particle in every accepted term
    (``PatternMismatch`` otherwise); particles outside ``pairs`` are traced
    out.  For many settings, build a ``CorrelationEvaluator`` once instead.
    """
    thetas = [getattr(setting, "theta", setting) for setting in settings]
    return float(CorrelationEvaluator(out, pairs)(*thetas))


def correlation_table(
    out: RunOutput,
    thetas1: Sequence[float],
    thetas2: Sequence[float],
    pairs: Sequence[Pair],
) -> list[Tuple[float, float, float]]:
    """Correlation on a two-angle grid, rows in (theta1-major) grid order."""
    if len(pairs) != 2:
        raise DimensionMismatch("a correlation table needs exactly two rail pairs")
    t1 = np.asarray(thetas1, dtype=float)
    t2 = np.asarray(thetas2, dtype=float)
    e = CorrelationEvaluator(out, pairs)(t1[:, None], t2[None, :])
    return list(
        zip(t1.repeat(len(t2)).tolist(), np.tile(t2, len(t1)).tolist(), e.ravel().tolist())
    )


def _chsh(evaluate: CorrelationEvaluator, settings) -> np.ndarray:
    """CHSH combination at each row (a, a', b, b') of ``settings``."""
    a, a_prime, b, b_prime = np.asarray(settings, dtype=float).T
    e = evaluate(np.stack([a, a, a_prime, a_prime]), np.stack([b, b_prime, b, b_prime]))
    return e[0] + e[1] + e[2] - e[3]


def chsh_value(
    out: RunOutput,
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    pairs: Sequence[Pair],
) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return float(_chsh(CorrelationEvaluator(out, pairs), [(a, a_prime, b, b_prime)])[0])


def chsh_grid_max(
    out: RunOutput,
    pairs: Sequence[Pair],
    resolution_deg: float = 1.0,
    refine: bool = False,
    refine_tolerance: float = 1e-3,
) -> Tuple[float, Tuple[float, float, float, float]]:
    """Maximum CHSH combination over a four-angle grid.

    The grid spans [0, 2 pi) at the given resolution.  For each pair (b, b')
    the best a and a' are found separately: the combination is P[b, b'] +
    M[b, b'] with P = max_a (E(a,b) + E(a,b')) and M = max_a' (E(a',b) -
    E(a',b')).  P is symmetric and M[b', b] = -min_a' (E(a',b) - E(a',b'))
    exactly in floating point, so only b' >= b is scanned.  Ties resolve to
    the first maximum in (b, b', a, a') order.  With ``refine`` set, the grid
    optimum is polished by per-coordinate golden-section sweeps until the
    improvement drops below ``refine_tolerance``.
    """
    n = int(round(360.0 / resolution_deg))
    angles = np.arange(n) * (2.0 * np.pi / n)
    evaluate = CorrelationEvaluator(out, pairs)
    columns = np.ascontiguousarray(evaluate(angles[:, None], angles[None, :]).T)

    totals = np.empty((n, n))
    scratch = np.empty((n, n))
    for b in range(n):
        rows = scratch[: n - b]
        np.add(columns[b], columns[b:], out=rows)
        plus = rows.max(axis=1)
        np.subtract(columns[b], columns[b:], out=rows)
        totals[b, b:] = plus + rows.max(axis=1)
        totals[b:, b] = plus - rows.min(axis=1)
    b, bp = divmod(int(totals.argmax()), n)
    a = int((columns[b] + columns[bp]).argmax())
    ap = int((columns[b] - columns[bp]).argmax())
    best = float(totals[b, bp])
    best_angles = tuple(float(angles[i]) for i in (a, ap, b, bp))
    if not refine:
        return best, best_angles

    current = list(best_angles)
    value = float(_chsh(evaluate, [current])[0])
    step = 2.0 * np.pi / n
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    while True:
        improved = value
        for i in range(4):
            lo, hi = current[i] - step, current[i] + step
            x1 = hi - gr * (hi - lo)
            x2 = lo + gr * (hi - lo)
            for _ in range(40):
                c1, c2 = list(current), list(current)
                c1[i], c2[i] = x1, x2
                v1, v2 = _chsh(evaluate, [c1, c2])
                if v1 < v2:
                    lo = x1
                    x1, x2 = x2, lo + gr * (hi - lo)
                else:
                    hi = x2
                    x2, x1 = x1, hi - gr * (hi - lo)
            current[i] = (lo + hi) / 2.0
        value = float(_chsh(evaluate, [current])[0])
        if value - improved < refine_tolerance:
            break
    return value, tuple(current)


def fidelity(state: QubitState, target: QubitState) -> float:
    """Squared overlap of two normalized qubit states."""
    if state.num_qubits != target.num_qubits:
        raise DimensionMismatch("states must have the same number of qubits")
    return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)


def three_tangle(state: QubitState) -> float:
    """Residual tangle of a three-qubit state.

    Positive for the GHZ entanglement class, zero for the W class and for
    product states; invariant under local unitaries.
    """
    if state.num_qubits != 3:
        raise DimensionMismatch("the tangle is defined for three qubits")
    a = state.amplitudes

    def amp(i, j, k):
        return a[(i << 2) | (j << 1) | k]

    d1 = (
        amp(0, 0, 0) ** 2 * amp(1, 1, 1) ** 2
        + amp(0, 0, 1) ** 2 * amp(1, 1, 0) ** 2
        + amp(0, 1, 0) ** 2 * amp(1, 0, 1) ** 2
        + amp(1, 0, 0) ** 2 * amp(0, 1, 1) ** 2
    )
    d2 = (
        amp(0, 0, 0) * amp(1, 1, 1) * amp(0, 1, 1) * amp(1, 0, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(1, 0, 1) * amp(0, 1, 0) * amp(1, 1, 0) * amp(0, 0, 1)
    )
    d3 = (
        amp(0, 0, 0) * amp(1, 1, 0) * amp(1, 0, 1) * amp(0, 1, 1)
        + amp(1, 1, 1) * amp(0, 0, 1) * amp(0, 1, 0) * amp(1, 0, 0)
    )
    hyper = d1 - 2.0 * d2 + 4.0 * d3
    magnitude = abs(hyper)
    if magnitude < 1e-12:
        return 0.0
    return float(4.0 * magnitude)
