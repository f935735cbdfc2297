"""Correlation experiments, CHSH evaluation and tripartite class witnesses.

Measurements follow the optical picture: a real rotation on each rail pair
followed by particle detection, with outcome +1 assigned to the pair's first
rail and -1 to the second.  Correlations are expectations of the outcome
product over the re-post-selected distribution.  The rotations are one more
gate stage on the run's accepted path histories: every phase, measurements
included, is paid once from the raw final modes in ascending injection order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .engine import RunOutput
from .errors import DimensionMismatch, PatternMismatch, ZeroProbability
from .paths import _canonical
from .qubits import QubitState

Pair = Tuple[int, int]
REFINE_TOLERANCE = 1e-3  # least gain per sweep of chsh_grid_max(refine=True)


@dataclass(frozen=True)
class MeasurementSetting:
    """One detection angle; realized as the rotation [[p, q], [q, -p]]."""

    theta: float

    @property
    def matrix(self) -> np.ndarray:
        p = np.cos(self.theta / 2.0)
        q = np.sin(self.theta / 2.0)
        return np.array([[p, q], [q, -p]], dtype=complex)


# One pair's product of two half-angle factors, indexed [u, v] with 0 for
# cos(theta/2) and 1 for sin(theta/2), over the basis (1, cos theta, sin
# theta): cos^2 = (1 + cos)/2, sin^2 = (1 - cos)/2, cos sin = sin/2.
_HALF_PRODUCTS = np.array(
    [[[0.5, 0.5, 0.0], [0.0, 0.0, 0.5]], [[0.0, 0.0, 0.5], [0.5, -0.5, 0.0]]]
).reshape(4, 3)


class CorrelationEvaluator:
    """Correlation E(theta_1, ..., theta_k) of one run on k rail pairs.

    Built once per (run, pairs), then evaluated on any batch of settings.
    It folds the accepted histories the run kept (``out.histories``) with one
    rail rotation per pair appended; it never walks the circuit again.  Each
    branch amplitude is multilinear in cos(theta/2) and sin(theta/2), so the
    outcome-weighted and the total detection weight are trigonometric
    polynomials.  Construction reduces them to two real tensors N and D of
    shape (3,) * k over the basis f(theta) = (1, cos theta, sin theta) per
    pair, and E = N[f, ...] / D[f, ...].  Building them takes O(4^k) memory,
    fine for the few pairs a correlation experiment measures.

    Every pair must hold exactly one particle in every accepted history
    (``PatternMismatch`` otherwise).  Particles outside the pairs are not
    measured, so a subset of the target pairs gives the marginal correlation.
    """

    def __init__(self, out: RunOutput, pairs: Sequence[Pair]):
        if out.probability <= 0.0:
            raise ZeroProbability("cannot correlate an impossible run")
        pairs = [tuple(pair) for pair in pairs]
        if len({m for pair in pairs for m in pair}) != 2 * len(pairs):
            raise PatternMismatch(f"rail pairs {pairs} must be disjoint mode pairs")
        k = self.num_pairs = len(pairs)
        # canonical key -> (outcome, amplitude per column), where the column's
        # bits say which factor each pair contributes: 0 for cos(theta/2),
        # 1 for sin(theta/2)
        branches: dict = {}
        for finals, species, amplitude in out.histories:
            rails = []
            for pair in pairs:
                if (pair[0] in finals) + (pair[1] in finals) != 1:
                    raise PatternMismatch(
                        f"accepted history ending in {finals} does not hold "
                        f"exactly one particle in rail pair {pair}"
                    )
                u = 0 if pair[0] in finals else 1
                rails.append((finals.index(pair[u]), u))
            for branch in itertools.product((0, 1), repeat=k):
                raw = list(finals)
                coeff = amplitude
                column = 0
                for pair, (pos, u), v in zip(pairs, rails, branch):
                    raw[pos] = pair[v]
                    column = 2 * column + int(v != u)
                    if (v, u) == (1, 1):  # the -p entry of the rotation
                        coeff = -coeff
                key, phase = _canonical(raw, species, out.statistics)
                outcome = (-1) ** sum(branch)  # +1 on a pair's first rail, -1 on its second
                entry = branches.setdefault(key, (outcome, np.zeros(2**k, dtype=complex)))
                entry[1][column] += coeff * phase
        outcomes = np.array([outcome for outcome, _ in branches.values()], dtype=float)
        amplitudes = np.array([amplitude for _, amplitude in branches.values()])
        amplitudes *= out.probability**-0.5
        # Weights Re(a_u conj(a_v)) summed over keys, with and without the
        # outcome sign; each pair's (u, v) then maps onto (1, cos, sin).
        signed = amplitudes.T * outcomes
        grams = np.stack([signed @ amplitudes.conj(), amplitudes.T @ amplitudes.conj()]).real
        order = [0] + [1 + i for p in range(k) for i in (p, k + p)]
        surface = grams.reshape((2,) * (2 * k + 1)).transpose(order).reshape((2,) + (4,) * k)
        for _ in range(k):
            surface = np.tensordot(surface, _HALF_PRODUCTS, axes=(1, 0))
        self._surface = surface  # N and D stacked, shape (2,) + (3,) * k

    def __call__(self, *thetas) -> np.ndarray:
        """Correlation at one angle array per pair, broadcast together.

        Equal-shaped arrays give a list of settings; arrays shaped for
        broadcasting (``t1[:, None], t2[None, :]``) give a separable grid.
        """
        if len(thetas) != self.num_pairs:
            raise DimensionMismatch("one measurement setting per rail pair required")
        thetas = [np.asarray(theta, dtype=float) for theta in thetas]
        ndim = max((theta.ndim for theta in thetas), default=0)
        surface = self._surface.reshape(self._surface.shape + (1,) * ndim)
        for theta in thetas:  # contract N and D with f(theta), one pair at a time
            surface = surface[:, 0] + surface[:, 1] * np.cos(theta) + surface[:, 2] * np.sin(theta)
        return surface[0] / surface[1]


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
    angles = np.asarray(settings, dtype=float).T  # rows a, a', b, b'
    e = evaluate(angles[[0, 0, 1, 1]], angles[[2, 3, 2, 3]])
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
) -> Tuple[float, Tuple[float, float, float, float]]:
    """Maximum CHSH combination over a four-angle grid.

    The grid spans [0, 2 pi) at the given resolution.  For each pair (b, b')
    the best a and a' are found separately: the combination is P[b, b'] +
    M[b, b'] with P = max_a (E(a,b) + E(a,b')) and M = max_a' (E(a',b) -
    E(a',b')).  Instead of computing all n^2 totals at O(n) each, the scan
    bounds them: it fits E(a, b) ~ f(a) . R . f(b) with f = (1, cos, sin),
    whose residual eta = max |E - fit| on the grid it measures.  With g_b = R
    f(b), the fitted total is 2 g_b[0] plus the lengths r+ and r- of the
    (cos, sin) parts of g_b + g_b' and g_b - g_b', attained at the best
    continuous a and a'; the grid comes within pi/n of them.  So every total
    lies in [2 g_b[0] + (r+ + r-) cos(pi/n) - m, 2 g_b[0] + r+ + r- + m] with
    margin m = 4 eta + 1e-12, and only pairs whose upper bound reaches the
    best lower bound can hold the maximum.  Their totals are computed exactly
    as a full scan would, in bounded chunks, and every exact tie survives
    the filter, so the result equals the full search: the first maximum in
    (b, b', a, a') order of this evaluator's grid values.  A surface that is
    far from bilinear has a large eta and simply lets every pair through.
    With ``refine`` set, the grid optimum is polished by per-coordinate
    golden-section sweeps until the improvement drops below
    ``REFINE_TOLERANCE``.
    """
    if not 0 < resolution_deg < np.inf:
        raise ValueError(f"resolution_deg must be finite and positive, got {resolution_deg!r}")
    n = max(1, round(360.0 / resolution_deg))  # coarser than 360 degrees: one angle
    angles = np.arange(n) * (2.0 * np.pi / n)
    evaluate = CorrelationEvaluator(out, pairs)
    columns = evaluate(angles[None, :], angles[:, None])  # columns[b, a] = E(a, b)

    basis = np.stack([np.ones(n), np.cos(angles), np.sin(angles)], axis=1)
    fit = np.linalg.pinv(basis)
    g = basis @ (fit @ columns @ fit.T)  # g[b] = R f(b)
    margin = 4.0 * np.abs(columns - g @ basis.T).max() + 1e-12
    z = g[:, 1] + 1j * g[:, 2]  # the (cos, sin) part of each g_b
    spread = np.abs(z[:, None] + z)
    spread += np.abs(z[:, None] - z)
    centre = 2.0 * g[:, :1]
    best_lower = (centre + spread * np.cos(np.pi / n)).max() - margin
    survivors = np.flatnonzero(centre + spread + margin >= best_lower)
    del spread

    best, best_index = -np.inf, 0
    chunk = max(1, 2**16 // n)
    for start in range(0, len(survivors), chunk):
        b, bp = np.divmod(survivors[start : start + chunk], n)
        totals = (columns[b] + columns[bp]).max(axis=1)
        totals += (columns[b] - columns[bp]).max(axis=1)
        i = int(totals.argmax())
        if totals[i] > best:
            best, best_index = float(totals[i]), int(survivors[start + i])
    b, bp = divmod(best_index, n)
    a = int((columns[b] + columns[bp]).argmax())
    ap = int((columns[b] - columns[bp]).argmax())
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
        if value - improved < REFINE_TOLERANCE:
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
