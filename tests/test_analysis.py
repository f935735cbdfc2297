import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from notouch.analysis import (
    CorrelationEvaluator,
    chsh_grid_max,
    chsh_value,
    correlation,
    correlation_table,
    three_tangle,
)
from notouch.circuit import (
    Circuit,
    LocalUnitary,
    bell_circuit,
    ghz_circuit,
    hadamard_gate,
    hom_circuit,
    permutation_from_one_line,
    synthesize_two_qubit,
    w_circuit,
)
from notouch.engine import (
    apply_gate,
    computational_distribution,
    extract_dual_rail,
    post_select,
    run,
    run_distinguishable,
)
from notouch.errors import DimensionMismatch, PatternMismatch, ZeroProbability, ZeroState
from notouch.fock import BOSON, FERMION, FockState, anyon, norm
from notouch.qubits import QubitState, fidelity

PAIRS = bell_circuit().target_pairs


def rail_rotation(theta):
    """The detection rotation [[cos, sin], [sin, -cos]] of theta / 2 on one rail pair."""
    p, q = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[p, q], [q, -p]], dtype=complex)


def test_setting_matrix_is_orthogonal():
    m = rail_rotation(0.8)
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(m, [[np.cos(0.4), np.sin(0.4)], [np.sin(0.4), -np.cos(0.4)]])


@pytest.mark.parametrize(
    "t1,t2", [(0.0, 0.0), (0.7, 0.2), (2.5, 4.0), (5.9, 1.1)]
)
def test_bell_correlations_match_closed_forms(t1, t2):
    out_b = run(bell_circuit(), BOSON)
    out_f = run(bell_circuit(), FERMION)
    out_d = run_distinguishable(bell_circuit())
    assert abs(correlation(out_b, (t1, t2), PAIRS) - np.cos(t1 - t2)) < 1e-9
    assert abs(correlation(out_f, (t1, t2), PAIRS) - np.cos(t1 + t2)) < 1e-9
    assert abs(correlation(out_d, (t1, t2), PAIRS) - np.cos(t1) * np.cos(t2)) < 1e-9


def test_correlation_is_bounded_and_phase_invariant():
    out = run(bell_circuit(), BOSON)
    rng = np.random.default_rng(17)
    for _ in range(25):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        e = correlation(out, (t1, t2), PAIRS)
        assert -1 - 1e-12 <= e <= 1 + 1e-12
    # a global phase on the accepted state, here from one input gate, changes nothing
    first, second = bell_circuit().input_stage
    phased = replace(
        bell_circuit(),
        input_stage=(LocalUnitary(first.support, np.exp(0.4j) * first.matrix), second),
    )
    rotated = run(phased, BOSON)
    for modes, _species, amp in out.accepted.items():
        assert abs(rotated.accepted.amplitude(modes) - np.exp(0.4j) * amp) < 1e-12
    assert abs(correlation(rotated, (0.3, 0.9), PAIRS) - np.cos(0.6)) < 1e-9


def test_boson_correlation_shift_invariance():
    out = run(bell_circuit(), BOSON)
    rng = np.random.default_rng(23)
    for _ in range(10):
        t1, t2, shift = rng.uniform(0, 2 * np.pi, size=3)
        a = correlation(out, (t1, t2), PAIRS)
        b = correlation(out, (t1 + shift, t2 + shift), PAIRS)
        assert abs(a - b) < 1e-9


def test_distinguishable_correlation_factorizes():
    out = run_distinguishable(bell_circuit())
    rng = np.random.default_rng(29)
    for _ in range(10):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        lhs = correlation(out, (t1, t2), PAIRS) * correlation(out, (0.0, 0.0), PAIRS)
        rhs = correlation(out, (t1, 0.0), PAIRS) * correlation(out, (0.0, t2), PAIRS)
        assert abs(lhs - rhs) < 1e-9


def test_correlation_errors():
    out = run(bell_circuit(), BOSON)
    with pytest.raises(DimensionMismatch):
        correlation(out, (0.1,), PAIRS)
    from notouch.engine import RunOutput
    from notouch.fock import FockState

    empty = RunOutput(FockState(4), FockState(4), 0.0, BOSON, ())
    with pytest.raises(ZeroProbability):
        correlation(empty, (0.0, 0.0), PAIRS)


def test_evaluator_reads_the_run_histories_without_walking_the_circuit(monkeypatch):
    import notouch.analysis
    import notouch.circuit
    import notouch.paths

    out = run(bell_circuit(), anyon(1.3))
    table = correlation_table(out, [0.0, 0.4], [1.1, 2.0], PAIRS)
    grid = chsh_grid_max(out, PAIRS, resolution_deg=10.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the correlation evaluator walked or validated the circuit")

    patched = ((notouch.paths, "_branch_combinations"), (notouch.circuit, "validate_circuit"))
    for module, name in patched:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(notouch.analysis, name, refuse, raising=False)
    assert CorrelationEvaluator(out, PAIRS)(1.1, 2.0) == correlation(out, (1.1, 2.0), PAIRS)
    assert correlation_table(out, [0.0, 0.4], [1.1, 2.0], PAIRS) == table
    assert chsh_grid_max(out, PAIRS, resolution_deg=10.0) == grid


def test_correlation_table_grid_order():
    out = run(bell_circuit(), BOSON)
    rows = correlation_table(out, [0.0, 1.0], [0.0, 0.5], PAIRS)
    assert [(r[0], r[1]) for r in rows] == [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]
    for t1, t2, e in rows:
        assert abs(e - np.cos(t1 - t2)) < 1e-9


def test_chsh_canonical_angles():
    out = run(bell_circuit(), BOSON)
    s = chsh_value(out, 0.0, np.pi / 2, np.pi / 4, -np.pi / 4, PAIRS)
    assert abs(s - 2 * np.sqrt(2)) < 1e-9
    # all angles equal collapses to twice the diagonal correlation
    assert abs(chsh_value(out, 0.3, 0.3, 0.3, 0.3, PAIRS) - 2.0) < 1e-9


def test_chsh_grid_max_coarse():
    out_b = run(bell_circuit(), BOSON)
    value, angles = chsh_grid_max(out_b, PAIRS, resolution_deg=3.0)
    assert abs(value - 2 * np.sqrt(2)) < 1e-9
    check = chsh_value(out_b, *angles, pairs=PAIRS)
    assert abs(check - value) < 1e-9
    out_d = run_distinguishable(bell_circuit())
    value_d, _ = chsh_grid_max(out_d, PAIRS, resolution_deg=3.0)
    assert value_d <= 2 + 1e-9


@pytest.mark.parametrize("resolution", [0, 0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_chsh_grid_max_rejects_a_bad_resolution(resolution):
    out = run(bell_circuit(), BOSON)
    with pytest.raises(ValueError, match="resolution_deg"):
        chsh_grid_max(out, PAIRS, resolution_deg=resolution)


def test_chsh_grid_max_coarser_than_a_turn_scans_one_angle():
    out = run(bell_circuit(), BOSON)
    assert chsh_grid_max(out, PAIRS, resolution_deg=1000.0) == chsh_grid_max(
        out, PAIRS, resolution_deg=360.0
    )


@pytest.mark.parametrize("resolution", [10.0, 90.0, 1000.0])
@pytest.mark.parametrize("stat", [BOSON, FERMION], ids=["boson", "fermion"])
def test_chsh_grid_refinement_converges(stat, resolution):
    # at 1000 degrees the grid has one angle: the start (0, 0, 0, 0) is a
    # saddle with S = 2 that the refinement has to leave
    out = run(bell_circuit(), stat)
    value, _ = chsh_grid_max(out, PAIRS, resolution_deg=resolution, refine=True)
    assert abs(value - 2 * np.sqrt(2)) < 1e-12
    assert value >= chsh_grid_max(out, PAIRS, resolution_deg=resolution)[0] - 1e-15


def test_chsh_refinement_call_budget_and_float_angles(monkeypatch):
    out = run(bell_circuit(), BOSON)
    calls = []
    evaluate = CorrelationEvaluator.__call__

    def counted(self, *thetas):
        calls.append(thetas)
        return evaluate(self, *thetas)

    monkeypatch.setattr(CorrelationEvaluator, "__call__", counted)
    _, angles = chsh_grid_max(out, PAIRS, resolution_deg=1.0, refine=True)
    assert len(calls) <= 100
    assert all(type(angle) is float for angle in angles)


def test_fidelity_examples():
    ghz = extract_dual_rail(run(ghz_circuit(), BOSON).accepted, ghz_circuit().target_pairs)
    w = extract_dual_rail(run(w_circuit(), BOSON).accepted, w_circuit().target_pairs)
    assert abs(fidelity(ghz, ghz) - 1) < 1e-12
    assert fidelity(ghz, w) < 1e-12  # disjoint supports
    s = 1 / np.sqrt(2)
    target = QubitState(3, np.array([s, 0, 0, 0, 0, 0, 0, s]))
    assert abs(fidelity(ghz, target) - 1) < 1e-9
    with pytest.raises(DimensionMismatch):
        fidelity(ghz, QubitState(2, np.array([1, 0, 0, 0])))


def test_three_tangle_witnesses():
    ghz = extract_dual_rail(run(ghz_circuit(), BOSON).accepted, ghz_circuit().target_pairs)
    w = extract_dual_rail(run(w_circuit(), BOSON).accepted, w_circuit().target_pairs)
    assert abs(three_tangle(ghz) - 1.0) < 1e-9
    assert three_tangle(w) == 0.0
    product = QubitState(3, np.eye(8)[0])
    assert three_tangle(product) == 0.0
    with pytest.raises(DimensionMismatch):
        three_tangle(QubitState(2, np.array([1, 0, 0, 0])))


def _three_tangle_expansion(amplitudes):
    """4 |hyperdeterminant| written out term by term (Coffman, Kundu, Wootters)."""

    def amp(i, j, k):
        return amplitudes[(i << 2) | (j << 1) | k]

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
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def test_three_tangle_matches_the_term_expansion():
    rng = np.random.default_rng(41)
    for _ in range(200):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = QubitState(3, z / np.linalg.norm(z))
        assert abs(three_tangle(state) - _three_tangle_expansion(state.amplitudes)) <= 1e-14


def _haar_unitary(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(31)
    ghz = extract_dual_rail(run(ghz_circuit(), BOSON).accepted, ghz_circuit().target_pairs)
    w = extract_dual_rail(run(w_circuit(), BOSON).accepted, w_circuit().target_pairs)
    for state, expected in ((ghz, 1.0), (w, 0.0)):
        for _ in range(10):
            tensor = state.amplitudes.reshape(2, 2, 2)
            for axis in range(3):
                u = _haar_unitary(rng)
                tensor = np.moveaxis(
                    np.tensordot(u, np.moveaxis(tensor, axis, 0), axes=(1, 0)), 0, axis
                )
            rotated = QubitState(3, tensor.reshape(8))
            assert abs(three_tangle(rotated) - expected) < 1e-8


# ---------------------------------------------------------------------------
# Differential checks of the evaluator against independent oracles
# ---------------------------------------------------------------------------


def _scalar_correlation(out, thetas, pairs):
    """Rotate every pair with the Fock engine, re-post-select and average."""
    n, f = out.accepted.num_modes, 1.0 / norm(out.accepted)
    state = FockState(n, {(m, s): f * a for m, s, a in out.accepted.items()})
    for theta, pair in zip(thetas, pairs):
        gate = LocalUnitary(tuple(pair), rail_rotation(theta))
        state = apply_gate(state, gate, out.statistics)
    kept, weight = post_select(state, pairs)
    total = 0.0
    for modes, _species, amp in kept.items():
        sign = 1
        for pair in pairs:
            sign *= 1 if pair[0] in modes else -1
        total += sign * abs(amp) ** 2
    return total / weight


def _looped_chsh_grid_max(out, pairs, resolution_deg):
    """The CHSH grid search as one pass per b, keeping the first strict maximum."""
    n = max(1, int(round(360.0 / resolution_deg)))
    angles = np.arange(n) * (2.0 * np.pi / n)
    e = CorrelationEvaluator(out, pairs)(angles[:, None], angles[None, :])
    best, best_idx = -np.inf, (0, 0, 0, 0)
    for b in range(n):
        plus = e[:, b][:, None] + e
        minus = e[:, b][:, None] - e
        a_best = plus.argmax(axis=0)
        ap_best = minus.argmax(axis=0)
        totals = plus[a_best, np.arange(n)] + minus[ap_best, np.arange(n)]
        bp = int(totals.argmax())
        if totals[bp] > best:
            best = float(totals[bp])
            best_idx = (int(a_best[bp]), int(ap_best[bp]), b, bp)
    return best, tuple(float(angles[i]) for i in best_idx)


def _runs(circuit):
    for stat in (BOSON, FERMION, anyon(0.7), anyon(2.9)):
        yield run(circuit, stat)
    yield run_distinguishable(circuit)


def _random_targets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield QubitState(2, vec / np.linalg.norm(vec))


@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit])
def test_evaluator_matches_scalar_oracle(builder):
    circuit = builder()
    pairs = circuit.target_pairs
    rng = np.random.default_rng(41)
    thetas = rng.uniform(0, 2 * np.pi, size=(len(pairs), 12))
    for out in _runs(circuit):
        batch = CorrelationEvaluator(out, pairs)(*thetas)
        for j in range(thetas.shape[1]):
            expected = _scalar_correlation(out, thetas[:, j], pairs)
            assert abs(batch[j] - expected) < 1e-12
            assert abs(correlation(out, thetas[:, j], pairs) - expected) < 1e-12


def test_table_matches_scalar_oracle_on_synthesized_targets():
    rng = np.random.default_rng(43)
    grid1, grid2 = rng.uniform(0, 2 * np.pi, size=(2, 7))
    for target in _random_targets(47, 4):
        for stat in (BOSON, FERMION, anyon(float(rng.uniform(0, 2 * np.pi)))):
            circuit = synthesize_two_qubit(target, stat)
            out = run(circuit, stat)
            rows = correlation_table(out, grid1, grid2, circuit.target_pairs)
            for t1, t2, e in rows:
                expected = _scalar_correlation(out, (t1, t2), circuit.target_pairs)
                assert abs(e - expected) < 1e-12
    out = run_distinguishable(bell_circuit())
    for t1, t2, e in correlation_table(out, grid1, grid2, PAIRS):
        assert abs(e - _scalar_correlation(out, (t1, t2), PAIRS)) < 1e-12


def _interleaved_circuit(one_line, output_stage=()):
    """Two Hadamard-split particles routed onto the interleaved rail pairs
    (1, 3) and (2, 4)."""
    return Circuit(
        num_modes=4,
        input_subsystems=((1, 2), (3, 4)),
        injections=(1, 3),
        input_stage=(hadamard_gate(1, 2), hadamard_gate(3, 4)),
        permutation=permutation_from_one_line(one_line),
        output_stage=output_stage,
        output_subsystems=((1, 3), (2, 4)),
        target_pairs=((1, 3), (2, 4)),
    )


def _interleaved_anyon_run():
    """Anyon run whose rail pairs interleave and whose output splitter mixes
    modes that both particles reach, so its surface is not bilinear."""
    splitter = np.diag([1.0, 1.0j]) @ hadamard_gate(1, 3).matrix
    circuit = _interleaved_circuit([4, 1, 3, 2], (LocalUnitary((1, 3), splitter),))
    return run(circuit, anyon(0.7)), circuit.target_pairs


@pytest.mark.parametrize("one_line", [[1, 3, 2, 4], [2, 4, 1, 3]])
def test_interleaved_correlation_is_the_run_with_rotations_appended(one_line):
    # the rail rotations pay their anyon phase once, with the rest of the
    # history, exactly as when they run as output gates
    circuit = _interleaved_circuit(one_line)
    thetas = (0.4, 1.1)
    value = correlation(run(circuit, anyon(0.7)), thetas, circuit.target_pairs)
    rotations = tuple(
        LocalUnitary(pair, rail_rotation(theta))
        for pair, theta in zip(circuit.target_pairs, thetas)
    )
    measured = run(replace(circuit, output_stage=rotations), anyon(0.7))
    dist = computational_distribution(measured, circuit.target_pairs)
    expected = sum(p * (-1) ** sum(bits) for bits, p in dist.items())
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.347052492808) < 1e-12


def _bilinear_residual(out, pairs, n):
    """Largest deviation of the grid surface from its fit f(a) . R . f(b)."""
    angles = np.arange(n) * (2.0 * np.pi / n)
    e = CorrelationEvaluator(out, pairs)(angles[:, None], angles[None, :])
    basis = np.stack([np.ones(n), np.cos(angles), np.sin(angles)], axis=1)
    fit = np.linalg.pinv(basis)
    return np.abs(e - basis @ (fit @ e @ fit.T) @ basis.T).max()


@pytest.mark.parametrize("resolution", [1.0, 3.0, 10.0])
def test_chsh_grid_scan_equals_looped_search(resolution):
    cases = [(out, PAIRS) for out in _runs(bell_circuit())]
    cases += [
        (run(circuit, FERMION), circuit.target_pairs)
        for circuit in (synthesize_two_qubit(t, FERMION) for t in _random_targets(53, 2))
    ]
    if resolution == 1.0:  # the looped oracle is slow at this resolution
        cases = cases[0:1] + cases[4:6]  # boson, distinguishable, one synthesized
    product = synthesize_two_qubit(QubitState(2, np.array([1, 0, 0, 0])), BOSON)
    cases.append((run(product, BOSON), product.target_pairs))
    interleaved = _interleaved_anyon_run()
    assert _bilinear_residual(*interleaved, 36) > 0.1
    cases.append(interleaved)
    for out, pairs in cases:
        got = chsh_grid_max(out, pairs, resolution_deg=resolution)
        assert got == _looped_chsh_grid_max(out, pairs, resolution)


@pytest.mark.parametrize("resolution", [1000.0, 180.0, 120.0])  # n = 1, 2, 3 angles
def test_chsh_grid_scan_with_at_most_three_angles_equals_looped_search(resolution):
    # for n <= 2 the scan's closed-form fit is not least squares; the filter
    # must still let every maximum through
    cases = [(out, PAIRS) for out in _runs(bell_circuit())]
    cases += [
        (run(circuit, FERMION), circuit.target_pairs)
        for circuit in (synthesize_two_qubit(t, FERMION) for t in _random_targets(53, 2))
    ]
    product = synthesize_two_qubit(QubitState(2, np.array([1, 0, 0, 0])), BOSON)
    cases.append((run(product, BOSON), product.target_pairs))
    cases.append(_interleaved_anyon_run())
    for out, pairs in cases:
        got = chsh_grid_max(out, pairs, resolution_deg=resolution)
        assert got == _looped_chsh_grid_max(out, pairs, resolution)


@pytest.mark.parametrize("n", [3, 4, 37, 360])
def test_the_scan_fit_is_the_least_squares_projection(n):
    angles = np.arange(n) * (2.0 * np.pi / n)
    basis = np.stack([np.ones(n), np.cos(angles), np.sin(angles)], axis=1)
    closed_form = basis.T * [[1.0], [2.0], [2.0]] / n  # the projection chsh_grid_max uses
    assert np.abs(closed_form - np.linalg.pinv(basis)).max() <= 1e-15


def test_chsh_grid_scan_keeps_one_grid_in_memory():
    circuit = synthesize_two_qubit(next(_random_targets(61, 1)), BOSON)
    out = run(circuit, BOSON)
    # 8 n^2 bytes is the grid of n^2 float64 values, n = 1440 at 0.25 degrees
    for resolution, bound in ((1.0, 2e6), (0.25, 1.5 * 8 * 1440**2 + 0.5e6)):
        tracemalloc.start()
        try:
            chsh_grid_max(out, circuit.target_pairs, resolution, refine=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (resolution, peak)


def test_chsh_grid_scan_keeps_one_grid_when_every_pair_survives():
    # the interleaved surface is far from bilinear, so every (b, b') pair is
    # scored; the survivors must stream instead of being stored
    out, pairs = _interleaved_anyon_run()
    n = 360
    tracemalloc.start()
    try:
        chsh_grid_max(out, pairs, 360.0 / n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n**2 + 0.5e6, peak


def _correlation_matrix(target):
    """T[i, j] = <psi| s_i (x) s_j |psi> for s_0 = Z, s_1 = X."""
    paulis = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi = target.amplitudes
    return np.array(
        [[np.vdot(psi, np.kron(s, t) @ psi).real for t in paulis] for s in paulis]
    )


def test_refined_chsh_reaches_the_correlation_matrix_bound():
    for target in _random_targets(59, 8):
        bound = 2.0 * np.linalg.norm(_correlation_matrix(target))
        for stat in (BOSON, FERMION, anyon(1.3)):
            circuit = synthesize_two_qubit(target, stat)
            out = run(circuit, stat)
            value, _ = chsh_grid_max(out, circuit.target_pairs, resolution_deg=1.0, refine=True)
            assert abs(value - bound) < 1e-9


GOLDEN_TOLERANCE = 1e-3  # least gain per sweep of the golden-section reference


def _golden_refine(out, pairs, resolution_deg):
    """The grid optimum polished by per-coordinate golden-section sweeps."""
    evaluate = CorrelationEvaluator(out, pairs)

    def chsh(a, ap, b, bp):
        return evaluate(a, b) + evaluate(a, bp) + evaluate(ap, b) - evaluate(ap, bp)

    current = list(chsh_grid_max(out, pairs, resolution_deg)[1])
    value = float(chsh(*current))
    step = 2.0 * np.pi / max(1, round(360.0 / resolution_deg))
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
                if chsh(*c1) < chsh(*c2):
                    lo = x1
                    x1, x2 = x2, lo + gr * (hi - lo)
                else:
                    hi = x2
                    x2, x1 = x1, hi - gr * (hi - lo)
            current[i] = (lo + hi) / 2.0
        value = float(chsh(*current))
        if value - improved < GOLDEN_TOLERANCE:
            return value


@pytest.mark.parametrize("resolution", [1.0, 10.0, 45.0])
def test_refined_chsh_is_no_lower_than_the_golden_section_reference(resolution):
    cases = [(run(bell_circuit(), stat), PAIRS) for stat in (BOSON, FERMION, anyon(0.7))]
    cases.append((run_distinguishable(bell_circuit()), PAIRS))
    for target in _random_targets(59, 8):
        for stat in (BOSON, FERMION, anyon(1.3)):
            circuit = synthesize_two_qubit(target, stat)
            cases.append((run(circuit, stat), circuit.target_pairs))
    cases.append(_interleaved_anyon_run())
    for out, pairs in cases:
        value, _ = chsh_grid_max(out, pairs, resolution_deg=resolution, refine=True)
        assert value >= _golden_refine(out, pairs, resolution) - 1e-12


def test_evaluator_pair_precondition():
    out = run(bell_circuit(), BOSON)
    # accepted terms are (1, 3) and (2, 4): each of these pairs holds two or none
    with pytest.raises(PatternMismatch, match="exactly one particle"):
        correlation(out, (0.1, 0.2), ((1, 3), (2, 4)))
    with pytest.raises(PatternMismatch, match="exactly one particle"):
        chsh_grid_max(out, ((1, 3), (2, 4)), resolution_deg=30.0)
    with pytest.raises(PatternMismatch, match="disjoint"):
        CorrelationEvaluator(out, ((1, 2), (2, 3)))


def test_evaluator_marginal_on_a_subset_of_pairs():
    out = run(ghz_circuit(), BOSON)
    pairs = ghz_circuit().target_pairs[:2]
    for t1, t2 in ((0.3, 1.2), (2.0, 5.1)):
        assert abs(correlation(out, (t1, t2), pairs) - np.cos(t1) * np.cos(t2)) < 1e-12


@pytest.mark.parametrize("pairs", [[(1, 2, 3), (4,)], [(1,), (2, 3, 4)], [(1, 1), (3, 4)]])
def test_malformed_rail_pairs_raise_pattern_mismatch(pairs):
    out = run(bell_circuit(), BOSON)
    message = "disjoint pairs of two distinct modes"
    with pytest.raises(PatternMismatch, match=message):
        correlation(out, [0.1, 0.2], pairs)
    with pytest.raises(PatternMismatch, match=message):
        correlation_table(out, [0.1, 0.2], [0.3], pairs)
    with pytest.raises(PatternMismatch, match=message):
        chsh_grid_max(out, pairs, resolution_deg=90.0)


def test_rail_pairs_are_checked_before_a_run_that_accepts_nothing():
    hom = hom_circuit()
    out = run(hom, BOSON)  # bosons bunch, so post-selection accepts nothing
    assert out.probability == 0 and out.accepted.num_terms == 0
    message = "disjoint pairs of two distinct modes"
    with pytest.raises(PatternMismatch, match=message):
        computational_distribution(out, [(1, 1)])
    with pytest.raises(PatternMismatch, match=message):
        extract_dual_rail(out.accepted, [(1, 1)])
    with pytest.raises(PatternMismatch, match=message):
        correlation(out, [0.1], [(1, 1)])
    # well-formed pairs still end where they did
    assert computational_distribution(out, hom.target_pairs) == {}
    with pytest.raises(ZeroState, match="accepted terms sum to the zero vector"):
        extract_dual_rail(out.accepted, hom.target_pairs)
    with pytest.raises(ZeroProbability):
        correlation(out, [0.1] * len(hom.target_pairs), hom.target_pairs)
