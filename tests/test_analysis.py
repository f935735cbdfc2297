from dataclasses import replace

import numpy as np
import pytest

from notouch.analysis import (
    CorrelationEvaluator,
    MeasurementSetting,
    chsh_grid_max,
    chsh_value,
    correlation,
    correlation_table,
    fidelity,
    three_tangle,
)
from notouch.circuit import (
    Circuit,
    LocalUnitary,
    bell_circuit,
    ghz_circuit,
    hadamard_gate,
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
from notouch.errors import DimensionMismatch, PatternMismatch, ZeroProbability
from notouch.fock import BOSON, FERMION, anyon, norm
from notouch.qubits import QubitState

PAIRS = bell_circuit().target_pairs


def test_setting_matrix_is_orthogonal():
    m = MeasurementSetting(0.8).matrix
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


def test_correlation_accepts_setting_objects():
    out = run(bell_circuit(), BOSON)
    value = correlation(out, (MeasurementSetting(0.3), MeasurementSetting(1.0)), PAIRS)
    assert abs(value - np.cos(0.7)) < 1e-9


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
    import notouch.paths

    out = run(bell_circuit(), anyon(1.3))
    table = correlation_table(out, [0.0, 0.4], [1.1, 2.0], PAIRS)
    grid = chsh_grid_max(out, PAIRS, resolution_deg=10.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the correlation evaluator walked or validated the circuit")

    for name in ("_branch_combinations", "validate_circuit"):
        monkeypatch.setattr(notouch.paths, name, refuse)
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


def test_chsh_grid_refinement_converges():
    out = run(bell_circuit(), BOSON)
    value, _ = chsh_grid_max(out, PAIRS, resolution_deg=10.0, refine=True)
    assert abs(value - 2 * np.sqrt(2)) < 1e-3


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
    state = out.accepted.scaled(1.0 / norm(out.accepted))
    for theta, pair in zip(thetas, pairs):
        gate = LocalUnitary(tuple(pair), MeasurementSetting(theta).matrix)
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
    n = int(round(360.0 / resolution_deg))
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
        LocalUnitary(pair, MeasurementSetting(theta).matrix)
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
