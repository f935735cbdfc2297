"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import numpy as np
import pytest

from notouch.analysis import chsh_grid_max, chsh_value, correlation, fidelity, three_tangle
from notouch.circuit import (
    bell_circuit,
    ghz_circuit,
    hom_circuit,
    synthesize_two_qubit,
    w_circuit,
)
from notouch.engine import (
    apply_gate,
    computational_distribution,
    extract_dual_rail,
    inject,
    run,
    run_distinguishable,
)
from notouch.fock import BOSON, FERMION, anyon, norm
from notouch.paths import verify_no_touching
from notouch.qubits import QubitState

TOL = 1e-9
ALL_STATS = (BOSON, FERMION, anyon(0.7))
GRID = np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)


def _passed(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_bell_protocol():
    out = run(bell_circuit(), BOSON)
    assert abs(out.probability - 0.5) <= TOL
    assert abs(out.accepted.amplitude([1, 3]) - 0.5) <= TOL
    assert abs(out.accepted.amplitude([2, 4]) - 0.5) <= TOL
    assert out.accepted.num_terms == 2
    out_f = run(bell_circuit(), FERMION)
    assert abs(out_f.probability - 0.5) <= TOL
    assert abs(out_f.accepted.amplitude([1, 3]) - 0.5) <= TOL
    assert abs(out_f.accepted.amplitude([2, 4]) + 0.5) <= TOL
    _passed(1, "Bell state terms, probability 1/2, fermion sign flip")


def test_criterion_02_ghz_protocol():
    out_b = run(ghz_circuit(), BOSON)
    out_f = run(ghz_circuit(), FERMION)
    assert abs(out_b.probability - 0.25) <= TOL
    assert abs(out_f.probability - 0.25) <= TOL
    for modes, _, amp in out_b.accepted.items():
        assert abs(out_f.accepted.amplitude(modes) - amp) <= TOL
    for theta in (0.7, 1.3):
        out_a = run(ghz_circuit(), anyon(theta))
        assert abs(out_a.probability - 0.25) <= TOL
        ratio = out_a.accepted.amplitude([2, 4, 6]) / out_a.accepted.amplitude([1, 3, 5])
        assert abs(ratio - np.exp(2j * theta)) <= TOL
    _passed(2, "GHZ probability 1/4, boson=fermion, anyon phase e^(2i theta)")


def test_criterion_03_w_protocol():
    w = w_circuit()
    s3 = 1 / np.sqrt(3)
    targets = {
        "boson": (BOSON, [0, s3, s3, 0, s3, 0, 0, 0]),
        "fermion": (FERMION, [0, -s3, s3, 0, -s3, 0, 0, 0]),
    }
    theta = 0.7
    phase = np.exp(1j * theta)
    targets["anyon"] = (anyon(theta), [0, phase * s3, s3, 0, phase * s3, 0, 0, 0])
    for stat, target_amps in targets.values():
        out = run(w, stat)
        assert abs(out.probability - 0.15) <= TOL
        assert abs(out.probability - (np.sqrt(3) / (2 * np.sqrt(5))) ** 2) <= TOL
        got = extract_dual_rail(out.accepted, w.target_pairs)
        target = QubitState(3, np.array(target_amps, dtype=complex))
        assert fidelity(got, target) >= 1 - TOL
    _passed(3, "W probability 15%, one-excitation state up to statistics signs")


def test_criterion_04_indistinguishable_correlation_law():
    bell = bell_circuit()
    out_b = run(bell, BOSON)
    out_f = run(bell, FERMION)
    for t1 in GRID:
        for t2 in GRID:
            assert abs(correlation(out_b, (t1, t2), bell.target_pairs) - np.cos(t1 - t2)) <= TOL
            assert abs(correlation(out_f, (t1, t2), bell.target_pairs) - np.cos(t1 + t2)) <= TOL
    _passed(4, "37x37 grid matches cos(t1 -+ t2) for boson/fermion")


def test_criterion_05_distinguishable_correlation_law():
    bell = bell_circuit()
    out_d = run_distinguishable(bell)
    for t1 in GRID:
        for t2 in GRID:
            expected = np.cos(t1) * np.cos(t2)
            assert abs(correlation(out_d, (t1, t2), bell.target_pairs) - expected) <= TOL
    dist_i = computational_distribution(run(bell, BOSON), bell.target_pairs)
    dist_d = computational_distribution(out_d, bell.target_pairs)
    assert set(dist_i) == set(dist_d)
    for key in dist_i:
        assert abs(dist_i[key] - dist_d[key]) <= TOL
    _passed(5, "37x37 grid matches cos(t1)cos(t2); detection statistics coincide")


def test_criterion_06_chsh():
    bell = bell_circuit()
    out_b = run(bell, BOSON)
    s = chsh_value(out_b, 0.0, np.pi / 2, np.pi / 4, -np.pi / 4, bell.target_pairs)
    assert abs(s - 2 * np.sqrt(2)) <= 1e-3
    out_d = run_distinguishable(bell)
    best, _ = chsh_grid_max(out_d, bell.target_pairs, resolution_deg=1.0)
    assert best <= 2 + TOL
    _passed(6, f"boson CHSH {s:.6f}; distinguishable 1-degree grid max {best:.9f} <= 2")


def test_criterion_07_no_touching_verifier():
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        for stat in ALL_STATS:
            assert verify_no_touching(builder(), stat).passed
    hom = verify_no_touching(hom_circuit(), BOSON, post_select=False)
    assert not hom.passed
    assert any("gate" in ev.location for ev in hom.counterexamples)
    w_open = verify_no_touching(w_circuit(), BOSON, post_select=False)
    assert not w_open.passed
    assert any("gate" in ev.location for ev in w_open.counterexamples)
    _passed(7, "Bell/GHZ/W pass for all statistics; controls fail with counterexamples")


def test_criterion_08_history_sum_oracle():
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        circuit = builder()
        for stat in ALL_STATS:
            sums = {modes: amp for modes, _, amp in run(circuit, stat).pre_selection.items()}
            # run() folds the path histories; the gate-by-gate chain does not
            pre = inject(circuit)
            for gate in (*circuit.input_stage, circuit.permutation, *circuit.output_stage):
                pre = apply_gate(pre, gate, stat)
            patterns = set(sums) | {modes for modes, _, _ in pre.items()}
            for pattern in patterns:
                assert abs(sums.get(pattern, 0.0) - pre.amplitude(pattern)) <= TOL
    _passed(8, "coherent history sums equal engine amplitudes for 3x3 cases")


def _random_local_rotation(rng, state):
    tensor = state.amplitudes.reshape(2, 2, 2)
    for axis in range(3):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        tensor = np.moveaxis(
            np.tensordot(u, np.moveaxis(tensor, axis, 0), axes=(1, 0)), 0, axis
        )
    return QubitState(3, tensor.reshape(8))


def test_criterion_09_tangle_witnesses():
    ghz = extract_dual_rail(run(ghz_circuit(), BOSON).accepted, ghz_circuit().target_pairs)
    w = extract_dual_rail(run(w_circuit(), BOSON).accepted, w_circuit().target_pairs)
    assert abs(three_tangle(ghz) - 1.0) <= TOL
    assert abs(three_tangle(w)) <= TOL
    rng = np.random.default_rng(97)
    for _ in range(50):
        assert abs(three_tangle(_random_local_rotation(rng, ghz)) - 1.0) <= 1e-8
        assert abs(three_tangle(_random_local_rotation(rng, w))) <= 1e-8
    _passed(9, "tangle(GHZ)=1, tangle(W)=0, invariant under 50 local rotations")


def test_criterion_10_two_qubit_synthesis():
    rng = np.random.default_rng(41)
    worst = 1.0
    for i in range(100):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        target = QubitState(2, vec)
        stat = ALL_STATS[i % 3]
        circuit = synthesize_two_qubit(target, stat)
        out = run(circuit, stat)
        got = extract_dual_rail(out.accepted, circuit.target_pairs)
        worst = min(worst, fidelity(got, target))
    assert worst >= 1 - TOL
    _passed(10, f"100 random targets synthesized, worst fidelity {worst:.12f}")


def test_criterion_11_property_suite():
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        circuit = builder()
        k = len(circuit.injections)
        gates = list(circuit.input_stage) + [circuit.permutation] + list(circuit.output_stage)
        for stat in ALL_STATS:
            state = inject(circuit)
            for gate in gates:
                before = norm(state) ** 2 + state.escaped
                state = apply_gate(state, gate, stat)
                after = norm(state) ** 2 + state.escaped
                assert abs(after - before) <= TOL
                for modes, _, _ in state.items():
                    assert len(modes) == k
            if builder is not w_circuit:
                assert state.escaped <= TOL  # no branch ever leaves the sector
            out = run(circuit, stat)
            rejected_sq = norm(out.pre_selection) ** 2 - out.probability
            assert rejected_sq >= -TOL
            total = out.probability + rejected_sq + out.pre_selection.escaped
            assert abs(total - 1.0) <= TOL
        out_d = run_distinguishable(circuit)
        rejected_sq = norm(out_d.pre_selection) ** 2 - out_d.probability
        total = out_d.probability + rejected_sq + out_d.pre_selection.escaped
        assert abs(total - 1.0) <= TOL
        for modes, _, _ in out_d.pre_selection.items():
            assert len(modes) == k
    _passed(11, "norm/particle conservation per gate; accepted + rejected = 1")
