import sys

import numpy as np
import pytest

from notouch.circuit import (
    UNITARY_TOLERANCE,
    LocalUnitary,
    Permute,
    _ghz_ring,
    bell_circuit,
    circuit_from_dict,
    circuit_to_dict,
    ghz_circuit,
    hadamard_gate,
    hom_circuit,
    load_circuit,
    permutation_from_one_line,
    save_circuit,
    synthesize_two_qubit,
    w_circuit,
    w_input_unitary,
)
from notouch.analysis import correlation_table
from notouch.engine import apply_gate, extract_dual_rail, inject, run, run_distinguishable
from notouch.errors import InvalidCircuit, NoTouchError, NotBijective, NotNormalized, SameMode
from notouch.fock import BOSON, FERMION, FockState, anyon
from notouch.paths import enumerate_histories, verify_no_touching
from notouch.qubits import QubitState
from dataclasses import replace


@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit, hom_circuit])
def test_builders_validate(builder):
    builder()  # construction raises InvalidCircuit on a bad layout


def test_a_built_circuit_is_not_validated_again(monkeypatch):
    def results(c):
        runs = (run(c, anyon(0.7)), run_distinguishable(c))
        return (
            [(list(out.accepted.items()), out.probability, out.histories) for out in runs],
            verify_no_touching(c, FERMION),
            enumerate_histories(c, BOSON),
            list(inject(c).items()),
        )

    circuits = [bell_circuit(), ghz_circuit(), w_circuit(), _ghz_ring(10)]
    expected = [results(c) for c in circuits]

    def refuse(c):
        raise AssertionError("a built circuit was validated again")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "notouch" and hasattr(module, "validate_circuit"):
            monkeypatch.setattr(module, "validate_circuit", refuse)
    assert [results(c) for c in circuits] == expected


def test_hadamard_matrix():
    gate = hadamard_gate(1, 2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(np.array(gate.rows), expected)
    assert gate.support == (1, 2)
    with pytest.raises(SameMode):
        hadamard_gate(3, 3)


def test_hadamard_action_on_each_rail():
    one = FockState.single(2, [1])
    two = FockState.single(2, [2])
    h = hadamard_gate(1, 2)
    out1 = apply_gate(one, h, BOSON)
    s = 1 / np.sqrt(2)
    assert abs(out1.amplitude([1]) - s) < 1e-12
    assert abs(out1.amplitude([2]) - s) < 1e-12
    out2 = apply_gate(two, h, BOSON)
    assert abs(out2.amplitude([1]) - s) < 1e-12
    assert abs(out2.amplitude([2]) + s) < 1e-12
    # involution
    back = apply_gate(out1, h, BOSON)
    assert abs(back.amplitude([1]) - 1) < 1e-12
    assert abs(back.amplitude([2])) < 1e-12


def test_w_input_unitary_first_column():
    gate = w_input_unitary()
    assert gate.support == (3, 4, 5)
    col = np.array(gate.rows)[:, 0]
    expected = np.array([np.sqrt(2), 1.0, np.sqrt(2)]) / np.sqrt(5)
    assert np.allclose(col, expected, atol=1e-15)
    assert abs(np.linalg.norm(col) - 1.0) < 1e-12
    assert np.allclose(np.array(gate.rows).conj().T @ np.array(gate.rows), np.eye(3), atol=1e-9)
    # the closed-form columns are the Gram-Schmidt completion of the first
    assert np.abs(np.array(gate.rows) - _complete_unitary_oracle(expected)).max() <= 1e-15


def test_permutation_from_one_line():
    bell = permutation_from_one_line([1, 4, 3, 2])
    assert bell.one_line == (1, 4, 3, 2)
    with pytest.raises(NotBijective):
        permutation_from_one_line([1, 1, 2])


@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit])
def test_permutation_round_trip_is_identity(builder):
    circuit = builder()
    rng = np.random.default_rng(3)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    n = circuit.num_modes
    one_line = circuit.permutation.one_line
    inverse = permutation_from_one_line(
        [one_line.index(m) + 1 for m in range(1, n + 1)]
    )
    state = FockState(
        n,
        {((1,), None): amps[0], ((2,), None): amps[1], ((n,), None): amps[2]},
    )
    for stat in (BOSON, FERMION, anyon(0.7)):
        there = apply_gate(state, circuit.permutation, stat)
        back = apply_gate(there, inverse, stat)
        for modes, _, amp in state.items():
            assert abs(back.amplitude(modes) - amp) < 1e-12


def test_validation_flags_non_local_input_gate():
    with pytest.raises(InvalidCircuit, match="non-local input"):
        replace(bell_circuit(), input_stage=(hadamard_gate(2, 3), hadamard_gate(1, 4)))


def test_validation_flags_overlapping_pairs():
    with pytest.raises(InvalidCircuit, match="not disjoint|not inside"):
        replace(ghz_circuit(), target_pairs=((1, 2), (2, 3), (5, 6)))


def test_validation_flags_non_unitary_gate():
    gate = LocalUnitary((1, 2), np.array([[1, 0], [1, 1]], dtype=complex))
    with pytest.raises(InvalidCircuit, match="not unitary"):
        replace(bell_circuit(), input_stage=(gate, hadamard_gate(3, 4)))


def test_is_unitary_follows_the_allclose_rule():
    h = np.array(hadamard_gate(1, 2).rows)
    rng = np.random.default_rng(5)
    for eps in (0.0, 1e-11, 1e-10, 1e-9, 1e-7, 3e-6, 1e-5, 1e-3):
        for m in (h * (1 + eps), h + eps * rng.normal(size=(2, 2)), h @ np.diag([1, 1 + eps])):
            gram = m.conj().T @ m
            expected = np.allclose(gram, np.eye(2), atol=1e-9)
            assert LocalUnitary((1, 2), m).is_unitary() == expected
    # the diagonal takes allclose's relative tolerance as well
    assert LocalUnitary((1, 2), h * (1 + 4e-6)).is_unitary()
    assert not LocalUnitary((1, 2), h * (1 + 1e-5)).is_unitary()
    for bad in (np.nan, np.inf, -np.inf):
        m = h.copy()
        m[0, 1] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the Gram matrix
            assert not LocalUnitary((1, 2), m).is_unitary()
    assert not LocalUnitary((1, 2), np.eye(3)).is_unitary()
    assert not LocalUnitary((1, 2), np.ones((2, 3)) / 2).is_unitary()
    assert not LocalUnitary((1, 2), np.ones(2)).is_unitary()
    assert LocalUnitary((3,), np.array([[np.exp(0.3j)]])).is_unitary()


def test_validation_flags_bad_injection():
    with pytest.raises(InvalidCircuit, match="injection 2 is not in input subsystem 2"):
        replace(bell_circuit(), injections=(1, 2))


def _bell_document(**changes):
    doc = circuit_to_dict(bell_circuit())
    doc.update(changes)
    return doc


EYE2 = np.eye(2)
VIOLATIONS = {
    "no_modes": (lambda: replace(bell_circuit(), num_modes=0), "num_modes must be positive"),
    "subsystem_off_range": (
        lambda: replace(bell_circuit(), input_subsystems=((1, 2), (3, 5))),
        "input subsystem 2 uses modes outside 1..4",
    ),
    "overlapping_subsystems": (
        lambda: replace(bell_circuit(), output_subsystems=((1, 2), (2, 3, 4))),
        "output subsystems overlap at modes [2]",
    ),
    "injection_count": (
        lambda: replace(bell_circuit(), injections=(1,)),
        "need exactly one injection per input subsystem",
    ),
    "not_a_local_unitary": (
        lambda: replace(bell_circuit(), output_stage=(Permute((2, 1, 3, 4)),)),
        "output gate Permute(one_line=(2, 1, 3, 4)) is not a local unitary",
    ),
    "repeated_support_mode": (
        lambda: replace(bell_circuit(), input_stage=(LocalUnitary((1, 1), EYE2),)),
        "input gate support (1, 1) repeats a mode",
    ),
    "target_pair_count": (
        lambda: replace(bell_circuit(), target_pairs=((1, 2),)),
        "need exactly one target pair per output subsystem",
    ),
    "degenerate_pair": (
        lambda: replace(bell_circuit(), target_pairs=((1, 1), (3, 4))),
        "target pair 1 must be two distinct modes",
    ),
    "file_field_not_a_list": (
        lambda: circuit_from_dict(_bell_document(injections=1)),
        "circuit file: injections must be a list",
    ),
    "file_gate_without_matrix": (
        lambda: circuit_from_dict(_bell_document(input_gates=[{"support": [1, 2]}])),
        "circuit file: each input gate needs 'support' and 'matrix'",
    ),
    "file_fractional_num_modes": (
        lambda: circuit_from_dict(_bell_document(num_modes=4.0)),
        "circuit file: num_modes must be an integer",
    ),
    "one_qubit_synthesis_target": (
        lambda: synthesize_two_qubit(QubitState(1, np.array([1.0, 0.0])), BOSON),
        "synthesis target must be a two-qubit state",
    ),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_each_violation_has_its_message(name):
    build, message = VIOLATIONS[name]
    with pytest.raises(NoTouchError) as caught:
        build()
    assert message in str(caught.value).split("; ")


def test_circuit_json_round_trip(tmp_path):
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        circuit = builder()
        path = tmp_path / "circ.json"
        save_circuit(circuit, path)
        loaded = load_circuit(path)
        assert loaded.num_modes == circuit.num_modes
        assert loaded.injections == circuit.injections
        assert loaded.permutation.one_line == circuit.permutation.one_line
        assert loaded.target_pairs == circuit.target_pairs
        for a, b in zip(loaded.input_stage, circuit.input_stage):
            assert a.support == b.support
            assert np.allclose(np.array(a.rows), np.array(b.rows))
        assert circuit_to_dict(loaded) == circuit_to_dict(circuit)


def test_circuit_dict_schema_fields():
    doc = circuit_to_dict(w_circuit())
    assert set(doc) == {
        "num_modes",
        "input_subsystems",
        "injections",
        "input_gates",
        "permutation",
        "output_gates",
        "output_subsystems",
        "target_pairs",
    }
    assert doc["permutation"] == [1, 3, 2, 4, 7, 6, 5]
    gate = doc["input_gates"][1]
    assert gate["support"] == [3, 4, 5]
    assert gate["matrix"][0][0] == [pytest.approx(np.sqrt(2 / 5)), 0.0]
    assert circuit_from_dict(doc).num_modes == 7


def test_synthesize_bell_target_behaves_like_bell():
    s = 1 / np.sqrt(2)
    target = QubitState(2, np.array([s, 0, 0, s]))
    circuit = synthesize_two_qubit(target, BOSON)
    out = run(circuit, BOSON)
    assert abs(out.probability - 0.5) < 1e-12
    got = extract_dual_rail(out.accepted, circuit.target_pairs)
    assert abs(abs(np.vdot(target.amplitudes, got.amplitudes)) ** 2 - 1) < 1e-12


def test_synthesize_product_target_is_rank_one():
    target = QubitState(2, np.array([0, 1, 0, 0], dtype=complex))  # up, down
    circuit = synthesize_two_qubit(target, BOSON)
    prep = circuit.input_stage[0]
    assert abs(np.array(prep.rows)[1, 0]) < 1e-12  # no amplitude on the second rail
    flip = circuit.output_stage[1]
    assert abs(np.array(flip.rows)[1, 0]) > 0.99  # second pair gets a bit flip
    out = run(circuit, BOSON)
    got = extract_dual_rail(out.accepted, circuit.target_pairs)
    assert abs(abs(np.vdot(target.amplitudes, got.amplitudes)) ** 2 - 1) < 1e-12


def test_synthesis_validates_one_circuit(monkeypatch):
    import notouch.circuit

    validated = []

    def counting(c):
        validated.append(c)
        validate(c)

    validate = notouch.circuit.validate_circuit
    monkeypatch.setattr(notouch.circuit, "validate_circuit", counting)
    s = 1 / np.sqrt(2)
    circuit = synthesize_two_qubit(QubitState(2, np.array([s, 0, 0, s])), FERMION)
    assert len(validated) == 1
    assert validated[0] is circuit


def test_synthesize_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        synthesize_two_qubit(QubitState(2, np.array([1.0, 1.0, 0, 0])), BOSON)


def test_synthesize_rejects_a_nan_target():
    with pytest.raises(NotNormalized):
        synthesize_two_qubit(QubitState(2, [float("nan"), 0, 0, 0]), BOSON)


def test_synthesize_is_idempotent_in_effect():
    rng = np.random.default_rng(21)
    for stat in (BOSON, FERMION, anyon(0.4)):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        target = QubitState(2, vec)
        first = synthesize_two_qubit(target, stat)
        out1 = extract_dual_rail(run(first, stat).accepted, first.target_pairs)
        second = synthesize_two_qubit(out1, stat)
        out2 = extract_dual_rail(run(second, stat).accepted, second.target_pairs)
        overlap = abs(np.vdot(out1.amplitudes, out2.amplitudes)) ** 2
        assert overlap >= 1 - 1e-9


def _haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _schmidt_targets():
    """Seeded Haar targets and the edge cases of the closed-form Schmidt step."""
    rng = np.random.default_rng(28)
    for _ in range(200):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield vec / np.linalg.norm(vec)
    s = 1 / np.sqrt(2)
    yield np.array([0.6, 0.8j, 0, 0])  # product, lam_1 = 0
    yield np.kron([0.6, 0.8], [s, 1j * s])  # product with no zero amplitude
    yield np.array([s, 0, 0, s])  # Bell, lam_0 = lam_1
    yield np.array([0, s, -s, 0])  # singlet
    yield np.array([0.6, 0, 0, 0.8])  # diagonal, the larger value second
    yield np.array([0, 0.8, 0.6, 0])  # anti-diagonal
    yield np.array([0.6j, 0, 0, 0.8j])  # purely imaginary
    yield 1j * np.array([0.1, 0.7, -0.5, 0.5])
    small = np.diag([np.sqrt(1 - 1e-18), 1e-9])  # lam_1 = 1e-9
    yield small.ravel()
    for _ in range(20):
        yield (_haar_unitary(rng) @ small @ _haar_unitary(rng)).ravel()


def test_the_closed_form_schmidt_step_agrees_with_lapack():
    for vec in _schmidt_targets():
        circuit = synthesize_two_qubit(QubitState(2, vec), BOSON)
        (lam0, _), (lam1, _) = circuit.input_stage[0].rows
        lam = np.array([lam0.real, abs(lam1)])
        u, w2 = (np.array(gate.rows) for gate in circuit.output_stage)  # w2 = vh.T
        m = vec.reshape(2, 2)
        assert lam[0] >= lam[1] >= 0
        assert np.abs(lam - np.linalg.svd(m, compute_uv=False)).max() <= 1e-14, vec
        for basis in (u, w2):
            assert np.abs(basis.conj().T @ basis - np.eye(2)).max() <= 1e-14, vec
        assert np.abs(u @ np.diag(lam) @ w2.T - m).max() <= 1e-14, vec


def test_synthesis_reaches_every_schmidt_target_under_every_statistics():
    for vec in _schmidt_targets():
        target = QubitState(2, vec)
        for stat in (BOSON, FERMION, anyon(0.7), anyon(2.1)):
            circuit = synthesize_two_qubit(target, stat)
            got = extract_dual_rail(run(circuit, stat).accepted, circuit.target_pairs)
            assert abs(np.vdot(vec, got.amplitudes)) ** 2 >= 1 - 1e-12, (vec, stat)


def test_mode_labels_must_be_integers():
    h = np.array(hadamard_gate(1, 2).rows)
    with pytest.raises(NoTouchError, match="2.5"):
        LocalUnitary((1, 2.5), h)
    with pytest.raises(NoTouchError, match="4.2"):
        Permute((1, 4.2, 3, 2))
    assert LocalUnitary((np.int64(1), 2), h).support == (1, 2)


def test_circuit_from_dict_rejects_malformed_documents():
    doc = circuit_to_dict(bell_circuit())
    with pytest.raises(NoTouchError, match="input_subsystems"):
        circuit_from_dict({k: v for k, v in doc.items() if k != "input_subsystems"})
    bad_shape = circuit_to_dict(bell_circuit())
    bad_shape["output_gates"] = [{"support": [1, 2], "matrix": [[[1, 0]], [[0, 0]]]}]
    with pytest.raises(NoTouchError, match="2x2"):
        circuit_from_dict(bad_shape)
    bad_pair = circuit_to_dict(bell_circuit())
    bad_pair["target_pairs"] = [[1, 2, 3], [3, 4]]
    with pytest.raises(NoTouchError, match="two modes"):
        circuit_from_dict(bad_pair)
    with pytest.raises(NoTouchError):
        circuit_from_dict([doc])


def test_circuits_gates_and_registers_compare_by_value(tmp_path):
    s = 1 / np.sqrt(2)
    synthesized = synthesize_two_qubit(QubitState(2, [0.6, 0.0, 0.0, 0.8j]), anyon(0.3))
    for circuit in (bell_circuit(), ghz_circuit(), w_circuit(), hom_circuit(), synthesized):
        save_circuit(circuit, tmp_path / "circuit.json")
        loaded = load_circuit(tmp_path / "circuit.json")
        assert loaded == circuit and hash(loaded) == hash(circuit)
    read = hadamard_gate(1, 2)
    assert read == hadamard_gate(1, 2) and hash(read) == hash(hadamard_gate(1, 2))

    gate = synthesized.input_stage[0]
    rows = [list(row) for row in gate.rows]
    rows[1][1] += 1e-15  # still unitary within tolerance, so the circuit stays valid
    stage = (LocalUnitary(gate.support, rows),) + synthesized.input_stage[1:]
    changed = replace(synthesized, input_stage=stage)
    assert changed != synthesized and changed.input_stage[0] != gate

    bell = QubitState(2, np.array([s, 0, 0, s]))
    assert bell == QubitState(2, [s, 0, 0, s]) == QubitState(2, (s, 0j, 0.0, s))
    assert len({bell, QubitState(2, [s, 0, 0, s])}) == 1
    assert bell != QubitState(2, [s, 0, 0, -s])
    assert bell.amplitudes.shape == (4,) and bell.amplitudes.dtype == complex


def _is_unitary_oracle(support, matrix) -> bool:
    """The numpy rule ``LocalUnitary.is_unitary`` followed before it ran in
    pure Python: ``np.allclose``'s test of the Gram matrix against the identity."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(support):
        return False
    eye = np.eye(m.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        return bool((np.abs(m.conj().T @ m - eye) <= UNITARY_TOLERANCE + 1e-5 * eye).all())


def test_is_unitary_matches_the_numpy_oracle():
    # the inputs of test_is_unitary_follows_the_allclose_rule, plus larger gates
    h = np.array(hadamard_gate(1, 2).rows)
    rng = np.random.default_rng(5)
    cases = []
    for eps in (0.0, 1e-11, 1e-10, 1e-9, 1e-7, 3e-6, 1e-5, 1e-3):
        for m in (h * (1 + eps), h + eps * rng.normal(size=(2, 2)), h @ np.diag([1, 1 + eps])):
            cases.append(((1, 2), m))
    cases += [((1, 2), h * (1 + 4e-6)), ((1, 2), h * (1 + 1e-5))]
    for bad in (np.nan, np.inf, -np.inf, 1e200):
        m = h.copy()
        m[0, 1] = bad
        cases.append(((1, 2), m))
    cases += [
        ((1, 2), np.eye(3)),
        ((1, 2), np.ones((2, 3)) / 2),
        ((1, 2), np.ones(2)),
        ((1, 2), np.ones((2, 2, 2))),
        ((3,), np.array([[np.exp(0.3j)]])),
    ]
    for size in (3, 4):
        q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        support = tuple(range(1, size + 1))
        cases += [(support, q), (support, q * (1 + 1e-4)), (support, [list(r) for r in q])]
    verdicts = [_is_unitary_oracle(support, m) for support, m in cases]
    assert [LocalUnitary(support, m).is_unitary() for support, m in cases] == verdicts
    assert True in verdicts and False in verdicts


def _complete_unitary_oracle(first_column):
    """Numpy Gram-Schmidt completion of a unit column over the standard basis,
    the reference for the closed-form W splitter."""
    col = np.asarray(first_column, dtype=complex).reshape(-1)
    n = col.shape[0]
    if abs(np.linalg.norm(col) - 1.0) > UNITARY_TOLERANCE:
        raise NotNormalized("first column must be a unit vector")
    columns = [col]
    for idx in range(n):
        if len(columns) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[idx] = 1.0
        for prev in columns:
            cand = cand - np.vdot(prev, cand) * prev
        nrm = np.linalg.norm(cand)
        if nrm < 1e-9:
            continue
        cand = cand / nrm
        lead = cand[np.flatnonzero(np.abs(cand) > 1e-12)[0]]
        cand = cand * (abs(lead) / lead)
        columns.append(cand)
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("stat", [BOSON, FERMION, anyon(0.7), anyon(2.1)], ids=str)
def test_the_prep_gate_closed_form_holds_at_every_schmidt_gap(stat):
    s_bar = stat.reorder_phase(1).conjugate()
    rotation = _haar_unitary(np.random.default_rng(29))
    for small in (0.0, 1e-13, 1e-9, 1e-6, 2**-0.5):
        diagonal = np.diag([np.sqrt(1 - small**2), small])
        for m in (diagonal, rotation @ diagonal @ rotation.T):
            prep = synthesize_two_qubit(QubitState(2, m.ravel()), stat).input_stage[0]
            (lam0, lam1), (entered, _) = prep.rows  # row 0 holds the two Schmidt values
            assert lam0.imag == lam1.imag == 0 and lam0.real >= lam1.real >= 0
            assert abs(lam0 - np.sqrt(1 - small**2)) <= 1e-15 and abs(lam1 - small) <= 1e-15
            assert entered == s_bar * lam1  # the first column is exactly (lam_0, s_bar lam_1)
            gram = np.array(prep.rows).conj().T @ np.array(prep.rows)
            assert np.abs(gram - np.eye(2)).max() <= 1e-15, (small, m)


def _rephase_unentered_columns(gate):
    """``gate`` with every column but the first, the only one entered, times e^{0.3i}."""
    phase = complex(np.exp(0.3j))
    return replace(gate, rows=[[row[0]] + [z * phase for z in row[1:]] for row in gate.rows])


def _unentered_column_cases():
    rng = np.random.default_rng(29)
    s = 1 / np.sqrt(2)
    targets = [[0, 1, 0, 0], [s, 0, 0, s], [0.6, 0, 0, 0.8j]]
    for _ in range(3):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        targets.append(vec / np.linalg.norm(vec))
    for stat in (BOSON, FERMION, anyon(0.7)):
        for vec in targets:
            c = synthesize_two_qubit(QubitState(2, vec), stat)
            prep, *rest = c.input_stage
            yield stat, c, replace(c, input_stage=(_rephase_unentered_columns(prep), *rest))
        c = w_circuit()
        first, w_gate, last = c.input_stage
        yield stat, c, replace(c, input_stage=(first, _rephase_unentered_columns(w_gate), last))


def test_unentered_columns_cannot_change_a_result():
    angles = np.linspace(0, 2 * np.pi, 7)
    for stat, circuit, rephased in _unentered_column_cases():
        assert rephased != circuit
        records = []
        for c in (circuit, rephased):
            out = run(c, stat)
            record = [list(out.accepted.items()), out.probability, out.histories]
            record.append(verify_no_touching(c, stat, post_select=False))
            if len(c.target_pairs) == 2:
                record.append(correlation_table(out, angles, angles, c.target_pairs))
            records.append(record)
        assert records[0] == records[1], (stat, circuit)
