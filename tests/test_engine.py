import importlib
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from notouch.circuit import (
    Circuit,
    LocalUnitary,
    bell_circuit,
    ghz_circuit,
    hadamard_gate,
    hom_circuit,
    permutation_from_one_line,
    w_circuit,
)
from notouch.engine import (
    apply_gate,
    computational_distribution,
    extract_dual_rail,
    inject,
    post_select,
    run,
    run_distinguishable,
)
from notouch.analysis import correlation_table
from notouch.errors import (
    DimensionMismatch,
    InvalidCircuit,
    NoTouchError,
    PatternMismatch,
    ZeroState,
)
from notouch.fock import BOSON, FERMION, FockState, Statistics, anyon, norm
from notouch.qubits import QubitState
from dataclasses import replace

S2 = np.sqrt(2.0)
ALL_STATS = (BOSON, FERMION, anyon(0.7))
ROOT = Path(__file__).resolve().parents[1]


def _module_at(path: Path, name: str):
    """Import a source file that is not on the import path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inject_examples():
    assert inject(bell_circuit()).amplitude([1, 3]) == 1
    assert inject(ghz_circuit()).amplitude([1, 3, 5]) == 1
    assert inject(w_circuit()).amplitude([1, 3, 6]) == 1


def test_inject_rejects_invalid_circuit():
    with pytest.raises(InvalidCircuit, match="injection 1 is not in input subsystem 2"):
        inject(replace(bell_circuit(), injections=(1, 1)))


def test_apply_hadamard_partial_product():
    state = inject(bell_circuit())
    out = apply_gate(state, hadamard_gate(1, 2), BOSON)
    assert abs(out.amplitude([1, 3]) - 1 / S2) < 1e-12
    assert abs(out.amplitude([2, 3]) - 1 / S2) < 1e-12


def test_permutation_with_fermion_double_transposition():
    state = FockState.single(6, [2, 4, 6])
    out = apply_gate(state, ghz_circuit().permutation, FERMION)
    # modes (2,4,6) relabel to (4,6,2); sorting costs two transpositions
    assert abs(out.amplitude([2, 4, 6]) - 1.0) < 1e-12


def test_identity_permutation_is_identity():
    state = FockState(4, {((1, 3), None): 0.6, ((2, 4), None): 0.8j})
    out = apply_gate(state, permutation_from_one_line([1, 2, 3, 4]), FERMION)
    for modes, _, amp in state.items():
        assert out.amplitude(modes) == amp


def test_run_bell_boson_and_fermion():
    out = run(bell_circuit(), BOSON)
    assert abs(out.probability - 0.5) < 1e-12
    assert abs(out.accepted.amplitude([1, 3]) - 0.5) < 1e-12
    assert abs(out.accepted.amplitude([2, 4]) - 0.5) < 1e-12
    out_f = run(bell_circuit(), FERMION)
    assert abs(out_f.accepted.amplitude([2, 4]) + 0.5) < 1e-12
    assert abs(norm(out.accepted) - 1 / S2) < 1e-12


def test_run_ghz_statistics_insensitive():
    out_b = run(ghz_circuit(), BOSON)
    out_f = run(ghz_circuit(), FERMION)
    assert abs(out_b.probability - 0.25) < 1e-12
    assert abs(out_f.probability - 0.25) < 1e-12
    for modes, _, amp in out_b.accepted.items():
        assert abs(out_f.accepted.amplitude(modes) - amp) < 1e-12


def test_run_ghz_anyon_relative_phase():
    theta = 0.7
    out = run(ghz_circuit(), anyon(theta))
    base = out.accepted.amplitude([1, 3, 5])
    other = out.accepted.amplitude([2, 4, 6])
    assert abs(other / base - np.exp(2j * theta)) < 1e-12


def test_run_w_probability_and_escaped_weight():
    out = run(w_circuit(), BOSON)
    assert abs(out.probability - 0.15) < 1e-12
    # the colliding branches of the output splitter carry a quarter of the mass
    assert abs(out.pre_selection.escaped - 0.25) < 1e-12
    out_f = run(w_circuit(), FERMION)
    assert abs(out_f.probability - 0.15) < 1e-12
    assert out_f.pre_selection.escaped < 1e-12


def test_run_w_accepted_amplitudes():
    out = run(w_circuit(), BOSON)
    a = 1 / (2 * np.sqrt(5))
    for modes in ((1, 4, 6), (1, 3, 7), (2, 3, 6)):
        assert abs(out.accepted.amplitude(modes) - a) < 1e-12
    assert out.accepted.num_terms == 3


def test_post_select_bell_middle_state():
    state = inject(bell_circuit())
    for gate in bell_circuit().input_stage:
        state = apply_gate(state, gate, BOSON)
    state = apply_gate(state, bell_circuit().permutation, BOSON)
    kept, p = post_select(state, ((1, 2), (3, 4)))
    assert abs(p - 0.5) < 1e-12
    assert kept.num_terms == 2


def test_post_select_rejects_pair_double_occupancy():
    state = FockState.single(2, [1, 2])
    kept, p = post_select(state, ((1, 2),))
    assert p == 0
    assert kept.num_terms == 0


def test_post_select_rejects_occupancy_outside_pairs():
    state = FockState.single(5, [1, 5])
    kept, p = post_select(state, ((1, 2),))
    assert p == 0 and kept.num_terms == 0


def test_post_select_keeps_accepted_terms_in_order():
    # the W pre-selection state holds accepted and rejected terms; a labelled
    # run adds species, and pairs listed out of mode order change nothing
    states = [run(w_circuit(), stat).pre_selection for stat in ALL_STATS]
    states.append(run_distinguishable(w_circuit()).pre_selection)
    pairs = w_circuit().target_pairs
    pair_modes = {m for pair in pairs for m in pair}

    def one_per_pair(modes):  # each pair holds exactly one mode, no extra modes
        filled = all(sum(m in pair for m in modes) == 1 for pair in pairs)
        return filled and set(modes) <= pair_modes

    for state in states:
        for order in (pairs, pairs[::-1]):
            kept, p = post_select(state, order)
            expected = [
                ((modes, species), amp)
                for modes, species, amp in state.items()
                if one_per_pair(modes)
            ]
            assert [((m, s), a) for m, s, a in kept.items()] == expected
            assert p == sum(abs(amp) ** 2 for _, amp in expected)


@pytest.mark.parametrize("pairs", [((1, 2), (2, 3)), ((1, 1),), ((1, 2, 3),)])
def test_post_select_rejects_malformed_pairs(pairs):
    with pytest.raises(ValueError, match="disjoint pairs of two distinct modes"):
        post_select(FockState.single(4, [1, 3]), pairs)
    # dual-rail extraction applies the same rule
    with pytest.raises(ValueError, match="disjoint pairs of two distinct modes"):
        extract_dual_rail(FockState.single(4, [1, 3]), pairs)


def test_extract_dual_rail_bell_and_ghz():
    bell = bell_circuit()
    q = extract_dual_rail(run(bell, BOSON).accepted, bell.target_pairs)
    s = 1 / S2
    assert np.allclose(q.amplitudes, [s, 0, 0, s])
    ghz = ghz_circuit()
    q3 = extract_dual_rail(run(ghz, BOSON).accepted, ghz.target_pairs)
    expected = np.zeros(8)
    expected[0] = expected[7] = s
    assert np.allclose(q3.amplitudes, expected)


def test_extract_dual_rail_w_mapping():
    # hand mapping: {1,4,6} -> 010, {1,3,7} -> 001, {2,3,6} -> 100
    w = w_circuit()
    q = extract_dual_rail(run(w, BOSON).accepted, w.target_pairs)
    expected = np.zeros(8)
    expected[0b010] = expected[0b001] = expected[0b100] = 1 / np.sqrt(3)
    assert np.allclose(q.amplitudes, expected)


def test_extract_dual_rail_errors():
    with pytest.raises(ZeroState):
        extract_dual_rail(FockState(4), ((1, 2), (3, 4)))
    with pytest.raises(PatternMismatch):
        extract_dual_rail(FockState.single(4, [1, 2]), ((1, 2), (3, 4)))
    with pytest.raises(PatternMismatch):
        extract_dual_rail(FockState(4, {((1, 3), (1, 2)): 1.0}), ((1, 2), (3, 4)))


def test_run_distinguishable_bell():
    out = run_distinguishable(bell_circuit())
    assert abs(out.probability - 0.5) < 1e-12
    assert abs(out.accepted.amplitude([1, 3], species=[1, 2]) - 0.5) < 1e-12
    assert abs(out.accepted.amplitude([2, 4], species=[2, 1]) - 0.5) < 1e-12
    assert out.statistics is None


@pytest.mark.parametrize("statistics", [None, "boson"])
def test_run_takes_only_a_statistics(statistics):
    # labelled particles have their own entry, which the message names
    with pytest.raises(NoTouchError, match="run_distinguishable"):
        run(bell_circuit(), statistics)
    assert run_distinguishable(bell_circuit()).statistics is None


def test_an_anyon_angle_of_any_finite_size_runs():
    # the angle is reduced modulo 2 pi before it multiplies an inversion count
    huge = run(w_circuit(), anyon(1e308))
    reduced = run(w_circuit(), anyon(math.remainder(1e308, 2 * math.pi)))
    assert list(huge.accepted.items()) == list(reduced.accepted.items())


def test_distinguishable_matches_indistinguishable_in_computational_basis():
    bell = bell_circuit()
    d_ind = computational_distribution(run(bell, BOSON), bell.target_pairs)
    d_dis = computational_distribution(run_distinguishable(bell), bell.target_pairs)
    assert set(d_ind) == set(d_dis)
    for key in d_ind:
        assert abs(d_ind[key] - d_dis[key]) < 1e-12


@pytest.mark.parametrize("stat", ALL_STATS + (anyon(2.1),))
def test_both_register_readouts_give_the_same_probabilities(stat):
    differential = _module_at(ROOT / "tests" / "test_differential.py", "differential")
    no_particles = Circuit(
        num_modes=1,
        input_subsystems=(),
        injections=(),
        input_stage=(),
        permutation=permutation_from_one_line([1]),
        output_stage=(),
        output_subsystems=(),
        target_pairs=(),
    )
    circuits = [bell_circuit(), ghz_circuit(), w_circuit(), no_particles]
    circuits += [differential.paired_circuit(np.random.default_rng(s)) for s in range(2000, 2024)]
    for c in circuits:
        out = run(c, stat)
        amplitudes = extract_dual_rail(out.accepted, c.target_pairs).amplitudes
        dist = computational_distribution(out, c.target_pairs)
        registers = itertools.product((0, 1), repeat=len(c.target_pairs))
        for idx, bits in enumerate(registers):
            assert abs(abs(amplitudes[idx]) ** 2 - dist.get(bits, 0)) <= 1e-12, (c, bits)


def test_computational_distribution_rejects_terms_off_the_pairs():
    # every accepted Bell term puts both particles in one of these pairs
    with pytest.raises(PatternMismatch):
        computational_distribution(run(bell_circuit(), BOSON), ((1, 3), (2, 4)))


@pytest.mark.parametrize("stat", ALL_STATS)
def test_gate_applications_conserve_mass_and_particles(stat):
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        c = builder()
        k = len(c.injections)
        state = inject(c)
        gates = list(c.input_stage) + [c.permutation] + list(c.output_stage)
        for gate in gates:
            before = norm(state) ** 2 + state.escaped
            state = apply_gate(state, gate, stat)
            after = norm(state) ** 2 + state.escaped
            assert abs(after - before) < 1e-12
            for modes, _, _ in state.items():
                assert len(modes) == k


@pytest.mark.parametrize("stat", ALL_STATS)
def test_the_gate_ledger_keeps_its_sign(stat):
    # on the ghz chain a gate can raise the stored mass by rounding; each gate
    # moves escaped by the signed change, so it ends at 1 - norm**2 exactly
    c = ghz_circuit()
    state = inject(c)
    for gate in (*c.input_stage, c.permutation, *c.output_stage):
        state = apply_gate(state, gate, stat)
    assert state.escaped == 1.0 - norm(state) ** 2


@pytest.mark.parametrize("stat", ALL_STATS)
def test_probability_completeness(stat):
    for builder in (bell_circuit, ghz_circuit, w_circuit):
        c = builder()
        out = run(c, stat)
        rejected_sq = norm(out.pre_selection) ** 2 - out.probability
        total = out.probability + rejected_sq + out.pre_selection.escaped
        assert abs(total - 1.0) < 1e-9


def test_anyon_continuity_towards_boson():
    base = run(bell_circuit(), BOSON)
    for theta in (1e-3, 1e-5):
        out = run(bell_circuit(), anyon(theta))
        for modes, _, amp in base.accepted.items():
            assert abs(out.accepted.amplitude(modes) - amp) < 2 * theta
    # term-by-term convergence for the full pre-selection state
    tiny = run(ghz_circuit(), anyon(1e-7))
    ref = run(ghz_circuit(), BOSON)
    for modes, _, amp in ref.pre_selection.items():
        assert abs(tiny.pre_selection.amplitude(modes) - amp) < 1e-6


def test_hom_bunching_by_statistics():
    hom = hom_circuit()
    out_b = run(hom, BOSON)
    # bosons bunch: every branch leaves the single-occupancy sector
    assert out_b.pre_selection.num_terms == 0
    assert abs(out_b.pre_selection.escaped - 1.0) < 1e-12
    assert out_b.probability == 0
    # fermions antibunch: the particles always exit on separate rails
    out_f = run(hom, FERMION)
    assert abs(out_f.pre_selection.amplitude([1, 2]) + 1.0) < 1e-12
    assert out_f.pre_selection.escaped < 1e-12
    assert out_f.probability == 0


GHZ_PAIRS = ghz_circuit().target_pairs


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Statistics("photon"), ValueError, "unknown statistics kind 'photon'"),
        (lambda: FockState(0), ValueError, "num_modes must be positive"),
        (
            lambda: FockState(3, {((1, 2), (1,)): 1.0}),
            DimensionMismatch,
            "species labels must align with modes",
        ),
        (lambda: QubitState(2, np.ones(2)), DimensionMismatch, "expected 4 amplitudes"),
        (
            lambda: correlation_table(run(ghz_circuit(), BOSON), [0], [0], GHZ_PAIRS),
            DimensionMismatch,
            "a correlation table needs exactly two rail pairs",
        ),
        (
            lambda: apply_gate(inject(bell_circuit()), bell_circuit().permutation, None),
            ValueError,
            "statistics required for unlabelled terms",
        ),
    ],
)
def test_library_calls_raise_their_errors(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "values",
    [((1, 0), (0, 1)), [[1, 0], [0, 1]], np.eye(2), ("a", 0), ("1", 0), 1, None],
    ids=["nested-tuple", "nested-list", "2d-array", "text", "numeric-text", "scalar", "none"],
)
def test_a_qubit_state_takes_only_a_flat_sequence_of_numbers(values):
    with pytest.raises(NoTouchError, match="qubit amplitudes must be a flat sequence of numbers"):
        QubitState(1, values)


@pytest.mark.parametrize(
    "num_qubits, values",
    [(2.0, [0.5] * 4), (True, [1, 0]), ("a", [1]), (-1, [1]), (None, [1])],
    ids=["float", "bool", "text", "negative", "none"],
)
def test_a_qubit_state_takes_only_a_non_negative_int_count(num_qubits, values):
    with pytest.raises(NoTouchError, match="num_qubits must be an int >= 0"):
        QubitState(num_qubits, values)


def test_every_qubit_state_input_becomes_python_complex():
    for values in ((1, 0), [1, 0.0], np.array([1, 0]), (np.float64(1), np.int64(0))):
        state = QubitState(1, values)
        assert state.values == (1 + 0j, 0j) and all(type(z) is complex for z in state.values)


def test_fock_state_drops_the_zero_sums_of_a_swaps_diagonal():
    # apply_gate sums every branch of the swap, its exactly-zero diagonal too;
    # those sums are 0 and FockState drops them on construction
    swap = LocalUnitary((1, 2), [[0, 1], [1, 0]])
    for stat in (BOSON, FERMION, anyon(0.7), None):
        state = FockState(3, {((1, 3), None if stat else (1, 2)): 1.0})
        out = apply_gate(state, swap, stat)
        assert list(out.items()) == [((2, 3), None if stat else (1, 2), 1)]
        assert out.escaped == 0


def test_collision_raise_mode():
    state = FockState.single(2, [1, 2])
    # fermionic branches into one mode cancel exactly: nothing escapes
    out = apply_gate(state, hadamard_gate(1, 2), FERMION)
    assert abs(out.amplitude([1, 2]) + 1.0) < 1e-12


def test_every_traced_layer_name_exists():
    # the benchmark's tracer looks up each LAYERS name in its notouch module
    # and fails the traced run on a missing one
    tracing = _module_at(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"notouch.{layer}")
        assert [name for name in names if not hasattr(module, name)] == [], layer


def test_tracer_records_the_lazily_resolved_analysis_names():
    # the package looks the analysis names up in notouch.analysis on every use,
    # so the tracer's rebinding there is what notouch.correlation_table returns
    import notouch
    import notouch.analysis

    tracing = _module_at(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    original = notouch.analysis.correlation_table
    c = bell_circuit()
    out = run(c, BOSON)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        notouch.correlation_table(out, [0.0, 1.0], [0.5], c.target_pairs)
        notouch.chsh_grid_max(out, c.target_pairs, 30.0)
    finally:
        tracer.uninstall()
    recorded = {tracer.labels[i] for i in tracer.label}
    assert {"analysis.correlation_table", "analysis.chsh_grid_max"} <= recorded
    assert notouch.correlation_table is original


def test_tracer_reaches_the_gate_level_reference_in_engine():
    # the package does not export inject, apply_gate and post_select, so the
    # tracer finds them only in notouch.engine
    import notouch
    import notouch.engine as engine

    names = {"inject", "apply_gate", "post_select"}
    assert not names & (set(dir(notouch)) | set(notouch.__all__))
    tracing = _module_at(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    originals = [engine.inject, engine.apply_gate, engine.post_select]
    c = bell_circuit()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = engine.inject(c)
        for gate in (*c.input_stage, c.permutation, *c.output_stage):
            state = engine.apply_gate(state, gate, BOSON)
        engine.post_select(state, c.target_pairs)
    finally:
        tracer.uninstall()
    recorded = {tracer.labels[i] for i in tracer.label}
    assert {f"engine.{name}" for name in names} <= recorded
    assert tracer.counters["engine.apply_gate.terms_in"] > 0
    assert [engine.inject, engine.apply_gate, engine.post_select] == originals
