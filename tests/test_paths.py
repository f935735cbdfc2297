from collections import Counter

import numpy as np
import pytest

import notouch.paths
from notouch.circuit import (
    Circuit,
    LocalUnitary,
    bell_circuit,
    ghz_circuit,
    hom_circuit,
    permutation_from_one_line,
    w_circuit,
)
from notouch.engine import apply_gate, inject, run
from notouch.errors import InvalidCircuit, TooManyHistories
from notouch.fock import BOSON, FERMION, anyon
from notouch.paths import (
    TouchReport,
    _touch_events,
    enumerate_histories,
    verify_no_touching,
)
from dataclasses import replace

ALL_STATS = (BOSON, FERMION, anyon(0.7))


def test_history_counts():
    # one branch per support mode at each traversed gate
    assert len(enumerate_histories(bell_circuit(), BOSON)) == 4
    assert len(enumerate_histories(ghz_circuit(), BOSON)) == 8
    # w: each outer particle has 2 input branches, one of which reaches the
    # output splitter for 2 more; the middle particle has 3 input branches
    assert len(enumerate_histories(w_circuit(), BOSON)) == 3 * 3 * 3


def test_history_amplitudes_are_bounded():
    for h in enumerate_histories(w_circuit(), BOSON):
        assert abs(h.amplitude) <= 1 + 1e-12


@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit])
def test_history_sums_match_engine(builder, stat):
    circuit = builder()
    sums = {modes: amp for modes, _, amp in run(circuit, stat).pre_selection.items()}
    # run() folds the path histories; the gate-by-gate chain does not
    pre = inject(circuit)
    for gate in (*circuit.input_stage, circuit.permutation, *circuit.output_stage):
        pre = apply_gate(pre, gate, stat)
    patterns = set(sums) | {modes for modes, _, _ in pre.items()}
    for pattern in patterns:
        assert abs(sums.get(pattern, 0.0) - pre.amplitude(pattern)) < 1e-9


def test_enumerate_rejects_invalid_circuit():
    bad = replace(bell_circuit(), injections=(1, 1))
    with pytest.raises(InvalidCircuit):
        enumerate_histories(bad, BOSON)


def test_enumeration_guard():
    with pytest.raises(TooManyHistories):
        enumerate_histories(w_circuit(), BOSON, max_histories=10)


@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit])
def test_protocols_pass_verification(builder, stat):
    report = verify_no_touching(builder(), stat)
    assert report.passed
    assert report.verdict == "pass"
    assert report.counterexamples == ()
    assert report.histories_checked > 0


def test_hom_control_fails_under_accept_all():
    report = verify_no_touching(hom_circuit(), BOSON, post_select=False)
    assert not report.passed
    gate_events = [ev for ev in report.counterexamples if "gate" in ev.location]
    assert gate_events, "expected a counterexample naming the beam splitter"
    assert gate_events[0].stage == "output"


def test_hom_control_is_vacuous_with_post_selection():
    # both particles always share the single pair, so nothing is accepted
    report = verify_no_touching(hom_circuit(), BOSON, post_select=True)
    assert report.histories_checked == 0
    assert report.passed


def test_w_fails_without_post_selection():
    report = verify_no_touching(w_circuit(), BOSON, post_select=False)
    assert not report.passed
    locations = {ev.location for ev in report.counterexamples}
    assert any("gate on modes (3, 5)" in loc for loc in locations)
    # with post-selection the same histories are rejected, so it passes
    assert verify_no_touching(w_circuit(), BOSON, post_select=True).passed


def test_history_boundaries_are_recorded():
    histories = enumerate_histories(bell_circuit(), BOSON)
    for h in histories:
        assert len(h.particle_modes) == 4
        assert h.particle_modes[0] == (1, 3)
        assert len(h.final_modes) == 2


def test_accepted_history_counts():
    # each accepted pattern of the built-in layouts is reached by one history
    for builder, accepted in ((bell_circuit, 2), (ghz_circuit, 2), (w_circuit, 3)):
        report = verify_no_touching(builder(), BOSON)
        assert report.histories_checked == accepted


def _ghz_ring(n):
    # particle j enters mode 2j-1 and is split over pair (2j-1, 2j); the
    # permutation fixes odd modes and sends 2j to 2j+2, wrapping 2n to 2
    pairs = tuple((2 * j - 1, 2 * j) for j in range(1, n + 1))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    one_line = [m if m % 2 else (m + 2 if m < 2 * n else 2) for m in range(1, 2 * n + 1)]
    return Circuit(
        num_modes=2 * n,
        input_subsystems=pairs,
        injections=tuple(a for a, _ in pairs),
        input_stage=tuple(LocalUnitary(pair, hadamard) for pair in pairs),
        permutation=permutation_from_one_line(one_line),
        output_stage=(),
        output_subsystems=pairs,
        target_pairs=pairs,
    )


@pytest.mark.parametrize("stat", (*ALL_STATS, anyon(2.1)))
def test_ring_verification_streams_the_walk(stat, monkeypatch):
    def no_list(*args, **kwargs):
        raise AssertionError("the verifier must not list every history")

    monkeypatch.setattr(notouch.paths, "enumerate_histories", no_list)
    report = verify_no_touching(_ghz_ring(10), stat)
    assert report.verdict == "pass"
    assert (report.histories_total, report.histories_checked) == (1024, 2)


def _filtered_report(circuit, stat, post_select, tolerance):
    histories = enumerate_histories(circuit, stat)
    pair_modes = {m for pair in circuit.target_pairs for m in pair}

    def accepted(finals):
        counts = Counter(finals)
        return set(counts) <= pair_modes and all(
            counts[a] + counts[b] == 1 for a, b in circuit.target_pairs
        )

    checked = [
        h
        for h in histories
        if abs(h.amplitude) > tolerance and (not post_select or accepted(h.final_modes))
    ]
    events = tuple(ev for h in checked for ev in _touch_events(h, circuit))
    return TouchReport(not events, events, len(histories), len(checked))


@pytest.mark.parametrize("tolerance", [1e-12, 0.2])  # 0.2 drops some w histories
@pytest.mark.parametrize("post_select", [True, False])
@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit, hom_circuit])
def test_verifier_equals_a_filter_over_all_histories(builder, stat, post_select, tolerance):
    circuit = builder()
    report = verify_no_touching(
        circuit, stat, post_select=post_select, amplitude_tolerance=tolerance
    )
    assert report == _filtered_report(circuit, stat, post_select, tolerance)
