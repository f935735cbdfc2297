import pytest

from notouch.circuit import bell_circuit, ghz_circuit, hom_circuit, w_circuit
from notouch.engine import apply_gate, inject
from notouch.errors import InvalidCircuit, TooManyHistories
from notouch.fock import BOSON, FERMION, anyon
from notouch.paths import (
    enumerate_histories,
    history_pattern_sums,
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
    sums = history_pattern_sums(enumerate_histories(circuit, stat))
    # run() folds these same histories; the gate-by-gate chain does not
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
