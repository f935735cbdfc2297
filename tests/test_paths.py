import math
from collections import Counter

import numpy as np
import pytest
from test_differential import paired_circuit, random_circuit

import notouch.paths
from notouch.circuit import (
    Circuit,
    LocalUnitary,
    _ghz_ring,
    bell_circuit,
    ghz_circuit,
    hadamard_gate,
    hom_circuit,
    permutation_from_one_line,
    w_circuit,
)
from notouch.engine import apply_gate, inject, run
from notouch.errors import InvalidCircuit, PatternMismatch, TooManyHistories
from notouch.fock import BOSON, FERMION, anyon
from notouch.paths import (
    TouchEvent,
    TouchReport,
    _occupants,
    _particle_paths,
    _rails,
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
    with pytest.raises(InvalidCircuit, match="injection 1 is not in input subsystem 2"):
        enumerate_histories(replace(bell_circuit(), injections=(1, 1)), BOSON)


def test_enumeration_guard(monkeypatch):
    monkeypatch.setattr(notouch.paths, "HISTORY_LIMIT", 10)
    with pytest.raises(TooManyHistories):
        enumerate_histories(w_circuit(), BOSON)


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


@pytest.mark.parametrize("stat", (*ALL_STATS, anyon(2.1)))
def test_ring_verification_streams_the_walk(stat, monkeypatch):
    def no_list(*args, **kwargs):
        raise AssertionError("the verifier must not list every history")

    monkeypatch.setattr(notouch.paths, "enumerate_histories", no_list)
    report = verify_no_touching(_ghz_ring(10), stat)
    assert report.verdict == "pass"
    assert (report.histories_total, report.histories_checked) == (1024, 2)


def _filtered_report(circuit, stat, post_select, touch_events=_touch_events):
    histories = enumerate_histories(circuit, stat)
    pair_modes = {m for pair in circuit.target_pairs for m in pair}

    def accepted(finals):
        counts = Counter(finals)
        return set(counts) <= pair_modes and all(
            counts[a] + counts[b] == 1 for a, b in circuit.target_pairs
        )

    # both walks check every history of nonzero amplitude
    checked = [
        h for h in histories if h.amplitude and (not post_select or accepted(h.final_modes))
    ]
    events = tuple(ev for h in checked for ev in touch_events(h, circuit))
    return TouchReport(not events, events, len(histories), len(checked))


@pytest.mark.parametrize("floor", [1e-12, 0.2])  # 0.2 lies above some w histories
@pytest.mark.parametrize("post_select", [True, False])
@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize("builder", [bell_circuit, ghz_circuit, w_circuit, hom_circuit])
def test_verifier_equals_a_filter_over_all_histories(builder, stat, post_select, floor):
    circuit = builder()
    report = verify_no_touching(circuit, stat, post_select=post_select)
    assert report == _filtered_report(circuit, stat, post_select)
    # no absolute amplitude floor hides a touching history
    small = [h for h in enumerate_histories(circuit, stat) if 0 < abs(h.amplitude) <= floor]
    found = {event.history for event in report.counterexamples}
    assert post_select or all(h in found for h in small if _touch_events(h, circuit))


def _all_stage_touch_events(history, circuit):
    """The touch rule at every step: a mode shared after injection, the input
    stage, the permutation or the output stage, then two particles entering
    one input gate or one output gate."""
    events = []
    steps = ("injection", "input", "permutation", "output")
    for stage, modes in zip(steps, history.particle_modes):
        for m in sorted({m for m in modes if modes.count(m) > 1}):
            events.append(TouchEvent(stage, f"mode {m}", history))
    entering = {"input": history.particle_modes[0], "output": history.particle_modes[2]}
    for stage, gates in (("input", circuit.input_stage), ("output", circuit.output_stage)):
        for gate in gates:
            if len([m for m in entering[stage] if m in gate.support]) > 1:
                events.append(TouchEvent(stage, f"gate on modes {gate.support}", history))
    return events


@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize("make", [random_circuit, paired_circuit])
def test_output_stage_rule_equals_the_all_stage_rule(make, stat):
    # a valid circuit keeps particles apart until the output stage, so
    # checking only that stage finds every event the all-stage rule finds
    for seed in range(100):
        circuit = make(np.random.default_rng(seed))
        for post_select in (True, False):
            report = verify_no_touching(circuit, stat, post_select=post_select)
            oracle = _filtered_report(circuit, stat, post_select, _all_stage_touch_events)
            assert report == oracle
            assert report.passed or not post_select


@pytest.mark.parametrize("stat", ALL_STATS)
def test_a_circuit_without_particles_has_one_empty_history(stat):
    empty = Circuit(
        num_modes=1,
        input_subsystems=(),
        injections=(),
        input_stage=(),
        permutation=permutation_from_one_line([1]),
        output_stage=(),
        output_subsystems=(),
        target_pairs=(),
    )
    out = run(empty, stat)
    assert list(out.accepted.items()) == [((), None, 1)]
    assert out.probability == 1.0
    assert out.histories == (((), None, 1),)
    report = verify_no_touching(empty, stat)
    assert report.verdict == "pass"
    assert (report.histories_total, report.histories_checked) == (1, 1)
    (history,) = enumerate_histories(empty, stat)
    assert history.particle_modes == ((), (), (), ())


def test_the_history_limit_counts_the_accepted_histories_visited(monkeypatch):
    report = verify_no_touching(_ghz_ring(20), BOSON)
    assert report.verdict == "pass"
    assert (report.histories_total, report.histories_checked) == (2**20, 2)
    # the full walk, like enumerate_histories, checks the product before it starts
    with pytest.raises(TooManyHistories, match="1048576 histories exceed the limit of 1000000"):
        verify_no_touching(_ghz_ring(20), BOSON, post_select=False)
    monkeypatch.setattr(notouch.paths, "HISTORY_LIMIT", 1)
    with pytest.raises(TooManyHistories, match="accepted histories exceed the limit of 1"):
        verify_no_touching(_ghz_ring(20), BOSON)


def test_post_selection_checks_accepted_histories_of_any_magnitude():
    # each of the 2 accepted histories of the 80-particle ring has amplitude
    # 2**-40, far below the default tolerance
    report = verify_no_touching(_ghz_ring(80), FERMION)
    assert report.verdict == "pass"
    assert (report.histories_total, report.histories_checked) == (2**80, 2)


@pytest.mark.parametrize("stat", ALL_STATS)
@pytest.mark.parametrize(
    "make",
    [bell_circuit, ghz_circuit, w_circuit, lambda: _ghz_ring(10)],
    ids=["bell", "ghz", "w", "ring10"],
)
def test_a_post_selected_report_takes_no_tolerance(make, stat):
    circuit = make()
    report = verify_no_touching(circuit, stat)
    assert report == _filtered_report(circuit, stat, True)
    assert report.passed and report.histories_checked > 0
    with pytest.raises(TypeError):
        verify_no_touching(circuit, stat, amplitude_tolerance=0.3)


@pytest.mark.parametrize("stat", ALL_STATS)
def test_the_cut_verifier_equals_the_all_stage_filter(stat):
    # post-selected verification walks only the accepted sector; its verdict
    # and counterexamples equal the all-stage rule over every history
    circuits = [hom_circuit()] + [
        make(np.random.default_rng(seed))
        for make in (random_circuit, paired_circuit)
        for seed in range(100, 150)
    ]
    for circuit in circuits:
        report = verify_no_touching(circuit, stat)
        assert report == _filtered_report(circuit, stat, True, _all_stage_touch_events)


@pytest.mark.parametrize("stat", ALL_STATS)
def test_the_accept_all_walk_checks_a_touching_history_of_any_magnitude(stat):
    # particle 1 reaches mode 2 with amplitude 1e-13 and then meets particle
    # 2 in the output gate on (2, 3); every other history keeps them apart
    s = 1e-13
    tilt = LocalUnitary((1, 2), [[math.sqrt(1 - s * s), -s], [s, math.sqrt(1 - s * s)]])
    circuit = Circuit(
        num_modes=4,
        input_subsystems=((1, 2), (3, 4)),
        injections=(1, 3),
        input_stage=(tilt,),
        permutation=permutation_from_one_line([1, 2, 3, 4]),
        output_stage=(hadamard_gate(2, 3),),
        output_subsystems=((1, 4), (2, 3)),
        target_pairs=((1, 4), (2, 3)),
    )
    report = verify_no_touching(circuit, stat, post_select=False)
    assert report.verdict == "fail"
    assert (report.histories_total, report.histories_checked) == (6, 6)
    assert all(0 < abs(ev.history.amplitude) < 1e-12 for ev in report.counterexamples)
    assert "gate on modes (2, 3)" in {ev.location for ev in report.counterexamples}
    assert verify_no_touching(circuit, stat).passed


def _occupants_by_definition(modes, pairs):
    """For each pair, the one index i with ``modes[i]`` in it and that mode's
    rail, or ``None`` for the whole layout if some pair holds none or two."""
    found = []
    for pair in pairs:
        hits = [i for i, mode in enumerate(modes) if mode in pair]
        if len(hits) != 1:
            return None
        found.append((hits[0], pair.index(modes[hits[0]])))
    return found


def _geometry(p, q):
    """How two disjoint pairs of modes lie on the line of modes."""
    (a, b), (c, d) = sorted(p), sorted(q)
    if b < c or d < a:
        return "disjoint"
    return "nested" if (a < c) == (d < b) else "interleaved"


def _random_layout(rng):
    """0-4 disjoint pairs on modes 1-8, and mode tuples with repeats and modes
    outside the pairs: some drawn freely, some with one rail per pair."""
    modes = [int(m) for m in rng.permutation(np.arange(1, 9))]
    pairs = tuple(zip(modes[0:8:2], modes[1:8:2]))[: int(rng.integers(0, 5))]
    tuples = [tuple(int(m) for m in rng.integers(1, 9, size=rng.integers(0, 7))) for _ in range(6)]
    for _ in range(6):
        chosen = [pair[int(rng.integers(2))] for pair in pairs]
        chosen += [int(m) for m in rng.integers(1, 9, size=rng.integers(0, 3))]
        tuples.append(tuple(int(m) for m in rng.permutation(chosen)))
    return pairs, tuples


def test_occupants_is_each_pairs_one_particle():
    rng = np.random.default_rng(5000)
    geometries, found = set(), 0
    for _ in range(500):
        pairs, tuples = _random_layout(rng)
        geometries.update(_geometry(p, q) for i, p in enumerate(pairs) for q in pairs[:i])
        rail_of = _rails(pairs)
        for modes in tuples:
            expected = _occupants_by_definition(modes, pairs)
            assert _occupants(modes, rail_of, len(pairs)) == expected, (modes, pairs)
            found += bool(pairs) and expected is not None
    assert geometries == {"disjoint", "nested", "interleaved"}
    assert found > 1000  # not only rejections: 1618 of 6000 fill 1-4 pairs


def test_the_walks_pair_bit_is_the_bit_of_the_mode_pair():
    rng = np.random.default_rng(5001)
    for _ in range(100):
        pairs, _ = _random_layout(rng)
        circuit = Circuit(
            num_modes=8,
            input_subsystems=(),
            injections=(),
            input_stage=(),
            permutation=permutation_from_one_line(list(range(1, 9))),
            output_stage=(),
            output_subsystems=pairs,
            target_pairs=pairs,
        )
        for mode in range(1, 9):
            (record,) = _particle_paths(circuit, mode, _rails(circuit.target_pairs))
            bits = [1 << k for k, pair in enumerate(pairs) if mode in pair]
            assert record[-1] == sum(bits), (mode, pairs)


@pytest.mark.parametrize("pairs", [[(1, 2, 3)], [(1, 2), (3, 3)], [(1, 2), (2, 3)]])
def test_rails_rejects_a_malformed_layout(pairs):
    with pytest.raises(PatternMismatch, match="disjoint pairs of two distinct modes"):
        _rails(pairs)
