"""Randomized differential checks of ``run``, ``run_distinguishable`` and
``correlation``.

The oracle is the single-particle transfer matrix ``T = U_out P U_in`` of a
circuit, built here with numpy and independent of the package's walk.  Sorted
pattern ``S`` then has amplitude ``sum_f prod_p T[f_p, inj_p]`` times
``reorder_phase(inversions(f))`` over the bijections ``f`` from the particles
(in ascending injection order) onto ``S``.  Labelled particles carry no phase:
each assignment is its own term with amplitude ``prod_p T[f_p, inj_p]``.  A
correlation measurement appends one rail rotation per target pair, so its
oracle is the same sum over ``T' = R(theta) T``.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from notouch.analysis import correlation
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
from notouch.engine import (
    apply_gate,
    computational_distribution,
    inject,
    post_select,
    run,
    run_distinguishable,
)
from notouch.fock import BOSON, FERMION, anyon, canonicalize, count_inversions, norm
from notouch.paths import _injection_labels, _occupants, _rails, enumerate_histories

STATS = (BOSON, FERMION, anyon(0.7), anyon(2.1))
TOL = 1e-12


def acceptance_rule(pairs):
    """Post-selection's test on a term's modes: one particle in each pair and
    none outside them, read with ``paths._rails`` and ``paths._occupants``."""
    rail_of = _rails(pairs)
    return lambda modes: (
        len(modes) == len(pairs) and _occupants(modes, rail_of, len(pairs)) is not None
    )


def _haar(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _chunks(items, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(tuple(int(m) for m in items[start:start + size]))
        start += size
    return out


def _local_gates(rng, subsystems):
    """One Haar gate on a random part of each subsystem, in shuffled order."""
    gates = []
    for sub in subsystems:
        if rng.random() < 0.2:
            continue
        size = int(rng.integers(1, len(sub) + 1))
        support = tuple(int(m) for m in rng.permutation(sub)[:size])
        gates.append(LocalUnitary(support, _haar(rng, size)))
    rng.shuffle(gates)
    return tuple(gates)


def random_circuit(rng) -> Circuit:
    k = int(rng.integers(2, 5))
    in_sizes = [int(s) for s in rng.integers(1, 4, size=k)]
    num_modes = max(sum(in_sizes), 2 * k) + int(rng.integers(0, 2))
    modes = rng.permutation(np.arange(1, num_modes + 1))
    input_subsystems = _chunks(modes, in_sizes)
    injections = tuple(int(rng.choice(sub)) for sub in input_subsystems)
    out_sizes = [2] * k
    for _ in range(num_modes - 2 * k):
        if rng.random() < 0.5:
            out_sizes[int(rng.integers(k))] += 1
    output_subsystems = _chunks(rng.permutation(np.arange(1, num_modes + 1)), out_sizes)
    target_pairs = tuple(
        tuple(int(m) for m in rng.permutation(sub)[:2]) for sub in output_subsystems
    )
    return Circuit(
        num_modes=num_modes,
        input_subsystems=tuple(input_subsystems),
        injections=injections,
        input_stage=_local_gates(rng, input_subsystems),
        permutation=permutation_from_one_line(
            [int(m) for m in rng.permutation(np.arange(1, num_modes + 1))]
        ),
        output_stage=_local_gates(rng, output_subsystems),
        output_subsystems=tuple(output_subsystems),
        target_pairs=target_pairs,
    )


def reaching_circuit(rng) -> Circuit:
    """``random_circuit`` with its output side redrawn: each output subsystem is
    built around one mode its particle reaches before the output stage, and
    that mode and one more form its target pair, so post-selection can accept."""
    c = random_circuit(rng)
    k, t = len(c.injections), transfer_matrix(replace(c, output_stage=()))
    anchors = [int(rng.choice(np.flatnonzero(t[:, src - 1]))) + 1 for src in c.injections]
    rest = [int(m) for m in rng.permutation(np.arange(1, c.num_modes + 1)) if m not in anchors]
    subsystems = [[anchor, second] for anchor, second in zip(anchors, rest)]
    for m in rest[k:]:
        subsystems[int(rng.integers(k))].append(m)
    output_subsystems = tuple(tuple(int(m) for m in rng.permutation(sub)) for sub in subsystems)
    return replace(
        c,
        output_stage=_local_gates(rng, output_subsystems),
        output_subsystems=output_subsystems,
        target_pairs=tuple(tuple(int(m) for m in rng.permutation(sub[:2])) for sub in subsystems),
    )


def paired_circuit(rng) -> Circuit:
    """2k modes in k input and k output pairs with a Haar gate on every pair;
    the target pairs are the output pairs, so some outcome is accepted."""
    k = int(rng.integers(2, 5))
    input_subsystems = _chunks(rng.permutation(np.arange(1, 2 * k + 1)), [2] * k)
    output_subsystems = _chunks(rng.permutation(np.arange(1, 2 * k + 1)), [2] * k)
    return Circuit(
        num_modes=2 * k,
        input_subsystems=tuple(input_subsystems),
        injections=tuple(int(rng.choice(sub)) for sub in input_subsystems),
        input_stage=tuple(LocalUnitary(sub, _haar(rng, 2)) for sub in input_subsystems),
        permutation=permutation_from_one_line(
            [int(m) for m in rng.permutation(np.arange(1, 2 * k + 1))]
        ),
        output_stage=tuple(LocalUnitary(sub, _haar(rng, 2)) for sub in output_subsystems),
        output_subsystems=tuple(output_subsystems),
        target_pairs=tuple(output_subsystems),
    )


def dense_circuit(k, rng):
    """k particles on k * k modes in blocks of k, a Haar gate on every block;
    mode i of input block j goes to mode j of output block i, so every
    particle reaches every target pair, the first two modes of each output
    block.  Each accepted pattern has k! histories, and some histories
    collide."""
    blocks = tuple(tuple(range(j * k + 1, j * k + k + 1)) for j in range(k))
    return Circuit(
        num_modes=k * k,
        input_subsystems=blocks,
        injections=tuple(block[0] for block in blocks),
        input_stage=tuple(LocalUnitary(block, _haar(rng, k)) for block in blocks),
        permutation=permutation_from_one_line(
            [(m - 1) % k * k + (m - 1) // k + 1 for m in range(1, k * k + 1)]
        ),
        output_stage=tuple(LocalUnitary(block, _haar(rng, k)) for block in blocks),
        output_subsystems=blocks,
        target_pairs=tuple(block[:2] for block in blocks),
    )


def transfer_matrix(c: Circuit) -> np.ndarray:
    """``T[dest - 1, src - 1]``: amplitude of one particle going src -> dest."""
    n = c.num_modes

    def stage(gates):
        u = np.eye(n, dtype=complex)
        for gate in gates:
            idx = [m - 1 for m in gate.support]
            u[np.ix_(idx, idx)] = np.array(gate.rows)
        return u

    p = np.zeros((n, n))
    for m in range(1, n + 1):
        p[c.permutation.apply(m) - 1, m - 1] = 1.0
    return stage(c.output_stage) @ p @ stage(c.input_stage)


def _assignments(c: Circuit, t=None):
    """Every injective final-mode assignment with its product of entries of
    ``t`` (the circuit's transfer matrix unless given)."""
    t = transfer_matrix(c) if t is None else t
    sources = sorted(c.injections)
    for finals in itertools.permutations(range(1, c.num_modes + 1), len(sources)):
        amp = 1.0 + 0.0j
        for dest, src in zip(finals, sources):
            amp *= t[dest - 1, src - 1]
        yield finals, amp


def oracle_amplitudes(c: Circuit, stat) -> dict:
    sums: dict = {}
    for finals, amp in _assignments(c):
        key = tuple(sorted(finals))
        sums[key] = sums.get(key, 0.0) + amp * stat.reorder_phase(count_inversions(finals))
    return sums


def one_per_pair(c: Circuit, modes) -> bool:
    """Post-selection, written out: every final mode lies in a target pair and
    every target pair holds exactly one of them."""
    pair_modes = {m for pair in c.target_pairs for m in pair}
    return set(modes) <= pair_modes and all(
        (a in modes) + (b in modes) == 1 for a, b in c.target_pairs
    )


def oracle_labelled(c: Circuit) -> dict:
    labels = [k for _, k in sorted(zip(c.injections, itertools.count(1)))]
    terms = {}
    for finals, amp in _assignments(c):
        pairs = sorted(zip(finals, labels))
        terms[(tuple(m for m, _ in pairs), tuple(s for _, s in pairs))] = amp
    return terms


def rail_rotation(theta):
    """The detection rotation [[cos, sin], [sin, -cos]] of theta / 2 on one rail pair."""
    p, q = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[p, q], [q, -p]], dtype=complex)


def oracle_correlation(c: Circuit, stat, thetas) -> float:
    """Outcome-product average after rotating every target pair, from
    ``T' = R(theta) T``; ``stat`` of ``None`` labels the particles."""
    r = np.eye(c.num_modes, dtype=complex)
    for theta, pair in zip(thetas, c.target_pairs):
        idx = [m - 1 for m in pair]
        r[np.ix_(idx, idx)] = rail_rotation(theta)
    sums: dict = {}
    for finals, amp in _assignments(c, r @ transfer_matrix(c)):
        if stat is None:
            key = finals  # each labelled assignment is its own term
        else:
            key = tuple(sorted(finals))
            amp *= stat.reorder_phase(count_inversions(finals))
        sums[key] = sums.get(key, 0.0) + amp
    signed = weight = 0.0
    for finals, amp in sums.items():
        if not all((a in finals) + (b in finals) == 1 for a, b in c.target_pairs):
            continue
        sign = np.prod([1 if a in finals else -1 for a, _ in c.target_pairs])
        signed += sign * abs(amp) ** 2
        weight += abs(amp) ** 2
    return signed / weight


def _gate_chain(c: Circuit, stat):
    state = inject(c)
    for gate in (*c.input_stage, c.permutation, *c.output_stage):
        state = apply_gate(state, gate, stat)
    return state


def _max_gap(state, reference: dict, labelled: bool = False) -> float:
    got = {(modes, species) if labelled else modes: amp for modes, species, amp in state.items()}
    keys = set(got) | set(reference)
    return max((abs(got.get(k, 0.0) - reference.get(k, 0.0)) for k in keys), default=0.0)


def _reversed_stages(c: Circuit) -> Circuit:
    return replace(
        c, input_stage=c.input_stage[::-1], output_stage=c.output_stage[::-1]
    )


def _check_accepted(c: Circuit, out, oracle: dict, labelled: bool = False) -> None:
    """``accepted`` equals the oracle terms that ``one_per_pair`` keeps, and
    ``probability`` their squared norm."""
    kept = {
        key: amp for key, amp in oracle.items() if one_per_pair(c, key[0] if labelled else key)
    }
    assert _max_gap(out.accepted, kept, labelled) <= TOL
    assert abs(out.probability - sum(abs(amp) ** 2 for amp in kept.values())) <= TOL


def check_escaped_ledger(c: Circuit) -> None:
    """``escaped`` against the colliding histories themselves, where the line
    ``norm ** 2 + escaped == 1`` only restates its complement.  Bosons escape
    ``prod_m n_m! |sum amp|^2`` per multi-occupied final pattern, labelled
    particles ``|sum amp|^2`` per labelled one (no factorial), and fermions
    nothing.  This model defines no double occupancy for anyons with theta
    outside {0, pi}, so they are left out."""
    labels = _injection_labels(c)
    bosons: dict = {}
    labelled: dict = {}
    for h in enumerate_histories(c, BOSON):  # colliding histories pay no phase
        if len(set(h.final_modes)) < len(h.final_modes):
            pattern = tuple(sorted(h.final_modes))
            bosons[pattern] = bosons.get(pattern, 0.0) + h.amplitude
            assignment = tuple(sorted(zip(h.final_modes, labels)))
            labelled[assignment] = labelled.get(assignment, 0.0) + h.amplitude
    boson_escape = sum(
        math.prod(math.factorial(pattern.count(m)) for m in set(pattern)) * abs(amp) ** 2
        for pattern, amp in bosons.items()
    )
    assert abs(run(c, BOSON).pre_selection.escaped - boson_escape) <= TOL
    labelled_escape = sum(abs(amp) ** 2 for amp in labelled.values())
    assert abs(run_distinguishable(c).pre_selection.escaped - labelled_escape) <= TOL
    assert abs(norm(run(c, FERMION).pre_selection) ** 2 - 1.0) <= TOL


def check_against_oracle(c: Circuit) -> None:
    flipped = _reversed_stages(c)
    for stat in STATS:
        out = run(c, stat)
        pre = out.pre_selection
        oracle = oracle_amplitudes(c, stat)
        assert _max_gap(pre, oracle) <= TOL, stat
        _check_accepted(c, out, oracle)
        assert abs(norm(pre) ** 2 + pre.escaped - 1.0) <= TOL
        amplitudes = {modes: amp for modes, _, amp in pre.items()}
        assert _max_gap(run(flipped, stat).pre_selection, amplitudes) <= TOL, stat
        if stat in (BOSON, FERMION):
            chain = {modes: amp for modes, _, amp in _gate_chain(c, stat).items()}
            assert _max_gap(pre, chain) <= TOL, stat
    out_d = run_distinguishable(c)
    pre_d = out_d.pre_selection
    oracle_d = oracle_labelled(c)
    assert _max_gap(pre_d, oracle_d, labelled=True) <= TOL
    _check_accepted(c, out_d, oracle_d, labelled=True)
    assert abs(norm(pre_d) ** 2 + pre_d.escaped - 1.0) <= TOL
    check_escaped_ledger(c)
    flipped_d = run_distinguishable(flipped).pre_selection
    labelled = {(modes, species): amp for modes, species, amp in pre_d.items()}
    assert _max_gap(flipped_d, labelled, labelled=True) <= TOL


@pytest.mark.parametrize(
    "build",
    [pytest.param(build, id=build.__name__)
     for build in (bell_circuit, ghz_circuit, w_circuit, hom_circuit)]
    + [pytest.param(lambda: _ghz_ring(6), id="ring6")],
)
def test_the_escaped_ledger_equals_the_colliding_histories(build):
    check_escaped_ledger(build())


def test_hom_escapes_half_the_labelled_weight():
    # each particle takes either output with weight 1/2, and two of the four
    # labelled assignments share a mode; bosons escape entirely (test_engine)
    assert abs(run_distinguishable(hom_circuit()).pre_selection.escaped - 0.5) <= TOL


@pytest.mark.parametrize("seed", range(24))
def test_random_circuits_match_transfer_matrix_oracle(seed):
    check_against_oracle(random_circuit(np.random.default_rng(1000 + seed)))


@pytest.mark.parametrize(
    "c",
    [pytest.param(paired_circuit(np.random.default_rng(2000 + seed)), id=f"paired{seed}")
     for seed in range(24)]
    + [pytest.param(dense_circuit(k, np.random.default_rng(3000 + k)), id=f"dense{k}")
       for k in (2, 3)],
)
def test_accepting_circuits_match_transfer_matrix_oracle(c):
    check_against_oracle(c)


def test_the_accepted_oracle_check_is_not_vacuous():
    # the oracle gives every paired and dense circuit accepted weight under
    # every statistics, so each of them checks a nonempty ``accepted``
    circuits = [paired_circuit(np.random.default_rng(2000 + seed)) for seed in range(24)]
    circuits += [dense_circuit(k, np.random.default_rng(3000 + k)) for k in (2, 3)]
    for c in circuits:
        for stat in STATS:
            oracle = oracle_amplitudes(c, stat)
            assert sum(abs(amp) ** 2 for m, amp in oracle.items() if one_per_pair(c, m)) > TOL


@pytest.mark.parametrize("seed", range(24))
def test_reaching_circuits_match_transfer_matrix_oracle(seed):
    check_against_oracle(reaching_circuit(np.random.default_rng(1000 + seed)))


def test_the_reaching_circuits_accept_something():
    # unlike the random circuits they redraw, these give the post-selected
    # checks accepted weight under every statistics
    accepting = 0
    for seed in range(24):
        c = reaching_circuit(np.random.default_rng(1000 + seed))
        oracles = [oracle_amplitudes(c, stat) for stat in STATS]
        accepting += all(
            sum(abs(amp) ** 2 for m, amp in oracle.items() if one_per_pair(c, m)) > TOL
            for oracle in oracles
        )
    assert accepting >= 20


@pytest.mark.parametrize("seed", range(24))
def test_random_circuits_detect_like_labelled_particles(seed):
    c = random_circuit(np.random.default_rng(1000 + seed))
    labelled = computational_distribution(run_distinguishable(c), c.target_pairs)
    for stat in (BOSON, FERMION, anyon(0.7)):
        dist = computational_distribution(run(c, stat), c.target_pairs)
        assert dist.keys() == labelled.keys(), stat
        assert max((abs(dist[k] - labelled[k]) for k in dist), default=0.0) <= TOL, stat


def test_the_labelled_detection_check_is_not_vacuous():
    # 15 of those 24 seeds accept nothing, so both sides are empty there;
    # these 9 must keep accepting something
    accepting = set()
    for seed in range(24):
        c = random_circuit(np.random.default_rng(1000 + seed))
        if computational_distribution(run_distinguishable(c), c.target_pairs):
            accepting.add(seed)
    assert accepting >= {6, 7, 8, 11, 12, 13, 16, 20, 21}


CIRCUITS = (
    [pytest.param(random_circuit, 1000 + seed, id=f"random{seed}") for seed in range(24)]
    + [pytest.param(paired_circuit, 2000 + seed, id=f"paired{seed}") for seed in range(24)]
    + [
        pytest.param(lambda _, build=build: build(), None, id=build.__name__)
        for build in (bell_circuit, ghz_circuit, w_circuit)
    ]
)


@pytest.mark.parametrize("make, seed", CIRCUITS)
def test_run_accepts_exactly_what_post_select_keeps(make, seed):
    c = make(np.random.default_rng(seed))
    accepted = acceptance_rule(c.target_pairs)
    for stat in (*STATS, None):
        out = run_distinguishable(c) if stat is None else run(c, stat)
        kept, probability = post_select(out.pre_selection, c.target_pairs)
        assert list(out.accepted.items()) == list(kept.items()), stat
        assert out.probability == probability, stat
        if stat is not None:  # the kept histories are the verifier's accepted ones
            walked = [
                (h.final_modes, h.amplitude)
                for h in enumerate_histories(c, stat)
                if accepted(h.final_modes)
            ]
            kept_histories = [
                (finals, amp * canonicalize(finals, stat)[1]) for finals, _, amp in out.histories
            ]
            assert kept_histories == walked, stat


@pytest.mark.parametrize("stat", (BOSON, FERMION))
@pytest.mark.parametrize("make, seed", CIRCUITS)
def test_history_groups_match_transfer_matrix_products(make, seed, stat):
    # every ordered final-mode tuple the walk reaches, colliding ones
    # included, sums to the product of its particles' entries of T; each
    # column of T is a unit vector, so the squared sums over all tuples are 1
    c = make(np.random.default_rng(seed))
    t = transfer_matrix(c)
    sources = sorted(c.injections)
    groups: dict = {}
    for h in enumerate_histories(c, stat):
        groups[h.final_modes] = groups.get(h.final_modes, 0.0) + h.amplitude
    for finals, amp in groups.items():
        expected = np.prod([t[dest - 1, src - 1] for dest, src in zip(finals, sources)])
        if len(set(finals)) == len(finals):
            expected *= stat.reorder_phase(count_inversions(finals))
        assert abs(amp - expected) <= TOL, finals
    assert abs(sum(abs(amp) ** 2 for amp in groups.values()) - 1.0) <= TOL


@pytest.mark.parametrize("seed", range(24))
def test_paired_circuits_correlate_like_the_rotated_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    c = paired_circuit(rng)
    thetas = rng.uniform(0, 2 * np.pi, size=len(c.target_pairs))
    for stat in (*STATS, None):
        out = run_distinguishable(c) if stat is None else run(c, stat)
        expected = oracle_correlation(c, stat, thetas)
        assert abs(correlation(out, thetas, c.target_pairs) - expected) <= TOL, stat


@pytest.mark.parametrize("seed", range(24))
def test_paired_circuits_detect_like_labelled_particles(seed):
    # Without the output stage every final mode is reached by one particle
    # only.  The output gates mix modes that different particles reach, and
    # the exchange interference of the two assignments then changes what
    # bosons, fermions and anyons record (by up to 0.15 on these seeds),
    # although no accepted history touches.
    c = replace(paired_circuit(np.random.default_rng(2000 + seed)), output_stage=())
    labelled = computational_distribution(run_distinguishable(c), c.target_pairs)
    assert labelled
    for stat in (BOSON, FERMION, anyon(0.7)):
        dist = computational_distribution(run(c, stat), c.target_pairs)
        assert dist.keys() == labelled.keys(), stat
        assert max(abs(dist[k] - labelled[k]) for k in dist) <= TOL, stat


def test_swap_and_swap_back_pays_no_phase():
    # particle 1 goes 1 -> 4 -> {1, 4}, particle 2 goes 3 -> 2: ending on
    # (1, 2) the pair swaps order and swaps back, so no anyon phase is due
    c = Circuit(
        num_modes=4,
        input_subsystems=((1, 2), (3, 4)),
        injections=(1, 3),
        input_stage=(),
        permutation=permutation_from_one_line([4, 1, 2, 3]),
        output_stage=(hadamard_gate(1, 4),),
        output_subsystems=((1, 4), (2, 3)),
        target_pairs=((1, 4), (2, 3)),
    )
    out = run(c, anyon(0.7))
    assert abs(out.accepted.amplitude([1, 2]) - 1 / np.sqrt(2)) <= TOL
    check_against_oracle(c)


def test_commuting_input_gates_in_either_order():
    c = Circuit(
        num_modes=8,
        input_subsystems=((1, 5), (3, 7)),
        injections=(1, 3),
        input_stage=(hadamard_gate(1, 5), hadamard_gate(3, 7)),
        permutation=permutation_from_one_line(range(1, 9)),
        output_stage=(),
        output_subsystems=((1, 5), (3, 7)),
        target_pairs=((1, 5), (3, 7)),
    )
    out = run(c, anyon(0.7))
    # only (3, 5) ends with the particles out of injection order
    for modes, phase in (((1, 3), 1), ((1, 7), 1), ((3, 5), np.exp(0.7j)), ((5, 7), 1)):
        assert abs(out.accepted.amplitude(modes) - 0.5 * phase) <= TOL
    check_against_oracle(c)


@pytest.mark.parametrize("stat", STATS)
def test_reversed_injections_keep_the_ascending_convention(stat):
    # input subsystems listed against mode order: run keeps each accepted
    # history's final modes in ascending injection order, before any phase,
    # and counts inversions in that order
    c = Circuit(
        num_modes=4,
        input_subsystems=((3, 4), (1, 2)),
        injections=(3, 1),
        input_stage=(hadamard_gate(3, 4), hadamard_gate(1, 2)),
        permutation=permutation_from_one_line([1, 4, 3, 2]),
        output_stage=(),
        output_subsystems=((3, 4), (1, 2)),
        target_pairs=((3, 4), (1, 2)),
    )
    assert abs(run(c, FERMION).accepted.amplitude([2, 4]) + 0.5) <= TOL
    histories = run(c, stat).histories
    assert [(finals, species) for finals, species, _ in histories] == [((1, 3), None), ((4, 2), None)]
    assert all(abs(amp - 0.5) <= TOL for _, _, amp in histories)
    check_against_oracle(c)
