"""The depth-first history walk against the product walk it replaced.

``product_walk`` enumerates every history with ``itertools.product`` over
each particle's branches and multiplies the matrix elements with
``math.prod``; ``reference_run`` and ``reference_verify`` fold it the way
``run`` and ``verify_no_touching`` did before the walk kept its bookkeeping
per prefix: a sort and an inversion count per history, and the acceptance
test on every history's final modes.  ``reference_history`` builds each
history's boundaries and phase without the library's walk.  The library
must give ``==`` results in the same order.
"""

import gc
import itertools
import math

import numpy as np
import pytest
from test_differential import acceptance_rule, dense_circuit, paired_circuit, random_circuit

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
from notouch.engine import RunOutput, run, run_distinguishable
from notouch.errors import DuplicateMode
from notouch.fock import BOSON, FERMION, FockState, anyon, canonicalize, norm
from notouch.paths import (
    PathHistory,
    TouchReport,
    _branches,
    _canonical,
    _injection_labels,
    _particle_paths,
    _rails,
    _touch_events,
    _walk,
    enumerate_histories,
    verify_no_touching,
)



def one_particle_two_pairs():
    """One particle split over rails (1, 2); target pair (3, 4) stays empty."""
    return Circuit(
        num_modes=4,
        input_subsystems=((1, 2),),
        injections=(1,),
        input_stage=(hadamard_gate(1, 2),),
        permutation=permutation_from_one_line([1, 2, 3, 4]),
        output_stage=(),
        output_subsystems=((1, 2), (3, 4)),
        target_pairs=((1, 2), (3, 4)),
    )


def no_particle_one_pair():
    """No particle at all, and one target pair to fill."""
    return Circuit(
        num_modes=2,
        input_subsystems=(),
        injections=(),
        input_stage=(),
        permutation=permutation_from_one_line([1, 2]),
        output_stage=(),
        output_subsystems=((1, 2),),
        target_pairs=((1, 2),),
    )


STATS = (BOSON, FERMION, anyon(0.7), anyon(2.1))
EMPTY_PAIR_BUILDS = (one_particle_two_pairs, no_particle_one_pair)
CIRCUITS = (
    [pytest.param(lambda build=build: build(), id=build.__name__)
     for build in (bell_circuit, ghz_circuit, w_circuit, hom_circuit, *EMPTY_PAIR_BUILDS)]
    + [pytest.param(lambda n=n: _ghz_ring(n), id=f"ring{n}") for n in range(2, 11)]
    + [pytest.param(lambda k=k: dense_circuit(k, np.random.default_rng(3000 + k)), id=f"dense{k}")
       for k in (2, 3)]
    + [pytest.param(lambda s=s: random_circuit(np.random.default_rng(1000 + s)), id=f"random{s}")
       for s in range(24)]
    + [pytest.param(lambda s=s: paired_circuit(np.random.default_rng(2000 + s)), id=f"paired{s}")
       for s in range(24)]
)


def product_walk(c):
    """Every history as ``(boundaries, finals, amplitude)``, particles in
    ascending injection mode, in ``itertools.product`` order."""
    per_particle = []
    for injected in sorted(c.injections):
        paths = []
        for after_input, amp_in in _branches(injected, c.input_stage):
            after_perm = c.permutation.apply(after_input)
            for dest, amp_out in _branches(after_perm, c.output_stage):
                paths.append(((injected, after_input, after_perm, dest), amp_in * amp_out))
        per_particle.append(paths)
    return zip(
        itertools.product(*[[modes for modes, _ in paths] for paths in per_particle]),
        itertools.product(*[[modes[3] for modes, _ in paths] for paths in per_particle]),
        map(math.prod, itertools.product(*[[amp for _, amp in paths] for paths in per_particle])),
    )


def reference_run(c, statistics):
    accept = acceptance_rule(c.target_pairs)
    species = _injection_labels(c) if statistics is None else None
    terms, kept, histories = {}, {}, []
    for _, finals, amplitude in product_walk(c):
        if len(set(finals)) != len(finals):
            continue
        key, phase = _canonical(finals, species, statistics)
        term = amplitude * phase
        terms[key] = terms.get(key, 0.0 + 0.0j) + term
        if accept(finals):
            kept[key] = kept.get(key, 0.0 + 0.0j) + term
            histories.append((finals, species, amplitude))
    state = FockState(c.num_modes, terms)
    state.escaped = 1.0 - norm(state) ** 2
    accepted = FockState(c.num_modes, kept)
    probability = sum(abs(amp) ** 2 for _, _, amp in accepted.items())
    return RunOutput(state, accepted, probability, statistics, tuple(histories))


def reference_history(paths, finals, amplitude, statistics):
    """A product-walk history with its boundaries read per step and, when its
    final modes are distinct, the phase of sorting them."""
    if len(set(finals)) == len(finals):
        amplitude *= canonicalize(finals, statistics)[1]
    return PathHistory(tuple(tuple(modes[b] for modes in paths) for b in range(4)), amplitude)


def reference_histories(c, statistics):
    return [reference_history(*history, statistics) for history in product_walk(c)]


def reference_verify(c, statistics, post_select):
    accepted = acceptance_rule(c.target_pairs)
    events, total, checked = [], 0, 0
    for paths, finals, amplitude in product_walk(c):
        total += 1
        if amplitude == 0 or (post_select and not accepted(finals)):
            continue
        checked += 1
        events.extend(_touch_events(reference_history(paths, finals, amplitude, statistics), c))
    return TouchReport(not events, tuple(events), total, checked)


def _fields(out):
    return (
        list(out.pre_selection.items()),
        out.pre_selection.escaped,
        list(out.accepted.items()),
        out.probability,
        out.histories,
    )


def _run(c, stat):
    return run_distinguishable(c) if stat is None else run(c, stat)


@pytest.mark.parametrize("make", CIRCUITS)
def test_runs_equal_the_product_walk(make):
    c = make()
    for stat in (*STATS, None):
        assert _fields(_run(c, stat)) == _fields(reference_run(c, stat)), stat


def test_the_run_oracle_is_not_vacuous():
    # hom's two particles always share its one pair, the two circuits with
    # fewer particles than pairs leave a pair empty, and random_circuit
    # accepts nothing on 15 of its 24 seeds; every other case accepts
    accepting = [
        param.id
        for param in CIRCUITS
        for stat in (*STATS, None)
        if _run(param.values[0](), stat).accepted.num_terms
    ]
    assert len(accepting) == 5 * (len(CIRCUITS) - 18) == 235


@pytest.mark.parametrize("build", EMPTY_PAIR_BUILDS)
def test_a_pair_left_empty_is_rejected(build):
    # every history leaves a target pair empty, so post-selection accepts
    # none of them and the verifier checks none
    c = build()
    for stat in (*STATS, None):
        out = _run(c, stat)
        assert (out.accepted.num_terms, out.probability, out.histories) == (0, 0, ())
    report = verify_no_touching(c, BOSON)
    assert (report.histories_total, report.histories_checked) == (2 if c.injections else 1, 0)
    everything = verify_no_touching(c, BOSON, post_select=False)
    assert everything.histories_checked == report.histories_total


@pytest.mark.parametrize("make", CIRCUITS)
def test_verifier_equals_the_product_walk(make):
    c = make()
    for stat in STATS:
        for post_select in (True, False):
            report = verify_no_touching(c, stat, post_select=post_select)
            assert report == reference_verify(c, stat, post_select), (stat, post_select)


def test_the_cut_walk_expands_only_accepted_prefixes():
    # on the ring, a prefix survives the cut while its particles stay on
    # their own pair and then move on to the next one: d + 1 prefixes of
    # d particles, so n(n + 1)/2 level reads where the full walk makes 2^n - 1
    n = 12
    c = _ghz_ring(n)
    reads = []

    class Levels(list):
        def __getitem__(self, depth):
            reads.append(depth)
            return super().__getitem__(depth)

    rail_of = _rails(c.target_pairs)
    levels = Levels(list(_particle_paths(c, mode, rail_of)) for mode in sorted(c.injections))
    assert len(list(_walk(levels, n, True))) == 2
    assert len(reads) == n * (n + 1) // 2
    reads.clear()
    assert len(list(_walk(levels, n, False))) == 2**n
    assert len(reads) == 2**n - 1


def test_a_run_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for c in (_ghz_ring(8), bell_circuit()):
            results = [run(c, BOSON), run_distinguishable(c), verify_no_touching(c, BOSON)]
            del results
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("make", CIRCUITS)
def test_enumerated_histories_equal_the_product_walk(make):
    c = make()
    for stat in STATS:
        got = [(h.particle_modes, h.amplitude) for h in enumerate_histories(c, stat)]
        want = [(h.particle_modes, h.amplitude) for h in reference_histories(c, stat)]
        assert got == want, stat


def test_the_history_oracle_covers_colliding_histories():
    # the W layout's final splitter lets two particles end in one mode; such
    # a history keeps its amplitude without an exchange phase
    histories = enumerate_histories(w_circuit(), FERMION)
    colliding = [h for h in histories if len(set(h.final_modes)) < len(h.final_modes)]
    assert 0 < len(colliding) < len(histories)


@pytest.mark.parametrize("make", CIRCUITS)
def test_run_states_equal_their_validated_rebuild(make):
    # run builds its states without the public constructor's checks; the
    # validating constructor must accept every term and keep their order
    c = make()
    for stat in (*STATS, None):
        out = _run(c, stat)
        for state in (out.pre_selection, out.accepted):
            terms = {(modes, species): amp for modes, species, amp in state.items()}
            rebuilt = FockState(state.num_modes, terms)
            assert list(rebuilt.items()) == list(state.items()), stat


def test_the_public_constructor_still_rejects_an_unsorted_key():
    with pytest.raises(DuplicateMode):
        FockState(4, {((3, 1), None): 1.0})
