import cmath

import numpy as np
import pytest

from notouch.circuit import Permute
from notouch.engine import apply_gate
from notouch.errors import DuplicateMode
from notouch.fock import (
    BOSON,
    FERMION,
    FockState,
    Statistics,
    anyon,
    canonicalize,
    count_inversions,
    norm,
)
from notouch.paths import _canonical


def test_canonicalize_fermion_single_swap():
    modes, phase = canonicalize([3, 1], FERMION)
    assert modes == (1, 3)
    assert phase == -1


def test_canonicalize_sorted_is_identity():
    modes, phase = canonicalize([1, 3, 5], BOSON)
    assert modes == (1, 3, 5)
    assert phase == 1
    for stat in (BOSON, FERMION, anyon(1.23)):
        _, p = canonicalize([2, 4, 6], stat)
        assert p == 1


def test_canonicalize_anyon_two_inversions():
    theta = 0.7
    modes, phase = canonicalize([4, 6, 2], anyon(theta))
    assert modes == (2, 4, 6)
    assert abs(phase - cmath.exp(2j * theta)) < 1e-12


def test_canonicalize_rejects_duplicates():
    with pytest.raises(DuplicateMode):
        canonicalize([2, 2], BOSON)


@pytest.mark.parametrize("stat", [BOSON, FERMION, anyon(0.7), anyon(-2.1)])
def test_phase_is_unimodular(stat):
    rng = np.random.default_rng(11)
    for _ in range(50):
        seq = rng.permutation(np.arange(1, 8))[: rng.integers(2, 7)]
        _, phase = canonicalize(list(seq), stat)
        assert abs(abs(phase) - 1.0) < 1e-12


def test_phase_composition_matches_adjacent_swaps():
    # sorting by adjacent transpositions multiplies one exchange phase per swap
    rng = np.random.default_rng(5)
    for stat in (BOSON, FERMION, anyon(0.9)):
        for _ in range(30):
            seq = list(rng.permutation(np.arange(1, 7)))
            _, phase = canonicalize(seq, stat)
            work = list(seq)
            stepwise = 1.0 + 0.0j
            changed = True
            while changed:
                changed = False
                for i in range(len(work) - 1):
                    if work[i] > work[i + 1]:
                        work[i], work[i + 1] = work[i + 1], work[i]
                        stepwise *= stat.reorder_phase(1)
                        changed = True
            assert abs(phase - stepwise) < 1e-12


def test_anyon_inversion_count_accumulates():
    # two successive reorderings accumulate theta * (inv1 + inv2)
    theta = 0.31
    stat = anyon(theta)
    first = [3, 1, 2]
    inv1 = count_inversions(first)
    _, p1 = canonicalize(first, stat)
    second = [2, 3, 1]
    inv2 = count_inversions(second)
    _, p2 = canonicalize(second, stat)
    assert abs(p1 * p2 - cmath.exp(1j * theta * (inv1 + inv2))) < 1e-12


def test_count_inversions_matches_the_double_loop():
    def double_loop(seq):
        inv = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] > seq[j]:
                    inv += 1
        return inv

    rng = np.random.default_rng(17)
    for length in range(13):
        for _ in range(20):
            seq = [int(m) for m in rng.permutation(np.arange(1, 2 * length + 1))[:length]]
            assert count_inversions(seq) == double_loop(seq)


def test_anyon_limits_match_boson_and_fermion():
    for seq in ([2, 1], [3, 2, 1], [1, 4, 2, 3]):
        _, pb = canonicalize(seq, BOSON)
        _, p0 = canonicalize(seq, anyon(0.0))
        assert abs(pb - p0) < 1e-12
        _, pf = canonicalize(seq, FERMION)
        _, ppi = canonicalize(seq, anyon(np.pi))
        assert abs(pf - ppi) < 1e-12


def test_statistics_parse_round_trip():
    assert Statistics.parse("boson") is BOSON
    assert Statistics.parse("fermion") is FERMION
    a = Statistics.parse("anyon:0.7")
    assert a.kind == "anyon" and a.theta == 0.7
    assert str(a) == "anyon:0.7"
    with pytest.raises(ValueError):
        Statistics.parse("anyon:zero")
    with pytest.raises(ValueError):
        Statistics.parse("classical")


@pytest.mark.parametrize("theta", [1j, "0.7", None, float("nan"), float("-inf")])
def test_anyon_angle_must_be_a_finite_real(theta):
    with pytest.raises(ValueError, match="finite real"):
        Statistics("anyon", theta)
    assert Statistics("anyon", np.float64(0.7)).reorder_phase(1) == cmath.exp(0.7j)
    assert abs(Statistics("anyon", 2).reorder_phase(1)) == 1


@pytest.mark.parametrize("theta", [0.5, -1e-300, float("nan"), float("inf"), "0"])
@pytest.mark.parametrize("kind", ["boson", "fermion"])
def test_boson_and_fermion_take_no_exchange_angle(kind, theta):
    with pytest.raises(ValueError, match=f"{kind} statistics take no exchange angle"):
        Statistics(kind, theta)
    assert Statistics("boson") == Statistics("boson", 0) == Statistics.parse("boson") == BOSON
    assert Statistics("fermion", 0.0) == Statistics.parse("fermion") == FERMION


def test_labelled_terms_are_orthogonal():
    ab = FockState(4, {((1, 3), (1, 2)): 1.0})
    assert ab.amplitude([1, 3], [1, 2]) == 1
    assert ab.amplitude([1, 3], [2, 1]) == 0
    both = FockState(4, {((1, 3), (1, 2)): 1.0, ((1, 3), (2, 1)): 0.5})
    assert both.num_terms == 2
    assert both.amplitude([1, 3], [2, 1]) == 0.5


def test_norm_of_single_term():
    assert norm(FockState.single(3, [2])) == 1.0


def test_state_prunes_tiny_amplitudes():
    s = FockState(2, {((1,), None): 1e-13, ((2,), None): 0.5})
    assert s.amplitude([1]) == 0
    assert s.amplitude([2]) == 0.5
    assert s.num_terms == 1


def test_repr_shows_labels_and_escaped_weight():
    labelled = FockState(4, {((1, 3), (2, 1)): 0.5j, ((1, 3), (1, 2)): 1.0})
    assert repr(labelled) == "FockState(4 modes, {(1, 3)/(1, 2): 1+0j, (1, 3)/(2, 1): 0+0.5j})"
    escaped = FockState(2, {((2,), None): -0.6}, escaped=0.64)
    assert repr(escaped) == "FockState(2 modes, {(2,): -0.6+0j}, escaped=0.64)"


def test_state_rejects_bad_terms():
    with pytest.raises(DuplicateMode):
        FockState(3, {((2, 2), None): 1.0})
    with pytest.raises(DuplicateMode):
        FockState(3, {((3, 1), None): 1.0})
    with pytest.raises(ValueError):
        FockState(3, {((4,), None): 1.0})


def test_canonicalize_labeled_keeps_labels_aligned():
    (modes, species), phase = _canonical([4, 1, 3], [7, 8, 9], FERMION)
    assert modes == (1, 3, 4)
    assert species == (8, 9, 7)
    assert phase == 1
    labelled = FockState(3, {((1, 2), (1, 2)): 1.0})
    with pytest.raises(DuplicateMode):  # a hand-built Permute that is not a bijection
        apply_gate(labelled, Permute((2, 2, 3)), None)
