"""Circuit execution on single-occupancy Fock states.

The pipeline follows the staged circuit layout: inject one particle per
input subsystem, apply the input-stage local unitaries, relabel modes by the
permutation, apply the output-stage local unitaries, then post-select on one
particle per target rail pair, as ``paths._occupants`` reads them.

``run`` and ``run_distinguishable`` fold the depth-first history walk of
``paths`` with one rule, ``_fold``: each history whose final modes are
distinct adds its amplitude to its canonical final pattern.  The full walk
builds only ``pre_selection``; ``accepted`` and ``RunOutput.histories`` come
from the cut walk, post-selection's one rule, and ``analysis`` folds those
histories with the rail rotations appended.  ``run`` takes each phase from a
table of ``reorder_phase`` over the walk's inversion counts; labelled runs
key histories by ``paths._canonical``.  Histories with two particles in one
mode leave the single-occupancy sector; their squared weight is the signed
``escaped`` ledger, ``1 - norm(state)**2``.  For fermions the colliding
histories cancel exactly, so it is zero only up to rounding.

``inject``, ``apply_gate`` and ``post_select`` are the gate-level test
reference, not exported by the package: a gate gives each particle its
(destination, amplitude) branches, one for a permutation and the support
column for a local unitary, and each term expands into their product over the
particles, moving the weight of branches that doubly occupy a mode into
``escaped`` and re-sorting the rest.  Chained from ``inject`` it reproduces
``run`` for bosons, fermions and labelled particles, but its per-gate anyon
phases depend on the order of commuting gates, so ``run`` does not use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .circuit import Circuit, Gate, Permute
from .errors import DuplicateMode, PatternMismatch, ZeroState
from .fock import FockState, Statistics, norm
from .paths import (
    Pair, _branch_combinations, _branches, _canonical, _injection_labels, _occupants, _rails
)
from .qubits import QubitState

History = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]], complex]


@dataclass(frozen=True)
class RunOutput:
    """Result of executing a circuit.

    ``pre_selection`` is the full evolved state before post-selection (its
    ``escaped`` attribute holds any squared weight that left the
    single-occupancy sector).  ``accepted`` is the unnormalized projection
    onto the one-particle-per-pair patterns and ``probability`` its squared
    norm.  ``statistics`` records how the run reordered operators; it is
    ``None`` for distinguishable-particle runs.  ``histories`` holds every
    accepted path history as (final modes in ascending injection order,
    labels or ``None``, amplitude before the statistics phase).
    """

    pre_selection: FockState
    accepted: FockState
    probability: float
    statistics: Optional[Statistics]
    histories: Tuple[History, ...]


def inject(c: Circuit) -> FockState:
    """Initial state: one particle in each subsystem's injection mode."""
    return FockState.single(c.num_modes, sorted(c.injections))


def apply_gate(
    state: FockState, gate: Gate, statistics: Optional[Statistics]
) -> FockState:
    """Apply one gate, preserving total mass (stored norm plus escaped).

    Each particle takes every (destination, amplitude) branch the gate gives
    it: a ``Permute`` moves it, a ``LocalUnitary`` expands it by its support
    column (``paths._branches``), and a particle off the support stays with
    amplitude 1.  Branches that would doubly occupy a mode leave the
    single-occupancy sector: ``escaped`` moves by the signed change in stored
    mass (fermionic branches of this kind vanish identically).  A ``Permute``
    that is not a bijection raises ``DuplicateMode``.
    """
    if isinstance(gate, Permute) and not gate.is_bijection():
        raise DuplicateMode(f"permutation {gate.one_line} sends two modes to one")

    def moves(mode: int):
        if isinstance(gate, Permute):
            return [(gate.apply(mode), 1.0 + 0.0j)]
        return _branches(mode, (gate,))

    out: dict = {}
    in_sq = 0.0
    for modes, species, amp in state.items():
        in_sq += abs(amp) ** 2
        for branch in itertools.product(*map(moves, modes)):
            raw = [dest for dest, _ in branch]
            if len(set(raw)) != len(raw):
                continue  # leaves the single-occupancy sector: weight escapes
            key, phase = _canonical(raw, species, statistics)
            coeff = math.prod((element for _, element in branch), start=amp)
            out[key] = out.get(key, 0.0 + 0.0j) + coeff * phase
    out_sq = sum(abs(value) ** 2 for value in out.values())
    return FockState(state.num_modes, out, escaped=state.escaped + (in_sq - out_sq))


def post_select(state: FockState, pairs: Sequence[Pair]) -> Tuple[FockState, float]:
    """Project onto one particle per pair; returns the kept part and its weight.

    The pairs must be disjoint pairs of two distinct modes (``PatternMismatch``
    otherwise).  Kept terms stay in the state's insertion order.
    """
    rail_of = _rails(pairs)
    kept = {(modes, species): amp for modes, species, amp in state.items()
            if len(modes) == len(pairs) and _occupants(modes, rail_of, len(pairs)) is not None}
    return FockState(state.num_modes, kept), sum(abs(amp) ** 2 for amp in kept.values())


def _fold(walk, species, phases) -> dict:
    """Sum the collision-free histories of ``walk`` per canonical final pattern,
    each times ``phases[inversions]``, or keyed with ``species`` and no phase."""
    terms: dict = {}
    for _, finals, amplitude, inversions in walk:
        if inversions is None:  # two particles in one mode
            continue
        if species is None:
            key, phase = (tuple(sorted(finals)), None), phases[inversions]
        else:
            key, phase = _canonical(finals, species, None)
        terms[key] = terms.get(key, 0.0 + 0.0j) + amplitude * phase
    return terms


def _run(c: Circuit, statistics: Optional[Statistics]) -> RunOutput:
    """Fold the full walk into ``pre_selection`` only and the cut walk's leaves
    into ``accepted`` and ``histories``.  With ``statistics`` of ``None`` the
    particles carry ``_injection_labels``."""
    species = _injection_labels(c) if statistics is None else None
    phases = None  # labelled particles pay none
    if species is None:  # the phase of every inversion count the particles can have
        phases = [statistics.reorder_phase(i) for i in range(math.comb(len(c.injections), 2) + 1)]
    _, walk = _branch_combinations(c)
    state = FockState._from_canonical(c.num_modes, _fold(walk, species, phases))
    state.escaped = 1.0 - norm(state) ** 2
    leaves = list(_branch_combinations(c, accepted_only=True)[1])
    accepted = FockState._from_canonical(c.num_modes, _fold(leaves, species, phases))
    probability = sum(abs(amp) ** 2 for _, _, amp in accepted.items())
    histories = tuple((finals, species, amplitude) for _, finals, amplitude, _ in leaves)
    return RunOutput(state, accepted, probability, statistics, histories)


def run(c: Circuit, statistics: Statistics) -> RunOutput:
    """Execute the full pipeline for indistinguishable particles."""
    return _run(c, statistics)


def run_distinguishable(c: Circuit) -> RunOutput:
    """Execute the pipeline with a distinct label on every particle.

    Terms whose particles land in the same modes but with different label
    assignments stay orthogonal, so no exchange interference occurs; the
    output carries only classical correlations.
    """
    return _run(c, None)


def _register(state: FockState, pairs: Sequence[Pair]):
    """Each term as ``(bits, labels, amplitude)``, bit k the rail of pair k's one
    particle; ``PatternMismatch`` for malformed pairs or a term that misses them."""
    rail_of = _rails(pairs)
    for modes, labels, amp in state.items():
        found = _occupants(modes, rail_of, len(pairs)) if len(modes) == len(pairs) else None
        if found is None:
            raise PatternMismatch(f"term {modes} does not match the rail pairs {pairs}")
        yield tuple([rail for _, rail in found]), labels, amp


def extract_dual_rail(accepted: FockState, pairs: Sequence[Pair]) -> QubitState:
    """Read the dual-rail qubit register out of a post-selected state.

    The particle in pair ``k`` sitting on the pair's first mode encodes bit
    0, on the second mode bit 1; amplitudes are read from the canonical
    ascending-mode form.  Local rail rotations (``analysis.correlation``) see
    this register for bosons, and for every statistics when no pair's interval
    holds another target mode, but not otherwise under fermions or anyons.  A
    labelled term, or a pair or term off the layout, raises ``PatternMismatch``;
    a register that is empty or cancels to zero raises ``ZeroState``.
    """
    sums: dict = {}  # register index, qubit 1 the most significant bit -> amplitude
    for bits, labels, amp in _register(accepted, pairs):
        if labels is not None:
            raise PatternMismatch(
                "labelled (distinguishable) terms do not form a coherent qubit state"
            )
        index = 0
        for bit in bits:
            index = 2 * index + bit
        sums[index] = sums.get(index, 0.0 + 0.0j) + amp
    total = math.sqrt(sum(abs(z) ** 2 for z in sums.values()))
    if total == 0.0:
        raise ZeroState("accepted terms sum to the zero vector")
    vec = [0j] * 2 ** len(pairs)
    for index, amp in sums.items():
        vec[index] = amp * (1.0 / total)
    return QubitState._from_values(len(pairs), tuple(vec))


def computational_distribution(out: RunOutput, pairs: Sequence[Pair]) -> dict:
    """Probabilities of the rail-detection bit patterns, labels ignored.

    This is what ideal detectors on the rails record.  A distinguishable run
    gives the same as an indistinguishable one only when one assignment of
    particles to final modes reaches each accepted pattern.  A term without
    one particle per pair raises ``PatternMismatch``.
    """
    dist: dict = {}
    for bits, _labels, amp in _register(out.accepted, pairs):
        dist[bits] = dist.get(bits, 0.0) + abs(amp) ** 2 / out.probability
    return dist
