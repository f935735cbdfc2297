"""Circuit execution on single-occupancy Fock states.

The pipeline follows the staged circuit layout: inject one particle per
input subsystem, apply the input-stage local unitaries, relabel modes by the
permutation, apply the output-stage local unitaries, then post-select on one
particle per target rail pair.

``run`` and ``run_distinguishable`` fold the path histories of ``paths`` in
one pass: each history whose particles end in distinct modes adds its
amplitude to its canonical final pattern; those post-selection accepts also
fill ``accepted`` and ``RunOutput.histories``, which ``analysis`` folds with
the rail rotations appended.  ``paths._canonical`` pays every phase once from
the raw final modes in ascending injection order.  Histories with two
particles in one mode leave the single-occupancy sector and post-selection
rejects them; their squared weight is the signed ``escaped`` ledger,
``1 - norm(state)**2``.  For fermions the colliding histories cancel exactly,
so it is zero only up to rounding.

``inject``, ``apply_gate`` and ``post_select`` are the gate-level test
reference: each gate expands occupied support modes by their matrix columns,
moves the weight of branches that doubly occupy a mode into ``escaped`` and
re-sorts the rest.  Chained from ``inject`` it reproduces ``run`` for bosons,
fermions and labelled particles, but its per-gate anyon phases depend on the
order of commuting gates, which is why ``run`` does not use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, Gate, Permute
from .errors import PatternMismatch, ZeroState
from .fock import FockState, Statistics, norm
from .paths import _acceptance_rule, _branch_combinations, _canonical, _require_valid
from .paths import _injection_labels
from .qubits import QubitState

Pair = Tuple[int, int]
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
    _require_valid(c)
    return FockState.single(c.num_modes, sorted(c.injections))


def apply_gate(
    state: FockState, gate: Gate, statistics: Optional[Statistics]
) -> FockState:
    """Apply one gate, preserving total mass (stored norm plus escaped).

    Branches that would doubly occupy a mode leave the single-occupancy
    sector: their weight moves into the ``escaped`` ledger (fermionic
    branches of this kind vanish identically).
    """
    if isinstance(gate, Permute):
        out: dict = {}
        for modes, species, amp in state.items():
            raw = [gate.apply(m) for m in modes]
            key, phase = _canonical(raw, species, statistics)
            out[key] = out.get(key, 0.0 + 0.0j) + amp * phase
        return FockState(state.num_modes, out, escaped=state.escaped)

    support = gate.support
    support_set = set(support)
    matrix = gate.matrix
    out = {}
    in_sq = 0.0
    out_sq = 0.0
    for modes, species, amp in state.items():
        in_sq += abs(amp) ** 2
        positions = [i for i, m in enumerate(modes) if m in support_set]
        if not positions:
            key = (modes, species)
            out[key] = out.get(key, 0.0 + 0.0j) + amp
            continue
        col_indices = [support.index(modes[i]) for i in positions]
        for targets in itertools.product(range(len(support)), repeat=len(positions)):
            coeff = amp
            for tgt, src in zip(targets, col_indices):
                coeff = coeff * matrix[tgt, src]
            if coeff == 0:
                continue
            raw = list(modes)
            for pos, tgt in zip(positions, targets):
                raw[pos] = support[tgt]
            if len(set(raw)) != len(raw):
                continue  # leaves the single-occupancy sector: weight escapes
            key, phase = _canonical(raw, species, statistics)
            out[key] = out.get(key, 0.0 + 0.0j) + coeff * phase
    for value in out.values():
        out_sq += abs(value) ** 2
    escaped = state.escaped + max(in_sq - out_sq, 0.0)
    return FockState(state.num_modes, out, escaped=escaped)


def post_select(state: FockState, pairs: Sequence[Pair]) -> Tuple[FockState, float]:
    """Project onto one particle per pair; returns the kept part and its weight.

    The pairs must be disjoint pairs of two distinct modes (``ValueError``
    otherwise).  Kept terms stay in the state's insertion order.
    """
    accepted = _acceptance_rule(pairs)
    kept = {(modes, species): amp for modes, species, amp in state.items() if accepted(modes)}
    return FockState(state.num_modes, kept), sum(abs(amp) ** 2 for amp in kept.values())


def _run(c: Circuit, statistics: Optional[Statistics]) -> RunOutput:
    """Fold the collision-free path histories once: all into the pre-selection
    state, the accepted ones also into ``accepted`` and ``histories``.  With
    ``statistics`` of ``None`` the particles carry ``_injection_labels``."""
    combinations = _branch_combinations(c)  # validates c before the rule
    accept = _acceptance_rule(c.target_pairs)
    species = _injection_labels(c) if statistics is None else None
    terms: dict = {}
    kept: dict = {}
    histories = []
    for paths, amplitude in combinations:
        finals = [modes[3] for modes in paths]
        if len(set(finals)) != len(finals):
            continue
        key, phase = _canonical(finals, species, statistics)
        term = amplitude * phase
        terms[key] = terms.get(key, 0.0 + 0.0j) + term
        if accept(finals):
            kept[key] = kept.get(key, 0.0 + 0.0j) + term
            histories.append((tuple(finals), species, amplitude))
    state = FockState(c.num_modes, terms)
    state.escaped = 1.0 - norm(state) ** 2
    accepted = FockState(c.num_modes, kept)
    probability = sum(abs(amp) ** 2 for _, _, amp in accepted.items())
    return RunOutput(state, accepted, probability, statistics, tuple(histories))


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


def extract_dual_rail(accepted: FockState, pairs: Sequence[Pair]) -> QubitState:
    """Read the dual-rail qubit register out of a post-selected state.

    The particle in pair ``k`` sitting on the pair's first mode encodes bit
    0, on the second mode bit 1; amplitudes are taken from the canonical
    ascending-mode form, so all exchange phases are already folded in.
    """
    if accepted.is_empty():
        raise ZeroState("no accepted terms to extract a qubit state from")
    fits = _acceptance_rule(pairs)
    k = len(pairs)
    vec = np.zeros(2**k, dtype=complex)
    for modes, species, amp in accepted.items():
        if species is not None:
            raise PatternMismatch(
                "labelled (distinguishable) terms do not form a coherent qubit state"
            )
        if not fits(modes):
            raise PatternMismatch(f"term {modes} does not match the rail pairs {pairs}")
        idx = 0
        for pair in pairs:
            idx = (idx << 1) | (0 if pair[0] in modes else 1)
        vec[idx] += amp
    total = np.linalg.norm(vec)
    if total == 0.0:
        raise ZeroState("accepted terms cancel to the zero vector")
    return QubitState(k, vec / total)


def computational_distribution(out: RunOutput, pairs: Sequence[Pair]) -> dict:
    """Probabilities of the rail-detection bit patterns, labels ignored.

    This is what ideal detectors on the rails record; it coincides for
    indistinguishable and distinguishable runs of the same circuit.
    """
    if out.probability <= 0:
        return {}
    dist: dict = {}
    for modes, _species, amp in out.accepted.items():
        bits = tuple(0 if pair[0] in modes else 1 for pair in pairs)
        dist[bits] = dist.get(bits, 0.0) + abs(amp) ** 2 / out.probability
    return dist
