"""Classical path histories and the no-touching verifier.

A path history assigns every particle a definite mode at each stage
boundary: after injection, after the input stage, after the permutation and
after the output stage.  A particle changes mode only inside a gate whose
support contains it, branching once per support mode with the corresponding
matrix element as amplitude.

Particles are ordered by ascending injection mode, the creation-operator
order of the injected state.  A history's amplitude is the product of the
traversed matrix elements times the statistics phase ``reorder_phase(k)``,
where ``k`` counts the inversions of the final modes in that particle order;
the phase is applied once per history, when the final operator product is
put in canonical (ascending-mode) order.  ``_canonical`` is the package's
only phase rule: ``engine.run`` folds these histories through it in one pass
and keeps the accepted ones, and the correlation evaluator folds those with
the rail rotations appended.

Two particles "touch" when they share a mode at a stage boundary or sit
inside the same gate's support during a stage.  The verifier certifies that
no history contributing to a post-selected outcome ever touches; dropping
post-selection exposes the touching branches that the accepted events never
contain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .circuit import Circuit, LocalUnitary, validate_circuit
from .errors import InvalidCircuit, TooManyHistories
from .fock import Statistics, canonicalize, canonicalize_labeled

STAGE_BOUNDARIES = ("injection", "input", "permutation", "output")

DEFAULT_HISTORY_LIMIT = 10**6

Pair = Tuple[int, int]
Boundaries = Tuple[int, int, int, int]


@dataclass(frozen=True)
class PathHistory:
    """Modes of every particle at each stage boundary, with amplitude.

    ``particle_modes[b][p]`` is the mode of particle ``p`` at boundary ``b``
    (boundaries ordered as in ``STAGE_BOUNDARIES``).
    """

    particle_modes: Tuple[Tuple[int, ...], ...]
    amplitude: complex

    @property
    def final_modes(self) -> Tuple[int, ...]:
        return self.particle_modes[-1]


@dataclass(frozen=True)
class TouchEvent:
    """A point where two particles co-locate in a history."""

    stage: str
    location: str
    history: PathHistory


@dataclass(frozen=True)
class TouchReport:
    passed: bool
    counterexamples: Tuple[TouchEvent, ...]
    histories_total: int
    histories_checked: int

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _require_valid(c: Circuit) -> None:
    report = validate_circuit(c)
    if not report.ok:
        raise InvalidCircuit("; ".join(report.violations))


def _acceptance_rule(pairs: Sequence[Pair]) -> Callable[[Iterable[int]], bool]:
    """Post-selection test: one particle in each pair and none outside them
    (a repeated mode counts twice).  ``ValueError`` unless the pairs are
    disjoint pairs of two distinct modes."""
    bit_of: dict = {}
    for index, pair in enumerate(pairs):
        if len(pair) != 2 or pair[0] == pair[1] or not bit_of.keys().isdisjoint(pair):
            raise ValueError("target pairs must be disjoint pairs of two distinct modes")
        bit_of[pair[0]] = bit_of[pair[1]] = 1 << index
    full = (1 << len(pairs)) - 1

    def accepted(modes: Iterable[int]) -> bool:
        filled = 0
        for mode in modes:  # every particle must land in a pair that is still empty
            bit = bit_of.get(mode, 0)
            if not bit or filled & bit:
                return False
            filled |= bit
        return filled == full

    return accepted


def _injection_labels(c: Circuit) -> Tuple[int, ...]:
    """Particle labels in ascending injection order for labelled runs: the
    position of each particle's subsystem in ``c.input_subsystems``."""
    return tuple(k for _, k in sorted(zip(c.injections, itertools.count(1))))


def _canonical(raw_modes, species, statistics: Optional[Statistics]):
    """Canonical key and phase of raw modes in creation-operator order; labels
    (``species`` aligned with ``raw_modes``) travel along and pay no phase."""
    if species is not None:
        return canonicalize_labeled(raw_modes, species), 1.0 + 0.0j
    if statistics is None:
        raise ValueError("statistics required for unlabelled terms")
    modes, phase = canonicalize(raw_modes, statistics)
    return (modes, None), phase


def _stage_gate_for(mode: int, gates: Sequence[LocalUnitary]):
    for gate in gates:
        if mode in gate.support:
            return gate
    return None


def _particle_paths(c: Circuit, injected: int) -> List[Tuple[Boundaries, complex]]:
    """All branch choices for one particle: boundary modes and amplitude."""
    paths = []
    gate_in = _stage_gate_for(injected, c.input_stage)
    if gate_in is None:
        input_branches = [(injected, 1.0 + 0.0j)]
    else:
        src = gate_in.support.index(injected)
        input_branches = [
            (dest, complex(gate_in.matrix[i, src]))
            for i, dest in enumerate(gate_in.support)
        ]
    for after_input, amp_in in input_branches:
        after_perm = c.permutation.apply(after_input)
        gate_out = _stage_gate_for(after_perm, c.output_stage)
        if gate_out is None:
            paths.append(((injected, after_input, after_perm, after_perm), amp_in))
        else:
            src = gate_out.support.index(after_perm)
            for i, dest in enumerate(gate_out.support):
                amp = amp_in * complex(gate_out.matrix[i, src])
                paths.append(((injected, after_input, after_perm, dest), amp))
    return paths


def _branch_combinations(
    c: Circuit, max_histories: Optional[int] = None
) -> Iterator[Tuple[Tuple[Boundaries, ...], complex]]:
    """Stream every history as its particles' boundary modes and the product
    of its matrix elements, particles in ascending injection mode.

    The circuit is validated and ``max_histories`` enforced up front.
    """
    _require_valid(c)
    per_particle = [_particle_paths(c, mode) for mode in sorted(c.injections)]
    if max_histories is not None:
        total = math.prod(len(paths) for paths in per_particle)
        if total > max_histories:
            raise TooManyHistories(
                f"{total} histories exceed the enumeration limit of {max_histories}"
            )
    return (
        (tuple(modes for modes, _ in combo), math.prod(amp for _, amp in combo))
        for combo in itertools.product(*per_particle)
    )


def _history(paths, amplitude: complex, statistics: Statistics) -> PathHistory:
    finals = [modes[3] for modes in paths]
    if len(set(finals)) == len(finals):
        amplitude *= _canonical(finals, None, statistics)[1]
    boundaries = tuple(tuple(modes[b] for modes in paths) for b in range(4))
    return PathHistory(boundaries, amplitude)


def enumerate_histories(
    c: Circuit,
    statistics: Statistics,
    max_histories: int = DEFAULT_HISTORY_LIMIT,
) -> List[PathHistory]:
    """Exhaustive branch assignment for every particle.

    Histories whose particles end in the same mode are retained (their
    amplitude carries no exchange phase, since sorting a collision is not
    defined).  Grouped by sorted final pattern, the collision-free histories
    sum to the terms of ``run(c, statistics).pre_selection``, which folds this
    same walk; the colliding ones either cancel or carry the weight outside
    the single-occupancy sector (``escaped``).
    """
    combinations = _branch_combinations(c, max_histories)
    return [_history(paths, amp, statistics) for paths, amp in combinations]


def _touch_events(history: PathHistory, c: Circuit) -> List[TouchEvent]:
    events = []
    for b, stage in enumerate(STAGE_BOUNDARIES):
        modes = history.particle_modes[b]
        shared = {m for m in modes if modes.count(m) > 1}
        for m in sorted(shared):
            events.append(TouchEvent(stage, f"mode {m}", history))
    for stage, boundary, gates in (
        ("input", 0, c.input_stage),
        ("output", 2, c.output_stage),
    ):
        entering = history.particle_modes[boundary]
        for gate in gates:
            inside = [m for m in entering if m in gate.support]
            if len(inside) > 1:
                events.append(
                    TouchEvent(stage, f"gate on modes {gate.support}", history)
                )
    return events


def verify_no_touching(
    c: Circuit,
    statistics: Statistics,
    post_select: bool = True,
    amplitude_tolerance: float = 1e-12,
    max_histories: int = DEFAULT_HISTORY_LIMIT,
) -> TouchReport:
    """Certify that accepted outcomes involve no touching histories.

    Streams the histories ``run`` sums and checks every one with amplitude
    above ``amplitude_tolerance`` whose final pattern survives post-selection
    (or every such history when ``post_select`` is false) for mode sharing at
    stage boundaries and for two particles inside one gate.
    """
    combinations = _branch_combinations(c, max_histories)  # validates c before the rule
    accepted = _acceptance_rule(c.target_pairs)
    counterexamples: List[TouchEvent] = []
    total = checked = 0
    for paths, amplitude in combinations:
        total += 1
        if abs(amplitude) <= amplitude_tolerance:
            continue
        if post_select and not accepted(modes[3] for modes in paths):
            continue
        checked += 1
        counterexamples.extend(_touch_events(_history(paths, amplitude, statistics), c))
    return TouchReport(
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
        histories_total=total,
        histories_checked=checked,
    )
