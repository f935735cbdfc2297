"""Classical path histories and the no-touching verifier.

A path history assigns every particle a definite mode at each stage
boundary: after injection, after the input stage, after the permutation and
after the output stage.  One rule, ``_branches``, moves a particle in both
stages: in a gate's support it branches once per support mode, with the
matrix element as amplitude; elsewhere it stays.  Each history streams as
the record ``(boundaries, finals, amplitude)``, its final modes ready to use.

Particles are ordered by ascending injection mode, the creation-operator
order of the injected state.  A history's amplitude is the product of the
traversed matrix elements times the statistics phase ``reorder_phase(k)``,
where ``k`` counts the inversions of the final modes in that particle order;
the phase is applied once per history, when the final operator product is
put in canonical (ascending-mode) order.  ``_canonical`` is the package's
only phase rule: ``engine.run`` folds these histories through it in one pass
and keeps the accepted ones, and the correlation evaluator folds those with
the rail rotations appended.

Two particles "touch" when they share a mode or sit inside one gate.  A
valid circuit keeps each particle alone in its input subsystem and permutes
by a bijection, so particles can meet only in the output stage, which is
what the verifier checks in every history behind a post-selected outcome
(in every history without post-selection).  With post-selection a valid
circuit cannot fail: each output gate lies in one output subsystem holding
one target pair, so two particles meeting there leave a pair with two or a
particle outside every pair.  The verifier still checks every such history.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .circuit import Circuit, LocalUnitary
from .errors import PatternMismatch, TooManyHistories
from .fock import Statistics, canonicalize

DEFAULT_HISTORY_LIMIT = 10**6

Pair = Tuple[int, int]
Boundaries = Tuple[int, int, int, int]


@dataclass(frozen=True)
class PathHistory:
    """Modes of every particle at each stage boundary, with amplitude.

    ``particle_modes[b][p]`` is the mode of particle ``p`` after step ``b``:
    0 injection, 1 input stage, 2 permutation, 3 output stage.
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


def _acceptance_rule(pairs: Sequence[Pair]) -> Callable[[Iterable[int]], bool]:
    """Post-selection test: one particle in each pair and none outside them
    (a repeated mode counts twice).  ``PatternMismatch`` unless the pairs are
    disjoint pairs of two distinct modes."""
    bit_of: dict = {}
    for index, pair in enumerate(pairs):
        if len(pair) != 2 or pair[0] == pair[1] or pair[0] in bit_of or pair[1] in bit_of:
            raise PatternMismatch("target pairs must be disjoint pairs of two distinct modes")
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
        ordered = sorted(zip(raw_modes, species))
        return (tuple(m for m, _ in ordered), tuple(s for _, s in ordered)), 1.0 + 0.0j
    if statistics is None:
        raise ValueError("statistics required for unlabelled terms")
    modes, phase = canonicalize(raw_modes, statistics)
    return (modes, None), phase


def _branches(mode: int, gates: Sequence[LocalUnitary]) -> List[Tuple[int, complex]]:
    """Destination and matrix element of each branch of a particle entering
    ``mode``: one per support mode of the gate that holds it, else stay."""
    for gate in gates:
        if mode in gate.support:
            src = gate.support.index(mode)
            return [(dest, gate.rows[i][src]) for i, dest in enumerate(gate.support)]
    return [(mode, 1.0 + 0.0j)]


def _particle_paths(c: Circuit, injected: int) -> Iterator[Tuple[Boundaries, complex]]:
    """All branch choices for one particle: boundary modes and amplitude."""
    for after_input, amp_in in _branches(injected, c.input_stage):
        after_perm = c.permutation.apply(after_input)
        for dest, amp_out in _branches(after_perm, c.output_stage):
            yield (injected, after_input, after_perm, dest), amp_in * amp_out


def _branch_combinations(
    c: Circuit, max_histories: Optional[int] = None
) -> Iterator[Tuple[Tuple[Boundaries, ...], Tuple[int, ...], complex]]:
    """Stream every history as ``(boundaries, finals, amplitude)``, particles
    in ascending injection mode: the product of each particle's boundary
    modes, final modes and matrix elements, three lists built once per circuit.

    ``max_histories`` is enforced up front; ``c`` was validated when built.
    """
    per_particle = [list(_particle_paths(c, mode)) for mode in sorted(c.injections)]
    if max_histories is not None:
        total = math.prod(len(paths) for paths in per_particle)
        if total > max_histories:
            raise TooManyHistories(
                f"{total} histories exceed the enumeration limit of {max_histories}"
            )
    boundaries = [[modes for modes, _ in paths] for paths in per_particle]
    finals = [[modes[3] for modes, _ in paths] for paths in per_particle]
    amplitudes = [[amp for _, amp in paths] for paths in per_particle]
    return zip(
        itertools.product(*boundaries),
        itertools.product(*finals),
        map(math.prod, itertools.product(*amplitudes)),
    )


def _history(paths, finals, amplitude: complex, statistics: Statistics) -> PathHistory:
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
    return [_history(*record, statistics) for record in _branch_combinations(c, max_histories)]


def _touch_events(history: PathHistory, c: Circuit) -> List[TouchEvent]:
    """Each final mode two particles share, then each output gate two enter."""
    entering, finals = history.particle_modes[2], history.particle_modes[3]
    shared = sorted({m for m in finals if finals.count(m) > 1})
    events = [TouchEvent("output", f"mode {m}", history) for m in shared]
    for gate in c.output_stage:
        if sum(m in gate.support for m in entering) > 1:
            events.append(TouchEvent("output", f"gate on modes {gate.support}", history))
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
    (or every such history when ``post_select`` is false) for two particles
    in one final mode or one output gate, the only places they can meet.  A
    valid circuit always passes with post-selection (see the module doc).
    """
    accepted = _acceptance_rule(c.target_pairs)
    counterexamples: List[TouchEvent] = []
    total = checked = 0
    for paths, finals, amplitude in _branch_combinations(c, max_histories):
        total += 1
        if abs(amplitude) <= amplitude_tolerance:
            continue
        if post_select and not accepted(finals):
            continue
        checked += 1
        counterexamples.extend(_touch_events(_history(paths, finals, amplitude, statistics), c))
    return TouchReport(
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
        histories_total=total,
        histories_checked=checked,
    )
