"""Classical path histories and the no-touching verifier.

A path history assigns every particle a definite mode at each stage
boundary: after injection, after the input stage, after the permutation and
after the output stage.  One rule, ``_branches``, moves a particle in both
stages: in a gate's support it branches once per support mode, with the
matrix element as amplitude; elsewhere it stays.  ``_walk`` visits the
histories depth-first in ``itertools.product`` order, each prefix linking
its particles' boundary modes as ``(step, parent)`` records; they are
flattened into boundaries only where a ``PathHistory`` is built.

Particles are ordered by ascending injection mode, the creation-operator
order of the injected state.  A history's amplitude is the product of the
traversed matrix elements times the statistics phase ``reorder_phase(k)``,
where ``k`` counts the inversions of the final modes in that particle order,
paid once when the final operator product is put in ascending-mode order.
The walk counts ``k``: ``engine.run`` and ``_history`` read the phase from
it, and ``_canonical`` sorts the raw modes of labelled terms and the
correlation evaluator's rotated accepted histories.

Two particles "touch" when they share a mode or sit inside one gate.  A valid
circuit keeps each particle alone in its input subsystem and permutes by a
bijection, so particles can meet only in the output stage, which the verifier
checks in every nonzero leaf of the full walk or, with post-selection, of the
cut walk.  That walk is post-selection's one rule: it cuts a prefix once a
final mode lands outside every empty target pair (on the n-particle GHZ ring
it visits 2 of the 2^n), and ``engine.run`` takes ``accepted`` and
``histories`` from it, folding the full walk only into ``pre_selection``.
With post-selection a valid circuit cannot fail: each output gate lies in one
output subsystem holding one target pair, where two meeting particles leave a
pair with two or a particle outside every pair.

One reader, ``_rails`` and ``_occupants``, parses the rail-pair layout for the
cut's pair bits, ``post_select``, the dual-rail register and the correlations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .circuit import Circuit, LocalUnitary
from .errors import PatternMismatch, TooManyHistories
from .fock import Statistics, canonicalize

HISTORY_LIMIT = 10**6

Pair = Tuple[int, int]


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


def _rails(pairs: Sequence[Pair]) -> dict:
    """Each target mode's ``(pair index, rail)``, rail 1 on a pair's second mode;
    ``PatternMismatch`` unless the pairs are disjoint pairs of two distinct modes."""
    rail_of: dict = {}
    for index, pair in enumerate(pairs):
        if len(pair) != 2 or pair[0] == pair[1] or pair[0] in rail_of or pair[1] in rail_of:
            raise PatternMismatch("target pairs must be disjoint pairs of two distinct modes")
        rail_of[pair[0]], rail_of[pair[1]] = (index, 0), (index, 1)
    return rail_of


def _occupants(modes: Sequence[int], rail_of: dict, num_pairs: int) -> Optional[list]:
    """Per pair of ``rail_of`` (``_rails``), ``(position in modes, rail)`` of its one
    particle, or ``None`` if a pair holds none or two; other modes are skipped."""
    found: list = [None] * num_pairs
    for position, mode in enumerate(modes):
        if mode in rail_of:
            index, rail = rail_of[mode]
            if found[index] is not None:
                return None
            found[index] = (position, rail)
    return None if None in found else found


def _injection_labels(c: Circuit) -> Tuple[int, ...]:
    """Particle labels in ascending injection order for labelled runs: the
    position of each particle's subsystem in ``c.input_subsystems``."""
    return tuple(k for _, k in sorted(zip(c.injections, itertools.count(1))))


def _canonical(raw_modes, species, statistics: Optional[Statistics]):
    """Canonical key and phase of raw modes in creation-operator order; labels
    (``species`` aligned with ``raw_modes``) travel along and pay no phase."""
    if species is not None:  # no particles still key as ((), ())
        return tuple(zip(*sorted(zip(raw_modes, species)))) or ((), ()), 1.0 + 0.0j
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


def _particle_paths(c: Circuit, injected: int, rail_of: dict) -> Iterator[tuple]:
    """All branch choices for one particle as ``_walk`` records, pair bit last."""
    for after_input, amp_in in _branches(injected, c.input_stage):
        after_perm = c.permutation.apply(after_input)
        for dest, amp_out in _branches(after_perm, c.output_stage):
            modes = (injected, after_input, after_perm, dest)
            pair_bit = 1 << rail_of[dest][0] if dest in rail_of else 0
            yield modes, (dest,), dest, 1 << dest, amp_in * amp_out, pair_bit


def _branch_combinations(c: Circuit, accepted_only: bool = False):
    """The number of histories, the product of branch counts, and their ``_walk``."""
    rail_of = _rails(c.target_pairs)
    levels = [list(_particle_paths(c, mode, rail_of)) for mode in sorted(c.injections)]
    total = math.prod(len(level) for level in levels)
    return total, _walk(levels, len(c.target_pairs), accepted_only)


def _check_limit(count: int, what: str) -> None:
    if count > HISTORY_LIMIT:
        raise TooManyHistories(f"{count} {what} exceed the limit of {HISTORY_LIMIT}")


def _walk(levels, num_pairs: int, accepted_only: bool):
    """Yield ``(path, finals, amplitude, inversions)`` per history in
    ``itertools.product(*levels)`` order, depth-first; a prefix carries its
    path as linked ``(step, parent)`` records, its amplitude (from ``1``, left
    to right as ``math.prod``), occupied modes as a bitmask, inversions
    (``None`` once two particles share a mode) and empty target pairs.
    ``accepted_only`` is post-selection: it cuts a prefix once a final mode
    lands outside every empty target pair and drops a history that leaves a
    pair empty.  ``engine.run`` folds these leaves into ``accepted`` and
    ``histories``, and the full walk only into ``pre_selection``."""
    k = len(levels)
    stack = [(0, (), (), 1, 0, 0, (1 << num_pairs) - 1)]  # children go on last first
    while stack:
        depth, path, finals, amplitude, occupied, inversions, empty = stack.pop()
        if depth == k:
            if not (accepted_only and empty):
                yield path, finals, amplitude, inversions if occupied.bit_count() == k else None
            continue
        for step, final_, final, final_bit, amp, pair_bit in reversed(levels[depth]):
            if accepted_only and not empty & pair_bit:  # outside every empty pair
                continue
            inv = inversions + (occupied >> final).bit_count()
            stack.append((depth + 1, (step, path), finals + final_, amplitude * amp,
                          occupied | final_bit, inv, empty & ~pair_bit))


def _history(path, amplitude: complex, inversions, statistics: Statistics) -> PathHistory:
    """A walk leaf as a ``PathHistory``, paying the phase of ``inversions``
    unless two particles share a final mode (``None``)."""
    steps = []
    while path:
        step, path = path
        steps.append(step)
    if inversions is not None:
        amplitude *= statistics.reorder_phase(inversions)
    return PathHistory(tuple(zip(*steps[::-1])) or ((),) * 4, amplitude)


def enumerate_histories(c: Circuit, statistics: Statistics) -> List[PathHistory]:
    """Every history, in walk order; more than ``HISTORY_LIMIT`` raise
    ``TooManyHistories`` before the walk starts.

    Histories whose particles end in the same mode are retained (their
    amplitude carries no exchange phase, since sorting a collision is not
    defined).  Grouped by sorted final pattern, the collision-free histories
    sum to the terms of ``run(c, statistics).pre_selection``, which folds this
    same walk; the colliding ones either cancel or carry the weight outside
    the single-occupancy sector (``escaped``).
    """
    total, walk = _branch_combinations(c)
    _check_limit(total, "histories")
    return [_history(path, amp, inversions, statistics) for path, _, amp, inversions in walk]


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
    c: Circuit, statistics: Statistics, post_select: bool = True
) -> TouchReport:
    """Certify that accepted outcomes involve no touching histories.

    Checks every history of nonzero amplitude, of the cut walk with
    ``post_select`` (where a valid circuit always passes) or else of the full
    walk, for two particles in one final mode or one output gate, the only
    places they can meet.  ``histories_total`` is the product of the branch
    counts.  ``HISTORY_LIMIT`` bounds it up front without post-selection, and
    the accepted histories visited with it.
    """
    total, walk = _branch_combinations(c, post_select)
    if not post_select:
        _check_limit(total, "histories")
    counterexamples: List[TouchEvent] = []
    checked = 0
    for visited, (path, _, amp, inversions) in enumerate(walk, 1):
        if post_select:
            _check_limit(visited, "accepted histories")
        if amp == 0:  # an exact zero, the only history skipped
            continue
        checked += 1
        counterexamples.extend(_touch_events(_history(path, amp, inversions, statistics), c))
    return TouchReport(not counterexamples, tuple(counterexamples), total, checked)
