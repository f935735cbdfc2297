"""Exact algebra of single-occupancy Fock states.

Conventions used throughout the package:

* Modes (paths) are labelled ``1 .. num_modes``.
* A basis pattern is a strictly increasing tuple of occupied modes; each mode
  holds at most one particle.  Creation-operator products are always reduced
  to this canonical ascending order, and the reduction picks up an exchange
  phase per inversion: ``+1`` for bosons, ``-1`` for fermions and ``e^{i
  theta}`` for abelian anyons.
* States are sparse complex superpositions of patterns.  Amplitudes with
  magnitude below ``PRUNE_TOLERANCE`` are dropped on construction, an absolute
  cutoff that drops real amplitudes from the 80-particle GHZ ring on (2^-40
  each there); ROADMAP.md plans a relative rule.
* Terms may optionally carry particle labels ("species"), one per occupied
  mode, used to model distinguishable particles.  Labelled terms with
  different label assignments are orthogonal and reorder without any phase.

Double occupancy is deliberately not representable here: the supported
circuits keep at most one particle per mode, and this module enforces that
regime instead of extending it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Tuple

from .errors import DimensionMismatch, DuplicateMode

PRUNE_TOLERANCE = 1e-12

Modes = Tuple[int, ...]
Species = Optional[Tuple[int, ...]]
TermKey = Tuple[Modes, Species]


@dataclass(frozen=True)
class Statistics:
    """Particle exchange statistics: boson, fermion or abelian anyon.

    ``theta`` is the anyon exchange angle in radians and must be 0 for the
    other kinds.  An anyon with ``theta = 0`` reorders exactly like a boson
    and with ``theta = pi`` exactly like a fermion (on single-occupancy
    states, the only ones represented here).
    """

    kind: str
    theta: float = 0.0

    _KINDS = ("boson", "fermion", "anyon")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown statistics kind {self.kind!r}")
        finite = isinstance(self.theta, numbers.Real) and math.isfinite(self.theta)
        if self.kind == "anyon" and not finite:
            raise ValueError(f"anyon exchange angle must be a finite real, got {self.theta!r}")
        if self.kind != "anyon" and self.theta != 0:
            raise ValueError(f"{self.kind} statistics take no exchange angle, got {self.theta!r}")

    def reorder_phase(self, inversions: int) -> complex:
        """Phase for a reordering with the given number of inversions."""
        if self.kind == "boson":
            return 1.0 + 0.0j
        if self.kind == "fermion":
            return -1.0 + 0.0j if inversions % 2 else 1.0 + 0.0j
        return cmath.exp(1j * self.theta * inversions)

    @classmethod
    def parse(cls, token: str) -> "Statistics":
        """Parse a CLI-style token: ``boson``, ``fermion`` or ``anyon:<theta>``."""
        if token == "boson":
            return BOSON
        if token == "fermion":
            return FERMION
        if token.startswith("anyon:"):
            try:
                theta = float(token.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"cannot parse anyon angle in {token!r}") from None
            return cls("anyon", theta)
        raise ValueError(f"unknown statistics token {token!r}")

    def __str__(self) -> str:
        if self.kind == "anyon":
            return f"anyon:{self.theta}"
        return self.kind


BOSON = Statistics("boson")
FERMION = Statistics("fermion")


def anyon(theta: float) -> Statistics:
    """Abelian anyon statistics with exchange phase ``e^{i theta}``."""
    return Statistics("anyon", float(theta))


def count_inversions(seq: Sequence[int]) -> int:
    """Number of pairs ``i < j`` with ``seq[i] > seq[j]``."""
    return sum(1 for a, b in itertools.combinations(seq, 2) if a > b)


def canonicalize(raw_modes: Sequence[int], statistics: Statistics) -> Tuple[Modes, complex]:
    """Sort a creation-operator mode sequence into ascending order.

    Returns the sorted modes and the exchange phase ``s**inversions`` picked
    up by the reordering, where ``s`` is the exchange phase of ``statistics``.

    Raises ``DuplicateMode`` if an index repeats; a repeated index means the
    circuit has left the single-occupancy regime.
    """
    if len(set(raw_modes)) != len(raw_modes):
        raise DuplicateMode(f"repeated mode index in {tuple(raw_modes)}")
    inv = count_inversions(raw_modes)
    return tuple(sorted(raw_modes)), statistics.reorder_phase(inv)


class FockState:
    """Sparse superposition of single-occupancy patterns.

    ``terms`` maps ``(modes, species)`` keys to complex amplitudes, where
    ``modes`` is strictly increasing and ``species`` is ``None`` for
    indistinguishable particles.  The ``escaped`` attribute records squared
    norm that left the single-occupancy sector during engine evolution (e.g.
    two bosons bunching into one mode); it is bookkeeping only and ``norm``
    leaves it out.  ``_from_canonical`` builds a state from complex amplitudes
    under keys already in this form, checking nothing but ``PRUNE_TOLERANCE``;
    its one caller is ``engine._run``, whose walk builds canonical keys.
    """

    __slots__ = ("num_modes", "_terms", "escaped")

    def __init__(
        self,
        num_modes: int,
        terms: Optional[Mapping[TermKey, complex]] = None,
        escaped: float = 0.0,
    ):
        if num_modes < 1:
            raise ValueError("num_modes must be positive")
        clean: dict[TermKey, complex] = {}
        for (modes, species), amp in (terms or {}).items():
            amp = complex(amp)
            if abs(amp) < PRUNE_TOLERANCE:
                continue
            modes = tuple(modes)
            if list(modes) != sorted(set(modes)):
                raise DuplicateMode(f"term modes {modes} not strictly increasing")
            if modes and not (1 <= modes[0] and modes[-1] <= num_modes):
                raise ValueError(f"mode index out of range in {modes}")
            if species is not None:
                species = tuple(species)
                if len(species) != len(modes):
                    raise DimensionMismatch("species labels must align with modes")
            clean[(modes, species)] = amp
        self.num_modes = num_modes
        self._terms = clean
        self.escaped = float(escaped)

    @classmethod
    def _from_canonical(cls, num_modes: int, terms: dict) -> "FockState":
        state = cls.__new__(cls)
        state.num_modes, state.escaped = num_modes, 0.0
        state._terms = {key: amp for key, amp in terms.items() if abs(amp) >= PRUNE_TOLERANCE}
        return state

    @classmethod
    def single(cls, num_modes: int, modes: Sequence[int]) -> "FockState":
        """State with one occupied pattern, amplitude 1."""
        return cls(num_modes, {(tuple(sorted(modes)), None): 1.0})

    def items(self) -> Iterator[Tuple[Modes, Species, complex]]:
        for (modes, species), amp in self._terms.items():
            yield modes, species, amp

    def amplitude(self, modes: Sequence[int], species: Optional[Sequence[int]] = None) -> complex:
        key = (tuple(modes), tuple(species) if species is not None else None)
        return self._terms.get(key, 0.0 + 0.0j)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # debugging aid
        parts = []
        for modes, species, amp in sorted(self.items(), key=lambda t: (t[0], t[1] or ())):
            tag = f"{modes}" if species is None else f"{modes}/{species}"
            parts.append(f"{tag}: {amp:.6g}")
        extra = f", escaped={self.escaped:.3g}" if self.escaped else ""
        return f"FockState({self.num_modes} modes, {{{', '.join(parts)}}}{extra})"


def norm(a: FockState) -> float:
    """Euclidean norm of the stored terms (escaped weight excluded)."""
    return sum(abs(amp) ** 2 for amp in a._terms.values()) ** 0.5
