"""Dense multi-qubit states extracted from dual-rail encodings."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Number

from .errors import DimensionMismatch, NoTouchError


@dataclass(frozen=True)
class QubitState:
    """Dense state of ``num_qubits`` qubits.

    The amplitude vector has length ``2**num_qubits`` and is ordered with
    qubit 1 as the most significant bit; bit value 0 is the "up" rail.  States
    compare by ``values``; ``amplitudes`` is their ndarray, built on first read.
    ``values`` may be given as a flat list, tuple or array of numbers.
    """

    num_qubits: int
    values: tuple = field(repr=False)

    def __post_init__(self):
        count = self.num_qubits
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise DimensionMismatch(f"num_qubits must be an int >= 0, got {count!r}")
        values = self.values.tolist() if hasattr(self.values, "tolist") else self.values
        flat = isinstance(values, (list, tuple)) and all(isinstance(z, Number) for z in values)
        if not flat:
            raise NoTouchError("qubit amplitudes must be a flat sequence of numbers")
        object.__setattr__(self, "values", tuple(map(complex, values)))
        if len(self.values) != 2**count:
            raise DimensionMismatch(f"expected {2**count} amplitudes, got {len(self.values)}")

    @classmethod
    def _from_values(cls, num_qubits: int, values: tuple) -> "QubitState":
        """``values``, a tuple of ``2**num_qubits`` Python complex, taken unchecked."""
        state = cls.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "values", values)
        return state

    @cached_property
    def amplitudes(self):
        import numpy as np
        return np.array(self.values, dtype=complex)
