"""Dense multi-qubit states extracted from dual-rail encodings."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DimensionMismatch


def _complex_entries(v):
    """An array or nested sequences of numbers as nested tuples of Python complex."""
    v = v.tolist() if hasattr(v, "tolist") else v
    return tuple(map(_complex_entries, v)) if isinstance(v, (list, tuple)) else complex(v)


@dataclass(frozen=True)
class QubitState:
    """Dense state of ``num_qubits`` qubits.

    The amplitude vector has length ``2**num_qubits`` and is ordered with
    qubit 1 as the most significant bit; bit value 0 is the "up" rail.  States
    compare by ``values``; ``amplitudes`` is their ndarray, built on first read.
    """

    num_qubits: int
    values: tuple = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.values, tuple):  # extract_dual_rail's tuple stays as built
            object.__setattr__(self, "values", _complex_entries(self.values))
        if len(self.values) != 2**self.num_qubits:
            raise DimensionMismatch(
                f"expected {2**self.num_qubits} amplitudes, got {len(self.values)}"
            )

    @cached_property
    def amplitudes(self):
        import numpy as np
        return np.array(self.values, dtype=complex)
