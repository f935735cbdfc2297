"""Dense multi-qubit states extracted from dual-rail encodings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class QubitState:
    """Dense state of ``num_qubits`` qubits.

    The amplitude vector has length ``2**num_qubits`` and is ordered with
    qubit 1 as the most significant bit; bit value 0 is the "up" rail.
    """

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise DimensionMismatch(
                f"expected {2**self.num_qubits} amplitudes, got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
