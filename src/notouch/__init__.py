"""Simulator for single-occupancy linear-optical entanglement protocols.

Builds and executes staged interferometer circuits that entangle independent
particles (bosons, fermions or abelian anyons) purely through path
indistinguishability and post-selection, and mechanically verifies that the
accepted events never bring two particles together.

Importing the package loads no numpy, nor do synthesis and ``fidelity``.
numpy loads when ``notouch.analysis`` is imported, on the first use of one
of its names, and on the first read of ``QubitState.amplitudes``.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    LocalUnitary,
    Permute,
    bell_circuit,
    ghz_circuit,
    hadamard_gate,
    hom_circuit,
    load_circuit,
    permutation_from_one_line,
    save_circuit,
    synthesize_two_qubit,
    validate_circuit,
    w_circuit,
    w_input_unitary,
)
from .engine import (
    RunOutput,
    computational_distribution,
    extract_dual_rail,
    run,
    run_distinguishable,
)
from .errors import (
    DimensionMismatch,
    DuplicateMode,
    InvalidCircuit,
    NoTouchError,
    NotBijective,
    NotNormalized,
    PatternMismatch,
    SameMode,
    TooManyHistories,
    ZeroProbability,
    ZeroState,
)
from .fock import (
    BOSON,
    FERMION,
    FockState,
    Statistics,
    anyon,
    canonicalize,
    norm,
)
from .paths import (
    PathHistory,
    TouchReport,
    enumerate_histories,
    verify_no_touching,
)
from .qubits import QubitState, fidelity

__all__ = [
    "BOSON",
    "FERMION",
    "Circuit",
    "DimensionMismatch",
    "DuplicateMode",
    "FockState",
    "InvalidCircuit",
    "LocalUnitary",
    "NoTouchError",
    "NotBijective",
    "NotNormalized",
    "PathHistory",
    "PatternMismatch",
    "Permute",
    "QubitState",
    "RunOutput",
    "SameMode",
    "Statistics",
    "TooManyHistories",
    "TouchReport",
    "ZeroProbability",
    "ZeroState",
    "anyon",
    "bell_circuit",
    "canonicalize",
    "chsh_grid_max",
    "chsh_value",
    "computational_distribution",
    "correlation",
    "correlation_table",
    "enumerate_histories",
    "extract_dual_rail",
    "fidelity",
    "ghz_circuit",
    "hadamard_gate",
    "hom_circuit",
    "load_circuit",
    "norm",
    "permutation_from_one_line",
    "run",
    "run_distinguishable",
    "save_circuit",
    "synthesize_two_qubit",
    "three_tangle",
    "validate_circuit",
    "verify_no_touching",
    "w_circuit",
    "w_input_unitary",
]


def __getattr__(name: str):  # the analysis names in __all__, looked up on every use (PEP 562)
    if name in __all__:
        from . import analysis
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
