"""Simulator for single-occupancy linear-optical entanglement protocols.

Builds and executes staged interferometer circuits that entangle independent
particles (bosons, fermions or abelian anyons) purely through path
indistinguishability and post-selection, and mechanically verifies that the
accepted events never bring two particles together.
"""

__version__ = "0.1.0"

from .analysis import (
    MeasurementSetting,
    chsh_grid_max,
    chsh_value,
    correlation,
    correlation_table,
    fidelity,
    three_tangle,
)
from .circuit import (
    Circuit,
    LocalUnitary,
    Permute,
    ValidationReport,
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
    apply_gate,
    computational_distribution,
    extract_dual_rail,
    inject,
    post_select,
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
    inner_product,
    norm,
)
from .paths import (
    PathHistory,
    TouchReport,
    enumerate_histories,
    verify_no_touching,
)
from .qubits import QubitState

__all__ = [
    "BOSON",
    "FERMION",
    "Circuit",
    "DimensionMismatch",
    "DuplicateMode",
    "FockState",
    "InvalidCircuit",
    "LocalUnitary",
    "MeasurementSetting",
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
    "ValidationReport",
    "ZeroProbability",
    "ZeroState",
    "anyon",
    "apply_gate",
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
    "inject",
    "inner_product",
    "load_circuit",
    "norm",
    "permutation_from_one_line",
    "post_select",
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
