"""Circuit representation and protocol builders.

A circuit stages five steps: inject one particle per input subsystem, apply
local unitaries inside each input subsystem, permute the modes, apply local
unitaries inside each output subsystem, and post-select on one particle per
target rail pair.  The builders below produce the Bell, GHZ and W layouts;
``synthesize_two_qubit`` produces a Bell-topology circuit for an arbitrary
two-qubit target.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import NoTouchError, NotBijective, NotNormalized, SameMode
from .fock import Statistics
from .qubits import QubitState

UNITARY_TOLERANCE = 1e-9

SQRT2 = float(np.sqrt(2.0))
SQRT5 = float(np.sqrt(5.0))


def _mode_labels(values, what: str) -> Tuple[int, ...]:
    """Integer mode labels; a non-integer label raises instead of truncating."""
    labels = []
    for value in values:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise NoTouchError(f"{what} mode label {value!r} is not an integer")
        labels.append(operator.index(value))
    return tuple(labels)


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting on an ordered tuple of modes.

    Column ``j`` of ``matrix`` gives the expansion of a particle entering the
    j-th support mode over the support modes, i.e. a creation operator on
    support mode ``j`` maps to ``sum_l matrix[l, j] *`` (operator on support
    mode ``l``).
    """

    support: Tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", _mode_labels(self.support, "gate support"))
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)

    def is_unitary(self, tol: float = UNITARY_TOLERANCE) -> bool:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.support):
            return False
        # np.allclose's rule (rtol 1e-5 included) without its overhead; nan
        # and inf entries compare false
        identity = np.eye(m.shape[0])
        return bool((np.abs(m.conj().T @ m - identity) <= tol + 1e-5 * identity).all())


@dataclass(frozen=True)
class Permute:
    """Mode relabelling: ``one_line[i - 1]`` is the new label of input mode i."""

    one_line: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "one_line", _mode_labels(self.one_line, "permutation"))

    def apply(self, mode: int) -> int:
        return self.one_line[mode - 1]

    def is_bijection(self) -> bool:
        n = len(self.one_line)
        return sorted(self.one_line) == list(range(1, n + 1))


Gate = Union[LocalUnitary, Permute]


def permutation_from_one_line(entries: Sequence[int]) -> Permute:
    """Build a permutation from one-line notation, checking bijectivity."""
    perm = Permute(tuple(entries))
    if not perm.is_bijection():
        raise NotBijective(f"{tuple(entries)} is not a permutation of 1..{len(entries)}")
    return perm


@dataclass(frozen=True)
class Circuit:
    """Staged linear-optical circuit with dual-rail target pairs.

    ``input_subsystems`` and ``output_subsystems`` partition (a subset of)
    the modes into the regions the local stages act on.  ``injections`` holds
    one injected mode per input subsystem.  ``target_pairs`` holds one
    ordered rail pair per output subsystem; the first mode of a pair encodes
    the "up" qubit state.
    """

    num_modes: int
    input_subsystems: Tuple[Tuple[int, ...], ...]
    injections: Tuple[int, ...]
    input_stage: Tuple[LocalUnitary, ...]
    permutation: Permute
    output_stage: Tuple[LocalUnitary, ...]
    output_subsystems: Tuple[Tuple[int, ...], ...]
    target_pairs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[str, ...] = ()


def _check_stage(
    gates: Sequence[LocalUnitary],
    subsystems: Sequence[Tuple[int, ...]],
    stage_name: str,
    violations: list,
) -> None:
    seen: set[int] = set()
    for gate in gates:
        if not isinstance(gate, LocalUnitary):
            violations.append(f"{stage_name} gate {gate!r} is not a local unitary")
            continue
        if len(set(gate.support)) != len(gate.support):
            violations.append(f"{stage_name} gate support {gate.support} repeats a mode")
        if seen & set(gate.support):
            violations.append(
                f"{stage_name} gate supports overlap at modes "
                f"{sorted(seen & set(gate.support))}"
            )
        seen |= set(gate.support)
        if not gate.is_unitary():
            violations.append(f"{stage_name} gate on {gate.support} is not unitary")
        homes = [k for k, sub in enumerate(subsystems) if set(gate.support) <= set(sub)]
        if not homes:
            violations.append(
                f"non-local {stage_name} gate: support {gate.support} does not lie "
                f"inside a single subsystem"
            )


def validate_circuit(c: Circuit) -> ValidationReport:
    """Structural validation; returns a report instead of raising."""
    v: list[str] = []
    if c.num_modes < 1:
        v.append("num_modes must be positive")
        return ValidationReport(False, tuple(v))

    for name, subsystems in (("input", c.input_subsystems), ("output", c.output_subsystems)):
        used: set[int] = set()
        for k, sub in enumerate(subsystems, start=1):
            sub_set = set(sub)
            if not all(1 <= m <= c.num_modes for m in sub_set):
                v.append(f"{name} subsystem {k} uses modes outside 1..{c.num_modes}")
            if used & sub_set:
                v.append(f"{name} subsystems overlap at modes {sorted(used & sub_set)}")
            used |= sub_set

    if len(c.injections) != len(c.input_subsystems):
        v.append("need exactly one injection per input subsystem")
    else:
        for k, (mode, sub) in enumerate(zip(c.injections, c.input_subsystems), start=1):
            if mode not in sub:
                v.append(f"injection {mode} is not in input subsystem {k}")

    _check_stage(c.input_stage, c.input_subsystems, "input", v)
    _check_stage(c.output_stage, c.output_subsystems, "output", v)

    if len(c.permutation.one_line) != c.num_modes or not c.permutation.is_bijection():
        v.append("permutation is not a bijection on the modes")

    if len(c.target_pairs) != len(c.output_subsystems):
        v.append("need exactly one target pair per output subsystem")
    seen_pair_modes: set[int] = set()
    for k, pair in enumerate(c.target_pairs, start=1):
        if len(pair) != 2 or pair[0] == pair[1]:
            v.append(f"target pair {k} must be two distinct modes")
            continue
        if k <= len(c.output_subsystems) and not set(pair) <= set(c.output_subsystems[k - 1]):
            v.append(f"target pair {k} is not inside output subsystem {k}")
        if seen_pair_modes & set(pair):
            v.append(f"target pairs not disjoint at modes {sorted(seen_pair_modes & set(pair))}")
        seen_pair_modes |= set(pair)

    return ValidationReport(not v, tuple(v))


def hadamard_gate(k: int, l: int) -> LocalUnitary:
    """Balanced two-mode beam splitter on modes ``k`` and ``l``."""
    if k == l:
        raise SameMode(f"two-mode gate needs distinct modes, got {k} twice")
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2
    return LocalUnitary((k, l), h)


def complete_unitary(first_column: np.ndarray) -> np.ndarray:
    """Extend a unit column to a unitary by Gram-Schmidt over the standard basis.

    Candidate columns are taken from the standard basis vectors in index
    order; each accepted column is normalized with its first nonzero entry
    made real and positive, so the completion is reproducible and the
    balanced two-mode case reproduces the standard beam-splitter matrix.
    """
    col = np.asarray(first_column, dtype=complex).reshape(-1)
    n = col.shape[0]
    if abs(np.linalg.norm(col) - 1.0) > UNITARY_TOLERANCE:
        raise NotNormalized("first column must be a unit vector")
    columns = [col]
    for idx in range(n):
        if len(columns) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[idx] = 1.0
        for prev in columns:
            cand = cand - np.vdot(prev, cand) * prev
        nrm = np.linalg.norm(cand)
        if nrm < 1e-9:
            continue
        cand = cand / nrm
        lead = cand[np.flatnonzero(np.abs(cand) > 1e-12)[0]]
        cand = cand * (abs(lead) / lead)
        columns.append(cand)
    return np.stack(columns, axis=1)


def w_input_unitary() -> LocalUnitary:
    """Three-mode input unitary of the W layout.

    Sends a particle in the first support mode to the superposition with
    amplitudes ``(sqrt 2, 1, sqrt 2) / sqrt 5``; the remaining columns are the
    deterministic Gram-Schmidt completion.
    """
    first = np.array([SQRT2, 1.0, SQRT2], dtype=complex) / SQRT5
    return LocalUnitary((3, 4, 5), complete_unitary(first))


def bell_circuit() -> Circuit:
    """Two-particle layout producing a Bell pair on rails (1,2) and (3,4)."""
    return Circuit(
        num_modes=4,
        input_subsystems=((1, 2), (3, 4)),
        injections=(1, 3),
        input_stage=(hadamard_gate(1, 2), hadamard_gate(3, 4)),
        permutation=permutation_from_one_line([1, 4, 3, 2]),
        output_stage=(),
        output_subsystems=((1, 2), (3, 4)),
        target_pairs=((1, 2), (3, 4)),
    )


def ghz_circuit() -> Circuit:
    """Three-particle layout producing a GHZ state on three rail pairs."""
    return Circuit(
        num_modes=6,
        input_subsystems=((1, 2), (3, 4), (5, 6)),
        injections=(1, 3, 5),
        input_stage=(hadamard_gate(1, 2), hadamard_gate(3, 4), hadamard_gate(5, 6)),
        permutation=permutation_from_one_line([1, 4, 3, 6, 5, 2]),
        output_stage=(),
        output_subsystems=((1, 2), (3, 4), (5, 6)),
        target_pairs=((1, 2), (3, 4), (5, 6)),
    )


def w_circuit() -> Circuit:
    """Three-particle, seven-mode layout producing a W state.

    The middle subsystem has three modes; only rails (3,4) are kept as the
    target pair, and the output beam splitter mixes modes 3 and 5.
    """
    return Circuit(
        num_modes=7,
        input_subsystems=((1, 2), (3, 4, 5), (6, 7)),
        injections=(1, 3, 6),
        input_stage=(hadamard_gate(1, 2), w_input_unitary(), hadamard_gate(6, 7)),
        permutation=permutation_from_one_line([1, 3, 2, 4, 7, 6, 5]),
        output_stage=(hadamard_gate(3, 5),),
        output_subsystems=((1, 2), (3, 4, 5), (6, 7)),
        target_pairs=((1, 2), (3, 4), (6, 7)),
    )


def hom_circuit() -> Circuit:
    """Control layout where two particles meet on one beam splitter.

    Both injected particles enter the same output-stage gate, so this circuit
    deliberately violates the no-touching property.  Post-selection on the
    single target pair accepts nothing (both particles always share the
    pair), which is why the verifier is normally run on it in accept-all
    mode.
    """
    return Circuit(
        num_modes=2,
        input_subsystems=((1,), (2,)),
        injections=(1, 2),
        input_stage=(),
        permutation=permutation_from_one_line([1, 2]),
        output_stage=(hadamard_gate(1, 2),),
        output_subsystems=((1, 2),),
        target_pairs=((1, 2),),
    )


def synthesize_two_qubit(target: QubitState, statistics: Statistics) -> Circuit:
    """Bell-topology circuit whose post-selected output equals ``target``.

    The Schmidt decomposition of the target fixes the input amplitude
    splitter on the first subsystem (nonnegative coefficients, descending)
    and the two output-stage basis unitaries on the rail pairs.  The exchange
    phase picked up when the accepted pattern is reordered is folded into the
    input column so the synthesized state matches the target for the given
    statistics.
    """
    if target.num_qubits != 2:
        raise NotNormalized("synthesis target must be a two-qubit state")
    amps = np.asarray(target.amplitudes, dtype=complex)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise NotNormalized("synthesis target must be normalized")

    m = amps.reshape(2, 2)
    u, lam, vh = np.linalg.svd(m)
    # target = sum_k lam[k] * u[:, k] (x) conj(v)[:, k], conj(v) = vh.T
    w1 = u
    w2 = vh.T

    s = statistics.exchange_phase
    first_col = np.array([lam[0], np.conjugate(s) * lam[1]], dtype=complex)
    prep = LocalUnitary((1, 2), complete_unitary(first_col))

    base = bell_circuit()
    return replace(
        base,
        input_stage=(prep, hadamard_gate(3, 4)),
        output_stage=(LocalUnitary((1, 2), w1), LocalUnitary((3, 4), w2)),
    )


# ---------------------------------------------------------------------------
# JSON circuit files
# ---------------------------------------------------------------------------

def _matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise NoTouchError(f"circuit file: {what} must be a list")
    return data


def _gate_from_json(g, what: str) -> LocalUnitary:
    if not isinstance(g, dict) or "support" not in g or "matrix" not in g:
        raise NoTouchError(f"circuit file: each {what} needs 'support' and 'matrix'")
    support = _mode_labels(_list(g["support"], f"{what} support"), what)
    n = len(support)
    rows = g["matrix"]
    if not (
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(row, list) and len(row) == n for row in rows)
        and all(
            isinstance(z, list) and len(z) == 2 and all(map(_is_number, z))
            for row in rows
            for z in row
        )
    ):
        raise NoTouchError(
            f"circuit file: {what} on {list(support)} needs a {n}x{n} matrix of [re, im] pairs"
        )
    matrix = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    return LocalUnitary(support, matrix)


_CIRCUIT_KEYS = (
    "num_modes",
    "input_subsystems",
    "injections",
    "input_gates",
    "permutation",
    "output_gates",
    "output_subsystems",
    "target_pairs",
)


def circuit_to_dict(c: Circuit) -> dict:
    return {
        "num_modes": c.num_modes,
        "input_subsystems": [list(sub) for sub in c.input_subsystems],
        "injections": list(c.injections),
        "input_gates": [
            {"support": list(g.support), "matrix": _matrix_to_json(g.matrix)}
            for g in c.input_stage
        ],
        "permutation": list(c.permutation.one_line),
        "output_gates": [
            {"support": list(g.support), "matrix": _matrix_to_json(g.matrix)}
            for g in c.output_stage
        ],
        "output_subsystems": [list(sub) for sub in c.output_subsystems],
        "target_pairs": [list(pair) for pair in c.target_pairs],
    }


def circuit_from_dict(data: dict) -> Circuit:
    """Circuit from its JSON document; a malformed document raises
    ``NoTouchError`` (missing keys, wrong shapes, non-integer mode labels)."""
    if not isinstance(data, dict):
        raise NoTouchError("circuit file must hold a JSON object")
    missing = [key for key in _CIRCUIT_KEYS if key not in data]
    if missing:
        raise NoTouchError(f"circuit file is missing {', '.join(missing)}")
    if not isinstance(data["num_modes"], int) or isinstance(data["num_modes"], bool):
        raise NoTouchError("circuit file: num_modes must be an integer")

    def labels(key):
        return _mode_labels(_list(data[key], key), key)

    def groups(key):
        return tuple(_mode_labels(_list(sub, key), key) for sub in _list(data[key], key))

    pairs = groups("target_pairs")
    if any(len(pair) != 2 for pair in pairs):
        raise NoTouchError("circuit file: every target pair must hold two modes")
    return Circuit(
        num_modes=data["num_modes"],
        input_subsystems=groups("input_subsystems"),
        injections=labels("injections"),
        input_stage=tuple(
            _gate_from_json(g, "input gate") for g in _list(data["input_gates"], "input_gates")
        ),
        permutation=Permute(labels("permutation")),
        output_stage=tuple(
            _gate_from_json(g, "output gate") for g in _list(data["output_gates"], "output_gates")
        ),
        output_subsystems=groups("output_subsystems"),
        target_pairs=pairs,
    )


def save_circuit(c: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_dict(c), fh, indent=2)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_dict(json.load(fh))


PROTOCOLS = {
    "bell": bell_circuit,
    "ghz": ghz_circuit,
    "w": w_circuit,
}
