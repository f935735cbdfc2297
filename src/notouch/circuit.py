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
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence, Tuple, Union

from .errors import InvalidCircuit, NoTouchError, NotBijective, NotNormalized, SameMode
from .fock import Statistics
from .qubits import QubitState

UNITARY_TOLERANCE = 1e-9

SQRT2 = math.sqrt(2.0)


def _complex_entries(v):
    """An array or nested sequences of numbers as nested tuples of Python complex."""
    v = v.tolist() if hasattr(v, "tolist") else v
    return tuple(map(_complex_entries, v)) if isinstance(v, (list, tuple)) else complex(v)


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

    Column ``j`` of ``rows`` (Python complex, so gates compare by value) gives
    the expansion of a particle entering the j-th support mode: its creation
    operator maps to ``sum_l rows[l][j] *`` (operator on support mode ``l``).
    """

    support: Tuple[int, ...]
    rows: Tuple[Tuple[complex, ...], ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", _mode_labels(self.support, "gate support"))
        object.__setattr__(self, "rows", _complex_entries(self.rows))

    def is_unitary(self) -> bool:
        # np.allclose's rule on the Gram matrix (rtol 1e-5 included); nan, inf compare false
        rows, n = self.rows, len(self.support)
        if len(rows) != n or not all(
            isinstance(r, tuple) and len(r) == n and tuple not in map(type, r) for r in rows
        ):
            return False
        return all(
            math.hypot(gram.real - (i == j), gram.imag) <= UNITARY_TOLERANCE + 1e-5 * (i == j)
            for i in range(n)
            for j in range(n)
            for gram in [sum((row[i].conjugate() * row[j] for row in rows), 0j)]
        )


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

    Construction runs ``validate_circuit``, so an invalid layout raises
    ``InvalidCircuit`` also from ``dataclasses.replace`` or ``load_circuit``.
    """

    num_modes: int
    input_subsystems: Tuple[Tuple[int, ...], ...]
    injections: Tuple[int, ...]
    input_stage: Tuple[LocalUnitary, ...]
    permutation: Permute
    output_stage: Tuple[LocalUnitary, ...]
    output_subsystems: Tuple[Tuple[int, ...], ...]
    target_pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        validate_circuit(self)


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


def validate_circuit(c: Circuit) -> None:
    """Structural validation; raises ``InvalidCircuit`` with every violation
    found, joined by ``"; "``.  ``Circuit`` runs it on construction."""
    if c.num_modes < 1:
        raise InvalidCircuit("num_modes must be positive")
    v: list[str] = []

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

    if v:
        raise InvalidCircuit("; ".join(v))


def hadamard_gate(k: int, l: int) -> LocalUnitary:
    """Balanced two-mode beam splitter on modes ``k`` and ``l``."""
    if k == l:
        raise SameMode(f"two-mode gate needs distinct modes, got {k} twice")
    s = 1.0 / SQRT2
    return LocalUnitary((k, l), ((s, s), (s, -s)))


def w_input_unitary() -> LocalUnitary:
    """Three-mode input unitary of the W layout.

    Its columns are ``(sqrt 2, 1, sqrt 2) / sqrt 5``, ``(3, -sqrt 2, -2) / sqrt 15``
    and ``(0, sqrt 2, -1) / sqrt 3``, the Gram-Schmidt completion of the first
    over the standard basis.  The particle enters the first support mode only,
    so the other two columns never reach a result.
    """
    r, r15, r3 = (1.0 / math.sqrt(k) for k in (5.0, 15.0, 3.0))
    rows = ((SQRT2 * r, 3 * r15, 0.0), (r, -SQRT2 * r15, SQRT2 * r3), (SQRT2 * r, -2 * r15, -r3))
    return LocalUnitary((3, 4, 5), rows)


def _ghz_ring(n: int, input_stage=None, output_stage=()) -> Circuit:
    """GHZ layout on ``n`` rail pairs (2j-1, 2j).

    Particle ``j`` is injected on mode ``2j-1``, then by default split over
    its pair by a beam splitter.  The permutation fixes odd modes and sends
    ``2j`` to ``2j+2``, wrapping ``2n`` to ``2``; no output stage by default.
    """
    pairs = tuple((2 * j - 1, 2 * j) for j in range(1, n + 1))
    one_line = [m if m % 2 else m % (2 * n) + 2 for m in range(1, 2 * n + 1)]
    if input_stage is None:
        input_stage = tuple(hadamard_gate(a, b) for a, b in pairs)
    return Circuit(
        num_modes=2 * n,
        input_subsystems=pairs,
        injections=tuple(a for a, _ in pairs),
        input_stage=input_stage,
        permutation=permutation_from_one_line(one_line),
        output_stage=output_stage,
        output_subsystems=pairs,
        target_pairs=pairs,
    )


def bell_circuit() -> Circuit:
    """Two-particle layout producing a Bell pair on rails (1,2) and (3,4)."""
    return _ghz_ring(2)


def ghz_circuit() -> Circuit:
    """Three-particle layout producing a GHZ state on three rail pairs."""
    return _ghz_ring(3)


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
    phase s picked up when the accepted pattern is reordered is folded into the
    input column so the synthesized state matches the target for the given
    statistics: the splitter's columns are ``(lam_0, conj(s) lam_1)`` and
    ``(lam_1, -conj(s) lam_0)``, orthogonal as written.  The particle enters
    the first mode only, so the second column never reaches a result.

    The Schmidt step M = sum_k lam_k u_k v_k^dagger is in closed form: lam_k^2
    are the eigenvalues of H = M M^dagger, lam_1 = |det M| / lam_0, u_0 is the
    top eigenvector of H (u = I when H is a multiple of I), and row 0 of
    v^dagger is u_0^dagger M / lam_0.  u_1 and row 1 are orthogonal completions,
    row 1 times det M / |det M|, so a product target (lam_1 = 0) gets the plain row.
    """
    if target.num_qubits != 2:
        raise NotNormalized("synthesis target must be a two-qubit state")
    if not abs(math.sqrt(sum(abs(z) ** 2 for z in target.values)) - 1.0) <= 1e-9:  # nan too
        raise NotNormalized("synthesis target must be normalized")

    a, b, c, d = target.values  # M = [[a, b], [c, d]], H = [[p, q], [conj(q), r]]
    p, r = abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2
    q = a * c.conjugate() + b * d.conjugate()
    det = a * d - b * c
    half_gap = math.hypot((p - r) / 2, abs(q))
    lam0 = math.sqrt((p + r) / 2 + half_gap)
    lam1 = min(lam0, abs(det) / lam0)  # keeps a degenerate pair equal and descending
    x, y = ((p - r) / 2 + half_gap, q.conjugate()) if p >= r else (q, (r - p) / 2 + half_gap)
    size = math.hypot(abs(x), abs(y))
    x, y = (x / size, y / size) if size else (1, 0)  # u_0; the orthogonal u_1 completes w1
    v0, v1 = ((x.conjugate() * m0 + y.conjugate() * m1) / lam0 for m0, m1 in ((a, c), (b, d)))
    phase = det / abs(det) if det else 1
    w1 = ((x, -y.conjugate()), (y, x.conjugate()))
    w2 = ((v0, 0 - phase * v1.conjugate()), (v1, phase * v0.conjugate()))  # vh.T; 0 - z: no -0.0

    s_bar = statistics.reorder_phase(1).conjugate()
    prep = LocalUnitary((1, 2), ((lam0, lam1), (s_bar * lam1, 0 - s_bar * lam0)))  # no -0.0

    bases = (LocalUnitary((1, 2), w1), LocalUnitary((3, 4), w2))
    return _ghz_ring(2, input_stage=(prep, hadamard_gate(3, 4)), output_stage=bases)


# ---------------------------------------------------------------------------
# JSON circuit files
# ---------------------------------------------------------------------------

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
    return LocalUnitary(support, [[complex(re, im) for re, im in row] for row in rows])


def _gate_to_json(g: LocalUnitary) -> dict:
    return {"support": list(g.support), "matrix": [[[z.real, z.imag] for z in r] for r in g.rows]}


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
        "input_gates": [_gate_to_json(g) for g in c.input_stage],
        "permutation": list(c.permutation.one_line),
        "output_gates": [_gate_to_json(g) for g in c.output_stage],
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
    """Write ``c`` to ``path`` as its indented JSON document (``circuit_to_dict``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_dict(c), fh, indent=2)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    """Read a circuit saved by ``save_circuit``: text that is not JSON raises
    ``json.JSONDecodeError``, a malformed document ``NoTouchError`` and an
    invalid layout ``InvalidCircuit``."""
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_dict(json.load(fh))


PROTOCOLS = {
    "bell": bell_circuit,
    "ghz": ghz_circuit,
    "w": w_circuit,
}
