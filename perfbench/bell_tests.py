"""bell_tests: synthesise a random two-qubit state, then test Bell inequalities.

Each operation draws a normalised complex two-qubit target and a statistics
value, calls ``synthesize_two_qubit`` -> ``run`` -> ``extract_dual_rail`` +
``fidelity``, evaluates ``correlation_table`` on a 37 x 37 grid and searches
``chsh_grid_max`` at 1 degree with ``refine=True``.  Distinguishable
operations use ``bell_circuit()`` with ``run_distinguishable`` instead.
Analysis dominates; the engine sees thousands of gate applications on
two-term states, the opposite shape from ring_state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs
import reference

GRID = 37
RESOLUTION_DEG = 1.0
TOLERANCE = 1e-12
# The refined search stops on a 1e-3 improvement threshold, so its maximum is
# held to a looser bound than the closed-form evaluations.
CHSH_TOLERANCE = 1e-9
BELL_TARGET = (2**-0.5, 0.0, 0.0, 2**-0.5)


@dataclass(frozen=True)
class BellSpec:
    statistics: str  # a notouch statistics token, or "distinguishable"
    target: tuple  # four amplitudes, qubit 1 most significant; unused if distinguishable
    thetas1: tuple
    thetas2: tuple


class BellTests:
    name = "bell_tests"

    def __init__(self, grid: int = GRID, resolution_deg: float = RESOLUTION_DEG):
        self.grid = grid
        self.resolution_deg = resolution_deg
        self.nt = None

    def setup(self) -> None:
        import notouch

        self.nt = notouch

    def warmup_spec(self) -> BellSpec:
        thetas = tuple(i * 6.283185307179586 / self.grid for i in range(self.grid))
        return BellSpec("boson", BELL_TARGET, thetas, thetas)

    def blocks(self, seed: int):
        """Endless blocks holding every statistics kind once."""
        rng = random.Random(seed)
        while True:
            block = [
                BellSpec(
                    inputs.statistics_token(kind, rng),
                    inputs.random_state(4, rng),
                    tuple(inputs.angle_grid(self.grid, rng)),
                    tuple(inputs.angle_grid(self.grid, rng)),
                )
                for kind in inputs.STATISTICS_KINDS
            ]
            rng.shuffle(block)
            yield block

    def operate(self, spec: BellSpec) -> dict:
        nt = self.nt
        result = {}
        if spec.statistics == "distinguishable":
            circuit = nt.bell_circuit()
            out = nt.run_distinguishable(circuit)
            result["distribution"] = nt.computational_distribution(out, circuit.target_pairs)
        else:
            stat = nt.Statistics.parse(spec.statistics)
            target = nt.QubitState(2, spec.target)
            circuit = nt.synthesize_two_qubit(target, stat)
            out = nt.run(circuit, stat)
            qubits = nt.extract_dual_rail(out.accepted, circuit.target_pairs)
            result["amplitudes"] = [complex(z) for z in qubits.amplitudes]
            result["fidelity"] = nt.fidelity(qubits, target)
        pairs = circuit.target_pairs
        result["table"] = nt.correlation_table(out, spec.thetas1, spec.thetas2, pairs)
        result["chsh"] = nt.chsh_grid_max(out, pairs, self.resolution_deg, refine=True)[0]
        return result

    def check(self, spec: BellSpec, result: dict) -> list[str]:
        errors = []
        if spec.statistics == "distinguishable":
            table = reference.DISTINGUISHABLE_TABLE
            dist = result["distribution"]
            if set(dist) != {(0, 0), (1, 1)} or not all(
                abs(p - 0.5) <= TOLERANCE for p in dist.values()
            ):
                errors.append(f"detector distribution {dist!r}, expected 00 and 11 at 1/2")
        else:
            table = reference.correlation_matrix(spec.target)
            for label, value in (
                ("fidelity", result["fidelity"]),
                ("reference fidelity", reference.fidelity(spec.target, result["amplitudes"])),
            ):
                if abs(value - 1.0) > TOLERANCE:
                    errors.append(f"{label} {value!r}, expected 1")
        rows = result["table"]
        grid = [(t1, t2) for t1 in spec.thetas1 for t2 in spec.thetas2]
        if [(t1, t2) for t1, t2, _ in rows] != grid:
            errors.append("correlation table rows do not follow the requested grid")
        worst = max(abs(e - reference.correlation(table, t1, t2)) for t1, t2, e in rows)
        if worst > TOLERANCE:
            errors.append(f"correlation differs from the reference by {worst:.3g}")
        want = reference.chsh_max(table)
        if abs(result["chsh"] - want) > CHSH_TOLERANCE:
            errors.append(f"refined CHSH {result['chsh']!r}, expected {want!r}")
        return errors

