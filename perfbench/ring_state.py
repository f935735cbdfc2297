"""ring_state: run and verify n-particle GHZ rings.

Each operation builds a ring of ``n`` particles from notouch's public
constructors, runs it and verifies it (``run`` + ``extract_dual_rail`` +
``verify_no_touching``), or for distinguishable particles runs it with labels
(``run_distinguishable`` + ``computational_distribution``).  The engine
expands all ``2^n`` pre-selection terms and the verifier all ``2^n``
histories, of which two are accepted, so fock, engine and paths do nearly
all the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import inputs
import reference

SIZES = (10, 11, 12)
TOLERANCE = 1e-12
HADAMARD = ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), -1 / math.sqrt(2)))


@dataclass(frozen=True)
class RingSpec:
    n: int
    statistics: str  # a notouch statistics token, or "distinguishable"
    unitaries: tuple  # one 2x2 input splitter per particle


def build_ring(nt, unitaries):
    """GHZ ring on ``2n`` modes from public constructors.

    Particle ``j`` is injected on mode ``2j-1`` (ascending order) and split
    over pair ``(2j-1, 2j)``.  The permutation fixes odd modes and sends
    ``2j`` to ``2j+2``, wrapping ``2n`` to ``2``; no output stage follows.
    """
    n = len(unitaries)
    pairs = tuple((2 * j - 1, 2 * j) for j in range(1, n + 1))
    one_line = [m if m % 2 else (m + 2 if m < 2 * n else 2) for m in range(1, 2 * n + 1)]
    return nt.Circuit(
        num_modes=2 * n,
        input_subsystems=pairs,
        injections=tuple(a for a, _ in pairs),
        input_stage=tuple(nt.LocalUnitary(p, u) for p, u in zip(pairs, unitaries)),
        permutation=nt.permutation_from_one_line(one_line),
        output_stage=(),
        output_subsystems=pairs,
        target_pairs=pairs,
    )


def _close(got, want) -> bool:
    return abs(got - want) <= TOLERANCE


class RingState:
    name = "ring_state"

    def __init__(self, sizes=SIZES):
        self.sizes = tuple(sizes)
        self.nt = None

    def setup(self) -> None:
        import notouch

        self.nt = notouch

    def warmup_spec(self) -> RingSpec:
        n = self.sizes[0]
        return RingSpec(n, "boson", (HADAMARD,) * n)

    def blocks(self, seed: int):
        """Endless blocks holding every (n, statistics kind) pair once."""
        rng = random.Random(seed)
        while True:
            block = [
                RingSpec(
                    n,
                    inputs.statistics_token(kind, rng),
                    tuple(inputs.haar_unitary_2x2(rng) for _ in range(n)),
                )
                for n in self.sizes
                for kind in inputs.STATISTICS_KINDS
            ]
            rng.shuffle(block)
            yield block

    def operate(self, spec: RingSpec):
        nt = self.nt
        circuit = build_ring(nt, spec.unitaries)
        if spec.statistics == "distinguishable":
            out = nt.run_distinguishable(circuit)
            return out, nt.computational_distribution(out, circuit.target_pairs)
        stat = nt.Statistics.parse(spec.statistics)
        out = nt.run(circuit, stat)
        qubits = nt.extract_dual_rail(out.accepted, circuit.target_pairs)
        return out, qubits, nt.verify_no_touching(circuit, stat)

    def check(self, spec: RingSpec, result) -> list[str]:
        n = spec.n
        phase = 1.0 if spec.statistics == "distinguishable" else reference.exchange_phase(spec.statistics)
        stay, shift = reference.ring_amplitudes(spec.unitaries, phase)
        probability = abs(stay) ** 2 + abs(shift) ** 2
        out = result[0]
        errors = []
        if out.accepted.num_terms != 2:
            errors.append(f"{out.accepted.num_terms} accepted terms, expected 2")
        if not _close(out.probability, probability):
            errors.append(f"probability {out.probability!r}, expected {probability!r}")
        if spec.statistics == "distinguishable":
            want = {(0,) * n: abs(stay) ** 2 / probability, (1,) * n: abs(shift) ** 2 / probability}
            dist = result[1]
            if set(dist) != set(want) or not all(_close(dist[k], want[k]) for k in want):
                errors.append(f"detector distribution {dist!r}, expected {want!r}")
            return errors
        _, qubits, report = result
        modes_stay, modes_shift = reference.ring_patterns(n)
        for modes, amp in ((modes_stay, stay), (modes_shift, shift)):
            got = out.accepted.amplitude(modes)
            if not _close(got, amp):
                errors.append(f"amplitude of {modes} is {got!r}, expected {amp!r}")
        norm = math.sqrt(probability)
        amps = qubits.amplitudes
        if not (_close(complex(amps[0]), stay / norm) and _close(complex(amps[-1]), shift / norm)):
            errors.append("dual-rail amplitudes differ from the ring reference")
        if report.verdict != "pass":
            errors.append(f"verdict {report.verdict}, expected pass")
        if (report.histories_total, report.histories_checked) != (2**n, 2):
            errors.append(
                f"histories {report.histories_total}/{report.histories_checked}, "
                f"expected {2**n}/2"
            )
        return errors

