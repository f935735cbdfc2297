"""Command-line frontend: run protocols, sweep correlations, verify
no-touching, synthesize two-qubit circuits.

Exit codes: 0 success (and verifier pass), 1 verifier fail, 2 argument,
input or out-of-memory error, 3 circuit validation failure.  JSON documents are
deterministic: fixed key order, terms in ascending mode order, floats
rounded to 12 significant digits at serialization only.  ``verify`` checks
every history of nonzero amplitude that its walk visits.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from typing import Optional, Sequence

from . import __version__
from .circuit import (
    PROTOCOLS,
    Circuit,
    load_circuit,
    save_circuit,
    synthesize_two_qubit,
)
from .engine import extract_dual_rail, run, run_distinguishable
from .errors import InvalidCircuit, NoTouchError, ZeroState
from .fock import PRUNE_TOLERANCE, Statistics
from .paths import verify_no_touching
from .qubits import QubitState, fidelity

def _sig(value: float) -> float:
    if value == 0 or not math.isfinite(value):
        return float(value)
    return round(value, 11 - int(math.floor(math.log10(abs(value)))))  # 12 significant digits


def _metadata() -> dict:
    return {"tool": "notouch", "version": __version__, "pruning_tolerance": PRUNE_TOLERANCE}


def _resolve_circuit(token: str) -> Circuit:
    if token in PROTOCOLS:
        return PROTOCOLS[token]()
    if token.startswith("file:"):
        return load_circuit(token[len("file:") :])
    raise NoTouchError(
        f"unknown protocol {token!r}; expected bell, ghz, w or file:<path>"
    )


def _parse_grid(spec: str) -> list[float]:
    """Either comma-separated values or ``start:stop:count`` (endpoint open)."""

    def number(kind, token):
        try:
            return kind(token)
        except ValueError:
            raise NoTouchError(
                f"grid {spec!r} must be comma-separated angles or start:stop:count"
            ) from None

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise NoTouchError(f"grid {spec!r} must be start:stop:count")
        start, stop, count = map(number, (float, float, int), parts)
        if count < 1:
            raise NoTouchError("grid count must be positive")
        step = (stop - start) / count
        values = [start + i * step for i in range(count)]
    else:
        values = [number(float, tok) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise NoTouchError(f"grid {spec!r} has no angles")
    if not all(math.isfinite(value) for value in values):
        raise NoTouchError(f"grid {spec!r} has a non-finite angle")
    return values


def cmd_run(args: argparse.Namespace) -> int:
    stat = Statistics.parse(args.statistics)
    circuit = _resolve_circuit(args.protocol)
    out = run(circuit, stat)
    terms = []
    for modes, _species, amp in sorted(out.accepted.items(), key=lambda t: t[0]):
        terms.append(
            {"modes": list(modes), "amplitude": [_sig(amp.real), _sig(amp.imag)]}
        )
    try:
        qubits = extract_dual_rail(out.accepted, circuit.target_pairs)
        qubit_amps = [[_sig(z.real), _sig(z.imag)] for z in qubits.values]
    except ZeroState:
        qubit_amps = []
    doc = {
        "protocol": args.protocol,
        "statistics": str(stat),
        "probability": _sig(out.probability),
        "accepted_terms": terms,
        "qubit_amplitudes": qubit_amps,
        "metadata": _metadata(),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        lines = ["field,value"]
        lines.append(f"protocol,{doc['protocol']}")
        lines.append(f"statistics,{doc['statistics']}")
        lines.append(f"probability,{doc['probability']!r}")
        lines.append("modes,amplitude_re,amplitude_im")
        for term in doc["accepted_terms"]:
            modes = " ".join(str(m) for m in term["modes"])
            lines.append(f"{modes},{term['amplitude'][0]!r},{term['amplitude'][1]!r}")
        print("\n".join(lines))
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    from .analysis import correlation_table  # loads numpy, which no other command does

    stat = None if args.distinguishable else Statistics.parse(args.statistics)
    circuit = _resolve_circuit(args.protocol)
    out = run_distinguishable(circuit) if stat is None else run(circuit, stat)
    rows = correlation_table(
        out, _parse_grid(args.theta1), _parse_grid(args.theta2), circuit.target_pairs
    )
    if args.format == "json":
        doc = {
            "protocol": args.protocol,
            "statistics": "distinguishable" if stat is None else str(stat),
            "table": [
                {"theta1": _sig(t1), "theta2": _sig(t2), "E": _sig(e)}
                for t1, t2, e in rows
            ],
            "metadata": _metadata(),
        }
        print(json.dumps(doc, indent=2))
    else:
        lines = ["theta1,theta2,E"]
        for t1, t2, e in rows:
            lines.append(f"{_sig(t1)!r},{_sig(t2)!r},{_sig(e)!r}")
        print("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    stat = Statistics.parse(args.statistics)
    token = args.protocol if args.protocol else f"file:{args.file}"
    circuit = _resolve_circuit(token)
    note = None
    report = verify_no_touching(circuit, stat, post_select=not args.accept_all)
    if not args.accept_all and report.histories_checked == 0:
        note = "post-selection accepts no events; verified all histories instead"
        report = verify_no_touching(circuit, stat, post_select=False)
    doc = {
        "protocol": token,
        "statistics": str(stat),
        "verdict": report.verdict,
        "post_selection": not args.accept_all and note is None,
        "histories_total": report.histories_total,
        "histories_checked": report.histories_checked,
        "counterexamples": [
            {
                "stage": ev.stage,
                "location": ev.location,
                "final_modes": list(ev.history.final_modes),
                "amplitude": [
                    _sig(ev.history.amplitude.real),
                    _sig(ev.history.amplitude.imag),
                ],
            }
            for ev in report.counterexamples
        ],
        "metadata": _metadata(),
    }
    if note:
        doc["note"] = note
    print(json.dumps(doc, indent=2))
    return 0 if report.passed else 1


def cmd_synthesize(args: argparse.Namespace) -> int:
    tokens = [tok.strip() for tok in args.target.split(",") if tok.strip()]
    if len(tokens) != 4:
        raise NoTouchError("target must be four comma-separated complex amplitudes")
    try:
        amps = [complex(tok) for tok in tokens]
    except ValueError:
        raise NoTouchError(f"cannot parse target amplitudes {args.target!r}") from None
    if not all(cmath.isfinite(amp) for amp in amps):
        raise NoTouchError(f"target amplitudes {args.target!r} must be finite")
    total = math.sqrt(sum(abs(z) ** 2 for z in amps))
    if total < 1e-12:
        raise NoTouchError("target amplitudes are all zero")
    if abs(total - 1.0) > 1e-6:
        print(f"warning: renormalizing target (norm was {total:.6g})", file=sys.stderr)
    target = QubitState(2, [z * (1.0 / total) for z in amps])
    stat = Statistics.parse(args.statistics)
    circuit = synthesize_two_qubit(target, stat)
    save_circuit(circuit, args.out)
    out = run(circuit, stat)
    achieved = extract_dual_rail(out.accepted, circuit.target_pairs)
    doc = {
        "target": [[_sig(z.real), _sig(z.imag)] for z in target.values],
        "statistics": str(stat),
        "circuit_file": str(args.out),
        "probability": _sig(out.probability),
        "fidelity": _sig(fidelity(achieved, target)),
        "metadata": _metadata(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notouch",
        description=(
            "Simulate single-occupancy linear-optical entanglement protocols "
            "in which post-selected particles never touch."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    stat_help = (
        "particle statistics: boson, fermion or anyon:<theta> "
        "(exchange angle in radians)"
    )
    proto_help = "bell, ghz, w or file:<path> to a circuit JSON file"

    p_run = sub.add_parser("run", help="run a protocol and print the result document")
    p_run.add_argument("--protocol", required=True, help=proto_help)
    p_run.add_argument("--statistics", required=True, help=stat_help)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_cor = sub.add_parser("correlate", help="sweep the two-rail correlation function")
    p_cor.add_argument("--protocol", required=True, help=proto_help)
    group = p_cor.add_mutually_exclusive_group(required=True)
    group.add_argument("--statistics", help=stat_help)
    group.add_argument(
        "--distinguishable",
        action="store_true",
        help="label every particle so only classical correlations remain",
    )
    p_cor.add_argument(
        "--theta1",
        required=True,
        help="angle grid: comma-separated values or start:stop:count (open end)",
    )
    p_cor.add_argument("--theta2", required=True, help="second angle grid")
    p_cor.add_argument("--format", choices=("json", "csv"), default="json")
    p_cor.set_defaults(func=cmd_correlate)

    p_ver = sub.add_parser(
        "verify", help="check that accepted outcomes involve no touching histories"
    )
    sel = p_ver.add_mutually_exclusive_group(required=True)
    sel.add_argument("--protocol", help=proto_help)
    sel.add_argument("--file", help="circuit JSON file")
    p_ver.add_argument("--statistics", required=True, help=stat_help)
    p_ver.add_argument(
        "--accept-all",
        action="store_true",
        help="check every history instead of only post-selected ones",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_syn = sub.add_parser(
        "synthesize", help="build a circuit preparing a given two-qubit state"
    )
    p_syn.add_argument(
        "--target",
        required=True,
        help="four comma-separated complex amplitudes, qubit 1 most significant",
    )
    p_syn.add_argument("--statistics", required=True, help=stat_help)
    p_syn.add_argument("--out", required=True, help="path for the circuit JSON file")
    p_syn.set_defaults(func=cmd_synthesize)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidCircuit as exc:
        print(f"error: invalid circuit: {exc}", file=sys.stderr)
        return 3
    except (NoTouchError, ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
