"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
* the GHZ ring builder at n = 3 gives notouch's ``ghz_circuit()`` layout;
* every workload passes its checks at its smallest size;
* with every reference deliberately corrupted, every operation fails, so
  the checks can be seen to fail;
* the traced harness reports every per-layer metric in BENCHMARK.json and
  sees calls in the layers each workload uses;
* run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and perfbench/.
It prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import bell_tests
import reference
import ring_state
import worker

SEED = 7


def smallest():
    return [
        ring_state.RingState(sizes=(3,)),
        bell_tests.BellTests(grid=3, resolution_deg=30.0),
    ]


@contextmanager
def corrupted_references(factor: float = 1.01):
    """Scale every expected value by ``factor``."""
    saved = dict(vars(reference))

    def scaled(fn):
        def wrong(*args):
            value = fn(*args)
            if isinstance(value, tuple):
                return tuple(factor * v for v in value)
            if isinstance(value, list):
                return [[factor * x for x in row] for row in value]
            return factor * value

        return wrong

    for name in ("ring_amplitudes", "correlation_matrix"):
        setattr(reference, name, scaled(saved[name]))
    reference.DISTINGUISHABLE_TABLE = [[factor, 0.0], [0.0, 0.0]]
    try:
        yield
    finally:
        vars(reference).update(saved)


# Layers each workload must reach in a traced run, by a metric that is then > 0.
EXPECTED_LAYERS = {
    "ring_state": ("fock.canonicalize.calls", "engine.apply_gate.calls",
                   "paths.enumerate_histories.calls", "engine.post_select.accept_ratio"),
    "bell_tests": ("circuit.synthesize_two_qubit.self_ms", "analysis.correlation.calls",
                   "analysis.chsh_value.calls", "engine.apply_gate.calls"),
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    temp = root / ".perfbench_out" / "selftest"
    temp.mkdir(parents=True, exist_ok=True)
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    added_by_run = {"cli.interpreter_ms", "cli.import_ms"}
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)

    try:
        import notouch
        from notouch.circuit import circuit_to_dict

        ring = ring_state.build_ring(notouch, (ring_state.HADAMARD,) * 3)
        report(circuit_to_dict(ring) == circuit_to_dict(notouch.ghz_circuit()),
               "build_ring at n = 3 gives the layout of ghz_circuit()")

        for w in smallest():
            w.setup()
            run = worker.measure(w, SEED, 0)
            n, bad = len(run["latencies_s"]), len(run["failures"])
            report(bad == 0, f"{w.name} at its smallest size: {bad}/{n} failed {run['failures'][:1]}")
            with corrupted_references():
                run = worker.measure(w, SEED, 0)
            n, bad = len(run["latencies_s"]), len(run["failures"])
            report(n > 0 and bad == n, f"{w.name} with corrupted references: {bad}/{n} failed")

        for w in smallest():
            w.setup()
            passes, layers = worker.trace(w, SEED, 0, temp)
            missing = [m["name"] for m in declared if m["name"] not in layers and m["name"] not in added_by_run]
            idle = [name for name in EXPECTED_LAYERS[w.name] if not layers[name] > 0]
            failed = sum(len(p["failures"]) for p in passes)
            report(not missing and not idle and failed == 0 and 0 < layers["trace.coverage"] <= 1,
                   f"{w.name} traced: missing {missing}, idle {idle}, {failed} failed, "
                   f"coverage {layers['trace.coverage']:.3f}")

        bare = temp / "bare"
        shutil.copytree(root / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ring_state", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        report(proc.returncode != 0 and not proc.stdout.strip(),
               f"run.py without src/ exits {proc.returncode} with no result")
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    print(f"{failures} self-test check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
