"""One benchmark process: set up, report readiness, then measure or trace.

run.py starts this script from the root of a checkout:

    python3 perfbench/worker.py --workload ring_state --seed 1 --seconds 30 --mode measure

``--mode probe`` sets up and exits, ``measure`` runs the untraced timed
loop, and ``trace`` runs an untraced pass and then a traced pass over the
same inputs.  Set-up is ``import notouch`` and one warm-up operation; once
it is done the worker prints ``PERFBENCH READY``.
Input generation and result checks happen between operations, outside the
timed region.  The last line is ``PERFBENCH RESULT`` followed by JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import bell_tests
import calibration
import ring_state

WORKLOADS = {
    "ring_state": ring_state.RingState,
    "bell_tests": bell_tests.BellTests,
}
MAX_FAILURE_MESSAGES = 5


def emit(kind: str, payload=None) -> None:
    line = f"PERFBENCH {kind}"
    if payload is not None:
        line += " " + json.dumps(payload)
    print(line, flush=True)


def checked(workload, spec, result) -> list[str]:
    try:
        return workload.check(spec, result)
    except Exception as exc:  # an unreadable result is a failed operation
        return [f"check raised {type(exc).__name__}: {exc}"]


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: run whole input blocks until the operations
    have taken ``seconds`` in total.  A wall-clock deadline bounds the run if
    checks or input generation ever dominate.  One calibration unit is timed
    between consecutive operations, so each operation's latency can be
    rescaled to reference host speed from the units on either side of it."""
    latencies, scales, failures = [], [], []
    busy = 0.0
    deadline = time.perf_counter() + 2 * seconds + 10
    unit_before = calibration.time_unit()
    for block in workload.blocks(seed):
        for spec in block:
            if tracer is not None:
                tracer.op_id = len(latencies)
            error = None
            t0 = time.perf_counter()
            try:
                result = workload.operate(spec)
            except Exception as exc:  # counted as a failure; the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            unit_after = calibration.time_unit()
            latencies.append(latency)
            scales.append(calibration.scale(unit_before, unit_after))
            unit_before = unit_after
            busy += latency
            errors = [error] if error else checked(workload, spec, result)
            if errors:
                failures.append("; ".join(errors))
        if busy >= seconds or time.perf_counter() > deadline:
            break
    return {"latencies_s": latencies, "scales": scales, "failures": failures}


def trace(workload, seed: int, seconds: float, out_dir: Path) -> tuple[list, dict]:
    """A third of the time untraced, then two thirds traced on the same inputs."""
    from tracing import Tracer

    plain = measure(workload, seed, seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, seed, 2 * seconds / 3, tracer)
    finally:
        tracer.uninstall()
    lat_plain, lat_traced = plain["latencies_s"], traced["latencies_s"]
    k = min(len(lat_plain), len(lat_traced))
    ops = len(lat_traced)
    layers = tracer.layer_metrics(ops, sum(lat_traced))
    layers["trace.overhead_ratio"] = scaled_sum(traced, k) / scaled_sum(plain, k)
    tracer.write(out_dir / f"spans_{workload.name}.npz")
    return [plain, traced], layers


def scaled_sum(run: dict, count: int) -> float:
    """Reference-speed seconds of the first ``count`` operations of a run."""
    return sum(x * f for x, f in zip(run["latencies_s"][:count], run["scales"][:count]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]()
    workload.setup()
    notouch = sys.modules["notouch"]
    if src not in Path(notouch.__file__).resolve().parents:
        print(f"error: imported notouch from {notouch.__file__}, not {src}", file=sys.stderr)
        return 2
    warmup = workload.warmup_spec()
    try:
        result, problems = workload.operate(warmup), []
    except Exception as exc:  # reported as a failed warm-up
        result, problems = None, [f"warm-up raised {type(exc).__name__}: {exc}"]
    emit("READY")
    if args.mode == "probe":
        return 0
    if not problems:
        problems = checked(workload, warmup, result)
    layers = None
    if args.mode == "measure":
        passes = [measure(workload, args.seed, args.seconds)]
    else:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        passes, layers = trace(workload, args.seed, args.seconds, out_dir)

    failures = [msg for p in passes for msg in p["failures"]]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    numpy = sys.modules.get("numpy")
    emit(
        "RESULT",
        {
            "latencies_s": passes[0]["latencies_s"],
            "scales": passes[0]["scales"],
            "attempted": sum(len(p["latencies_s"]) for p in passes),
            "failed": len(failures),
            "failures": failures[:MAX_FAILURE_MESSAGES],
            "warmup": problems,
            "peak_rss_kb": rss_kb,
            "layers": layers,
            "python": platform.python_version(),
            "numpy": numpy.__version__ if numpy else None,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
