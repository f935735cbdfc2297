"""notouch benchmark: one seeded workload, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_state --seed 1 --seconds 50 --trace 0

Workloads and metric names come from BENCHMARK.json.  With ``--trace 0`` the
run reports the end-to-end metrics: throughput, median and tail latency per
operation, set-up time (the median of several fresh processes) and peak
memory.  Timings are rescaled to reference host speed with the calibration
unit in calibration.py; the times as measured are printed beside them.
With ``--trace 1`` it reports the per-layer metrics from spans around
notouch's public functions, plus interpreter and import cost.  Every
operation's result is checked against a reference that does not use
notouch.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 when a result was printed, even if checks failed, and
non-zero when the benchmark could not run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

SETUP_PROBES = 10  # fresh processes whose set-up time makes the median
STARTUP_SAMPLES = 5  # interpreter and import probes in a traced run
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
MIN_TAIL_BEYOND = 10  # samples that must lie above the reported tail


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def tail_latency(sorted_values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns the value, its percentile and the number of samples above it.
    With ten samples or fewer it falls back to the maximum.
    """
    n = len(sorted_values)
    if n <= MIN_TAIL_BEYOND:
        return sorted_values[-1], 100.0, 0
    index = n - MIN_TAIL_BEYOND - 1
    return sorted_values[index], 100.0 * (index + 1) / n, MIN_TAIL_BEYOND


class Checkout:
    def __init__(self, root: Path):
        self.root = root
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        # A fixed hash seed gives every process the same dict and set layouts.
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), PYTHONHASHSEED="0")

    def worker(self, workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict | None]:
        """Run worker.py; return seconds from spawn to READY and its result."""
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        timeout = PROBE_TIMEOUT_S if mode == "probe" else WORKER_TIMEOUT_S
        try:
            first = proc.stdout.readline()  # the worker prints READY once it is set up
            ready = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=timeout)
        except BaseException:  # a timeout or an interrupt: stop the worker first
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
        results = [line.split(" ", 2)[2] for line in rest.splitlines() if line.startswith("PERFBENCH RESULT")]
        if not first.startswith("PERFBENCH READY") or (mode != "probe" and not results):
            raise BenchmarkError(f"{mode} worker ended without reporting")
        return ready, json.loads(results[0]) if results else None

    def setup_time(self, workload: str) -> tuple[float, float]:
        """Seconds from spawn to READY of a fresh probe worker, at reference
        host speed and as measured."""
        unit_before = calibration.time_unit()
        ready, _ = self.worker(workload, 0, 0, "probe")
        return ready * calibration.scale(unit_before, calibration.time_unit()), ready

    def startup_ms(self, code: str) -> float:
        """Median wall time of ``python -c code`` in a fresh interpreter."""
        samples = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                           check=True, timeout=PROBE_TIMEOUT_S)
            samples.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(samples)


def end_to_end(checkout: Checkout, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    calibration.time_unit()  # the first unit in a process runs cold
    before = SETUP_PROBES // 2  # the rest follow the timed run, to sample a wider stretch of time
    setups = [checkout.setup_time(workload) for _ in range(before)]
    _, result = checkout.worker(workload, seed, seconds, "measure")
    setups += [checkout.setup_time(workload) for _ in range(SETUP_PROBES - before)]
    wall_ms = sorted(x * 1e3 for x in result["latencies_s"])
    ref_ms = sorted(x * f * 1e3 for x, f in zip(result["latencies_s"], result["scales"]))
    tail, percentile, beyond = tail_latency(ref_ms)
    metrics = {
        "ops_per_s": len(ref_ms) / (sum(ref_ms) / 1e3),
        "op_p50_ms": statistics.median(ref_ms),
        "op_tail_ms": tail,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = [
        f"{len(ref_ms)} timed operations; op_tail_ms is the p{percentile:.1f} "
        f"with {beyond} samples beyond it",
        f"timings are at reference host speed (one calibration unit = "
        f"{calibration.REFERENCE_S * 1e3:g} ms); at the host's own speed during this run: "
        f"ops_per_s {len(wall_ms) / (sum(wall_ms) / 1e3):.6g}, "
        f"op_p50_ms {statistics.median(wall_ms):.6g}, op_tail_ms {tail_latency(wall_ms)[0]:.6g}, "
        f"setup_s {statistics.median(w for _, w in setups):.6g}",
        f"set-up samples, reference speed (s): {', '.join(f'{s:.4f}' for s, _ in setups)}",
    ]
    return metrics, result, notes


def traced(checkout: Checkout, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    _, result = checkout.worker(workload, seed, seconds, "trace")
    metrics = dict(result["layers"])
    interpreter = checkout.startup_ms("pass")
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = checkout.startup_ms("import notouch") - interpreter
    return metrics, result, [f"spans written to .perfbench_out/spans_{workload}.npz"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "notouch" / "__init__.py").is_file():
        print(f"error: {root} holds no src/notouch to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    measure = traced if args.trace else end_to_end
    try:
        metrics, result, notes = measure(Checkout(root), args.workload, args.seed, args.seconds)
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "metrics": metrics, "notes": notes, "worker": result}
    (out_dir / f"{args.workload}_trace{args.trace}.json").write_text(json.dumps(record))

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["warmup"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    for note in notes:
        print(note)
    for message in result["warmup"] + result["failures"]:
        print(f"FAILED: {message}")
    print(f"machine: nproc {os.cpu_count()}, python {result['python']}, "
          f"numpy {result['numpy'] or 'not loaded'}")
    for m in declared:
        print(f"{m['name']:36s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
