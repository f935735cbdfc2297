"""Layer spans for the traced run, recorded without changing notouch.

``Tracer.install`` wraps the public functions of each notouch module by
rebinding the name in every ``notouch.*`` namespace that holds it (for
example ``notouch.engine.apply_gate`` and ``notouch.analysis.apply_gate``),
so calls made inside the package become child spans.  Each span records its
name, start, end, parent span and operation id in flat in-memory columns;
``write`` saves them when the run ends.  Self time is a span's duration
minus the time its children cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

LAYERS = {
    "fock": ("canonicalize", "count_inversions"),
    "circuit": ("validate_circuit", "synthesize_two_qubit"),
    "engine": ("run", "run_distinguishable", "inject", "apply_gate", "post_select", "extract_dual_rail"),
    "analysis": ("correlation", "correlation_table", "chsh_grid_max", "chsh_value"),
    "paths": ("enumerate_histories", "verify_no_touching"),
}


def _count_gate_terms(counters, args, result):
    counters["engine.apply_gate.terms_in"] += args[0].num_terms
    counters["engine.apply_gate.terms_out"] += result.num_terms


def _count_selected_terms(counters, args, result):
    counters["engine.post_select.terms_in"] += args[0].num_terms
    counters["engine.post_select.terms_kept"] += result[0].num_terms


def _count_histories(counters, args, result):
    counters["paths.histories_total"] += result.histories_total
    counters["paths.histories_checked"] += result.histories_checked


# Counts taken where the work happens, from a call's arguments and result.
HOOKS = {
    "engine.apply_gate": _count_gate_terms,
    "engine.post_select": _count_selected_terms,
    "paths.verify_no_touching": _count_histories,
}


class Tracer:
    def __init__(self):
        self.labels = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
        self.label = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1  # set by the caller before each operation
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._bindings: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "notouch" or name.startswith("notouch.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"notouch.{layer}")
            if home is None:  # never imported, so never called: its metrics stay 0
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapper)
                        self._bindings.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in self._bindings:
            setattr(module, name, original)
        self._bindings.clear()

    def _wrap(self, label: str, fn):
        index = self.labels.index(label)
        hook = HOOKS.get(label)
        labels, parents, ops, starts, ends = self.label, self.parent, self.op, self.start, self.end
        stack, counters, clock, tracer = self._stack, self.counters, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            span = len(starts)
            labels.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _columns(self):
        import numpy as np

        return (
            np.frombuffer(self.label, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def layer_metrics(self, num_ops: int, op_seconds: float) -> dict:
        """Per-operation calls and self time of every wrapped function, the
        hook counts and ratios, and the share of operation time in spans."""
        import numpy as np

        label, parent, start, end = self._columns()
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_ns = duration - children
        calls = np.bincount(label, minlength=len(self.labels))
        self_total = np.bincount(label, weights=self_ns, minlength=len(self.labels))
        ops = max(num_ops, 1)
        metrics = {}
        for index, name in enumerate(self.labels):
            metrics[f"{name}.calls"] = calls[index] / ops
            metrics[f"{name}.self_ms"] = self_total[index] / 1e6 / ops
        c = self.counters
        for key in ("engine.apply_gate.terms_in", "engine.apply_gate.terms_out",
                    "paths.histories_total", "paths.histories_checked"):
            metrics[key] = c[key] / ops
        metrics["engine.post_select.accept_ratio"] = _ratio(
            c["engine.post_select.terms_kept"], c["engine.post_select.terms_in"]
        )
        metrics["paths.checked_ratio"] = _ratio(c["paths.histories_checked"], c["paths.histories_total"])
        metrics["trace.coverage"] = _ratio(duration[~nested].sum() / 1e9, op_seconds)
        return {k: float(v) for k, v in metrics.items()}

    def write(self, path) -> None:
        import numpy as np

        label, parent, start, end = self._columns()
        np.savez(
            path,
            labels=np.array(self.labels),
            label=label,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int64),
            start=start,
            end=end,
        )


def _ratio(numerator, denominator) -> float:
    return float(numerator / denominator) if denominator else 0.0
