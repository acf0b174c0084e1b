"""Spans around the library's public layer functions, installed from outside.

A function imported by name (``from .numerics import matrix_exp``) is a
separate binding in the importing module, so the tracer replaces every
binding of each traced function in every loaded ``oqho_memory`` module and
puts the originals back on exit.  Spans are kept in memory as
(name, start, end, parent) tuples; self time is a span's duration minus
the time its direct children cover.  Some results also carry counters
(bisection steps, solver path), read from the returned report.
"""

import importlib
import sys
import time
from collections import defaultdict

LAYERS = {
    "numerics": ["matrix_exp", "solve_lyapunov", "solve_sylvester",
                 "solve_symmetric_constrained", "sqrt_psd"],
    "dynamics": ["delta", "delta_derivatives"],
    "decoherence": ["decoherence_time"],
    "design": ["optimal_energy_matrix", "zero_hamiltonian_condition"],
    "network": ["assemble", "optimal_r12"],
    "model": ["classify_spectrum", "build_realization"],
    "cli": ["load_scenario", "main"],
}

# Counters read from return values: span name -> result -> {counter: increment}.
RESULT_COUNTERS = {
    "decoherence.decoherence_time": lambda r: {"decoherence.bisection_iterations": r.bisection_iterations},
    "design.optimal_energy_matrix": lambda r: {f"design.method.{r.method}": 1},
    "network.optimal_r12": lambda r: {f"network.method.{r[2]}": 1},
}
METHOD_COUNTERS = ["design.method.ALE", "design.method.LeastSquares",
                   "network.method.Sylvester", "network.method.LeastSquares"]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name, func):
        spans, stack, counters = self.spans, self._stack, self.counters
        extract = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if extract is not None:
                for key, inc in extract(result).items():
                    counters[key] += inc
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "oqho_memory" or key.startswith("oqho_memory."))]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"oqho_memory.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def summary(self, per):
        """Per-layer metrics averaged over `per` operations."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]

        metrics = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                metrics[f"{key}.calls"] = (calls[key] / per, "calls/op")
                metrics[f"{key}.s"] = (total[key] / per, "s/op")
                metrics[f"{key}.self_s"] = (self_time[key] / per, "s/op")
        taus = calls["decoherence.decoherence_time"]
        metrics["decoherence.delta_calls_per_tau"] = (
            calls["dynamics.delta"] / taus if taus else 0.0, "calls/tau")
        metrics["decoherence.bisection_iterations"] = (
            self.counters["decoherence.bisection_iterations"] / taus if taus else 0.0, "steps/tau")
        for key in METHOD_COUNTERS:
            metrics[key] = (self.counters[key] / per, "calls/op")
        return metrics
