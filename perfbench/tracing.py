"""Span shims for the traced run.

Each target is a public function of one splitcut layer, patched at the
name its caller imports (``splitcut.obfuscation.run_shots`` is the name
``optimize`` calls, ``splitcut.harness.optimize`` the one
``run_experiment`` calls). A shim records one span per call: name, start,
end, parent span, cell id, and an optional value read from the call's
result. Spans stay in memory until the run ends. Shims are installed only
around traced cells and restored afterwards, so untraced cells run the
unmodified program.

A target that no longer exists is listed in ``Tracer.missing`` and skipped,
so a later refactor that moves a function keeps the benchmark running.
"""
from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from statistics import median
from time import perf_counter


# (module, attribute, span name, value read from the result)
TARGETS = (
    ("splitcut.harness", "make_split_plan", "obfuscation.make_split_plan", None),
    ("splitcut.harness", "optimize", "obfuscation.optimize", lambda t: t.evaluations),
    ("splitcut.harness", "extract_graph", "adversary.extract_graph", lambda r: r.swap_count),
    ("splitcut.harness", "compute_overhead", "harness.compute_overhead", None),
    ("splitcut.harness", "build_qaoa", "circuit.build_qaoa", lambda c: len(c.gates)),
    ("splitcut.harness", "transpile", "circuit.transpile", lambda r: r.swap_count),
    ("splitcut.harness", "serialize", "circuit.serialize", len),
    ("splitcut.obfuscation", "build_qaoa", "circuit.build_qaoa", lambda c: len(c.gates)),
    ("splitcut.obfuscation", "transpile", "circuit.transpile", lambda r: r.swap_count),
    ("splitcut.obfuscation", "run_shots", "simulator.run_shots",
     lambda r: (r.shots, len(r.counts))),
    ("splitcut.obfuscation", "remap_counts", "simulator.remap_counts", None),
    ("splitcut.obfuscation", "expectation_full_cost", "simulator.expectation_full_cost", None),
    ("splitcut.obfuscation", "max_cut_bruteforce", "graph.max_cut_bruteforce", None),
    ("splitcut.simulator", "serialize", "circuit.serialize", len),
    ("splitcut.optimizers", "Spsa.step", "optimizers.step", len),
    ("splitcut.optimizers", "NelderMead.step", "optimizers.step", len),
)

RUN_EXPERIMENT = "harness.run_experiment"


class Tracer:
    """In-memory span recorder. Single-threaded, like the benchmark."""

    def __init__(self):
        # [name, start, end, parent index or -1, cell id, value]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.cell = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.cell, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if value is not None:
                spans[idx][5] = value(out)
            return out

        return shim

    @contextmanager
    def installed(self):
        """Patch every target that exists; restore all of them on exit."""
        restore = []
        try:
            for module_name, attr, name, value in TARGETS:
                owner, leaf, original = _resolve(module_name, attr)
                if original is None:
                    label = f"{module_name}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                restore.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, value))
            yield
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cell": cell, "value": value}) + "\n")


def _resolve(module_name: str, attr: str):
    """(owner, leaf name, current function) for a target, or Nones.

    A method must be defined on the named class itself, so that restoring
    it puts back exactly what was there."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = vars(owner).get(leaf)
    if not callable(original):
        return None, None, None
    return owner, leaf, original


def layer_metrics(spans: list[list], n_cells: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``n_cells`` traced cells.

    Calls and self times are per cell; the other values (gates, swaps,
    bytes, outcomes, evaluations) are means over the calls that produced
    them. A layer that was never called reports zero.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    values: dict[str, list] = {}
    for i, (name, start, end, _, _, value) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        durations.setdefault(name, []).append(end - start)
        if value is not None:
            values.setdefault(name, []).append(value)

    def per_cell(x: float) -> float:
        return x / n_cells

    def mean_value(name: str, pick=lambda v: v) -> float:
        vs = values.get(name, [])
        return sum(pick(v) for v in vs) / len(vs) if vs else 0.0

    def self_ms(name: str) -> float:
        return per_cell(self_s.get(name, 0.0) * 1e3)

    shots = values.get("simulator.run_shots", [])
    run_shots_durations = durations.get("simulator.run_shots", [])
    return {
        "simulator.run_shots.calls": per_cell(calls.get("simulator.run_shots", 0)),
        "simulator.run_shots.self_ms": self_ms("simulator.run_shots"),
        "simulator.run_shots.ms_p50": median(run_shots_durations) * 1e3 if run_shots_durations else 0.0,
        "simulator.shots": per_cell(sum(s for s, _ in shots)),
        "simulator.distinct_outcomes": mean_value("simulator.run_shots", lambda v: v[1]),
        "simulator.expectation_full_cost.self_ms": self_ms("simulator.expectation_full_cost"),
        "simulator.remap_counts.self_ms": self_ms("simulator.remap_counts"),
        "circuit.transpile.calls": per_cell(calls.get("circuit.transpile", 0)),
        "circuit.transpile.self_ms": self_ms("circuit.transpile"),
        "circuit.swaps_per_route": mean_value("circuit.transpile"),
        "circuit.build_qaoa.calls": per_cell(calls.get("circuit.build_qaoa", 0)),
        "circuit.build_qaoa.self_ms": self_ms("circuit.build_qaoa"),
        "circuit.gates_per_circuit": mean_value("circuit.build_qaoa"),
        "circuit.serialize.calls": per_cell(calls.get("circuit.serialize", 0)),
        "circuit.serialize.self_ms": self_ms("circuit.serialize"),
        "circuit.wire_bytes": mean_value("circuit.serialize"),
        "optimizers.step.calls": per_cell(calls.get("optimizers.step", 0)),
        "optimizers.step.self_ms": self_ms("optimizers.step"),
        "optimizers.evals_per_step": mean_value("optimizers.step"),
        "obfuscation.optimize.calls": per_cell(calls.get("obfuscation.optimize", 0)),
        "obfuscation.optimize.self_ms": self_ms("obfuscation.optimize"),
        "obfuscation.evaluations": mean_value("obfuscation.optimize"),
        "obfuscation.make_split_plan.self_ms": self_ms("obfuscation.make_split_plan"),
        "adversary.extract_graph.calls": per_cell(calls.get("adversary.extract_graph", 0)),
        "adversary.extract_graph.self_ms": self_ms("adversary.extract_graph"),
        "adversary.swaps_undone": mean_value("adversary.extract_graph"),
        "graph.max_cut_bruteforce.calls": per_cell(calls.get("graph.max_cut_bruteforce", 0)),
        "graph.max_cut_bruteforce.self_ms": self_ms("graph.max_cut_bruteforce"),
        "harness.run_experiment.self_ms": self_ms(RUN_EXPERIMENT),
        "harness.compute_overhead.self_ms": self_ms("harness.compute_overhead"),
    }
