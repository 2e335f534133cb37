"""Output checks on one cell's written artifacts.

Everything here reads what ``run_experiment`` wrote to the cell's out_dir,
not the in-memory result, so the checks see exactly what leaves the client:

- every final approximation ratio lies in [0, 1];
- an original-arm cell on a noiseless backend reports a sampled final
  expectation within 5 sigma of the exact expectation at its best angles,
  sigma being the standard error of the exact cut distribution at the final
  evaluation's shot count. This checks the sampler against the exact
  distribution rather than against itself;
- extracting the written circuits recovers the full graph from an
  original-arm circuit, a strict subgraph from every pruned circuit, and
  the full graph from the union of a split cell's flavors (the paper's
  partial-knowledge invariants, checked on the artifacts).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Shots of the final re-evaluation at the best angles (obfuscation.optimize).
FINAL_EVAL_SHOTS = 16384
SIGMAS = 5.0


def output_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every written file (relative path and bytes) in path
    order, plus the number of bytes written."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


def _summaries(out_dir: Path) -> list[tuple[str, dict]]:
    out = []
    for path in sorted((out_dir / "traces").glob("*.jsonl")):
        last = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
        out.append((path.name, json.loads(last)["summary"]))
    return out


def check_cell(spec, result, out_dir: Path, graph, noiseless: bool) -> tuple[list[str], list[float]]:
    """(problems found, final ratios) for one single-arm, single-seed cell."""
    from splitcut.adversary import extract_graph
    from splitcut.circuit import ParamVector, build_qaoa
    from splitcut.graph import cut_values_vector
    from splitcut.simulator import run_statevector

    problems = [f"{f['kind']} failure: {f['error']}" for f in result.failures]
    if not result.ok:
        problems.append("run_experiment reported not ok")
    arm = spec.arms[0]
    summaries = _summaries(out_dir)
    if len(summaries) != 1 and not result.failures:
        problems.append(f"expected one trace, found {len(summaries)}")
    finals = []
    for name, s in summaries:
        ar = s["final_ar"]
        finals.append(ar)
        if not 0.0 <= ar <= 1.0:
            problems.append(f"{name}: final_ar {ar} outside [0, 1]")
        if arm == "original" and noiseless:
            params = ParamVector(tuple(s["best_gammas"]), tuple(s["best_betas"]))
            probs = abs(run_statevector(build_qaoa(graph, params))) ** 2
            cuts = cut_values_vector(graph).astype(float)
            mean = float(probs @ cuts)
            var = max(float(probs @ cuts**2) - mean * mean, 0.0)
            sigma = math.sqrt(var / FINAL_EVAL_SHOTS)
            gap = abs(s["final_expectation"] - mean)
            if gap > max(SIGMAS * sigma, 1e-9):
                problems.append(f"{name}: sampled {s['final_expectation']:.6f} vs exact "
                                f"{mean:.6f}, {gap / sigma if sigma else math.inf:.1f} sigma")

    if result.failures:
        return problems, finals
    full = set(graph.edges)
    circuits = sorted((out_dir / "circuits").glob("*.txt"))
    if not circuits:
        problems.append("no circuits written")
    seen_union: set = set()
    for path in circuits:
        seen = set(extract_graph(path.read_text(encoding="utf-8")).recovered_graph.edges)
        seen_union |= seen
        if arm == "original":
            if seen != full:
                problems.append(f"{path.name}: extraction recovered {sorted(seen)}, not the graph")
        elif not seen < full:
            problems.append(f"{path.name}: provider sees {sorted(seen)}, not a strict subgraph")
    if arm == "split" and seen_union != full:
        problems.append(f"split flavors together cover {sorted(seen_union)}, not the graph")
    if arm == "split" and len(circuits) < 2:
        problems.append(f"split cell wrote {len(circuits)} flavor circuit(s)")
    return problems, finals
