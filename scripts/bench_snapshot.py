"""Write ``BENCH_<label>.json`` at the repository root: one point of the
bench trajectory.

    python3 scripts/bench_snapshot.py --label mychange

It records, for the checkout the script sits in:

- the environment, as ``perfbench/run.py`` records it;
- per ``perfbench`` workload, the median of each end-to-end metric over a
  few seeds of ``perfbench/run.py --trace 0``, each run in its own process,
  plus every run's value and first-round digest; and, over the same seeds
  of ``perfbench/run.py --trace 1``, the median of each per-layer metric
  with every run's value, and the ``missing_targets`` (span targets that
  no longer exist in the code);
- ``compile_flavor`` plus ``optimize`` on graph6 at p=2 (the default 50
  iterations and 4096 shots): SPSA on the noiseless ``ideal1`` and the
  noisy ``hw1`` profile, and Nelder-Mead on perfbench's routed ``line1``
  profile (``perfbench/line6_backends.json``), in seconds and in ms per
  evaluation (median of a few runs in this process). Each run compiles its
  flavor afresh, so the time covers the build, the route and the kernel as
  well as the evaluations. ``compile_ms`` is that compile alone
  (``compile_flavor`` plus the flavor's kernel and cut vector), the fixed
  cost a cell pays per flavor before its first evaluation.
  The runs go under perfbench's ``speed.SpeedSampler``: ``s``,
  ``ms_per_eval`` and ``compile_ms`` are wall time less the probes inside
  the run, and ``reference_s``, ``ms_per_eval_reference`` and
  ``compile_ms_reference`` the same converted to idle-machine seconds as
  ``perfbench/run.py`` converts cell times, which are the ones to compare
  across hosts. ``ms_per_eval_reference_runs`` and
  ``compile_ms_reference_runs`` hold every repeat's value behind those two
  medians, which move by tens of percent between runs on a shared host;
- the Tier-1 test suite's wall time and pass count (``PYTHONPATH=src
  python -m pytest -q --continue-on-collection-errors``).
- ``src_lines``, the total ``wc -l`` of ``src/splitcut/*.py``: the
  "least code" measure of the design aim in ROADMAP.md.

With three seeds per workload, each run, traced or not, as long as
``BENCHMARK.json``'s ``run_seconds`` (30 s), it takes about a quarter of an
hour on a 2-vCPU machine.
Run nothing else meanwhile: the numbers other than the reference times
are wall times.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, sleep

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEEDS = (1, 2, 3)  # perfbench workload seeds, untraced and traced
OPTIMIZE_REPEATS = 5

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (perfbench's own helpers: thread pins, source path)


def run_workload(name: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads((ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{trace}.json").read_text())


def workload_summary(records: list[dict]) -> dict:
    names = records[0]["metrics"]
    return {
        "seeds": [r["seed"] for r in records],
        "cells": [r["cells"] for r in records],
        "first_round_sha256": [r["first_round_sha256"][:16] for r in records],
        "metrics": {
            name: {"median": median(r["metrics"][name]["value"] for r in records),
                   "unit": records[0]["metrics"][name]["unit"],
                   "runs": [r["metrics"][name]["value"] for r in records]}
            for name in names
        },
    }


# backend -> (its profiles file, None for the bundled one; optimizer)
OPTIMIZE_RUNS = {"ideal1": (None, "spsa"), "hw1": (None, "spsa"),
                 "line1": (BENCH / "line6_backends.json", "nelder_mead")}


def time_optimize(backend_name: str, sampler) -> tuple[list, list, object]:
    """OPTIMIZE_REPEATS runs under the running ``sampler``: each run's
    (start, end, wall time less the probes inside it), the same for the
    run's compile (``compile_flavor`` plus its kernel and cut vector), and
    the last trace."""
    from splitcut.graph import benchmark_graph
    from splitcut.obfuscation import PrunedFlavor, compile_flavor, optimize
    from splitcut.simulator import load_backend_profiles

    profiles, optimizer = OPTIMIZE_RUNS[backend_name]
    g = benchmark_graph("graph6")
    flavor = PrunedFlavor((), load_backend_profiles(profiles)[backend_name])
    runs, compiles, trace = [], [], None
    for _ in range(OPTIMIZE_REPEATS):
        probed, t0 = sampler.probe_total, perf_counter()
        compiled = compile_flavor(g, flavor, 2)
        _ = compiled.cut  # builds the kernel too; optimize would build both on first use
        t1, compile_probed = perf_counter(), sampler.probe_total - probed
        trace = optimize((compiled,), optimizer=optimizer, seed=0)
        t2 = perf_counter()
        compiles.append((t0, t1, t1 - t0 - compile_probed))
        runs.append((t0, t2, t2 - t0 - (sampler.probe_total - probed)))
    return runs, compiles, trace


def optimize_graph6_p2() -> dict:
    """``time_optimize`` on each of ``OPTIMIZE_RUNS``, with the medians of
    the raw and the reference times."""
    from speed import WINDOW_PAD_S, SpeedSampler  # imports numpy, so after the thread pins

    with SpeedSampler() as sampler:
        sleep(WINDOW_PAD_S)  # so the first and last runs have probes on both sides
        timed = {b: time_optimize(b, sampler) for b in OPTIMIZE_RUNS}
        sleep(WINDOW_PAD_S)
    out = {}
    for b, (runs, compiles, trace) in timed.items():
        s = median(wall for _, _, wall in runs)
        eval_refs = [1e3 * sampler.reference_s(*run) / trace.evaluations for run in runs]
        compile_refs = [1e3 * sampler.reference_s(*c) for c in compiles]
        out[b] = {"backend": b, "optimizer": OPTIMIZE_RUNS[b][1], "s": s, "s_first": runs[0][2],
                  "reference_s": median(sampler.reference_s(*run) for run in runs),
                  "evaluations": trace.evaluations,
                  "ms_per_eval": 1e3 * s / trace.evaluations,
                  "ms_per_eval_reference": median(eval_refs), "ms_per_eval_reference_runs": eval_refs,
                  "compile_ms": 1e3 * median(wall for _, _, wall in compiles),
                  "compile_ms_reference": median(compile_refs), "compile_ms_reference_runs": compile_refs,
                  "final_ar": trace.final_ar}
    return out


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "splitcut").glob("*.py"))


def run_tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    wall = perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)",
                                                          tail)}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "skipped": counts.get("skipped", 0), "summary": tail, "command": " ".join(argv[1:])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out: dict = {"label": args.label, "perfbench_seconds": seconds, "src_lines": src_lines(),
                 "workloads": {}}
    for name in workloads.WORKLOADS:
        records = [run_workload(name, seed, seconds) for seed in SEEDS]
        out.setdefault("environment", records[0]["environment"])
        out["workloads"][name] = workload_summary(records)
        print(f"{name}: " + ", ".join(f"{k}={v['median']:.4g}"
                                      for k, v in out["workloads"][name]["metrics"].items()),
              file=sys.stderr)
        traced = [run_workload(name, seed, seconds, trace=1) for seed in SEEDS]
        summary = workload_summary(traced)
        summary["missing_targets"] = sorted({t for r in traced for t in r["missing_targets"]})
        out["workloads"][name]["trace"] = summary
        print(f"{name} traced: {len(summary['metrics'])} per-layer metrics, missing targets: "
              f"{', '.join(summary['missing_targets']) or 'none'}", file=sys.stderr)

    out["tier1"] = run_tier1()
    print(f"tier-1: {out['tier1']['summary']} ({out['tier1']['wall_s']:.1f} s wall)",
          file=sys.stderr)

    # One thread, as perfbench runs; numpy is first imported after this.
    workloads.pin_threads()
    workloads.add_source_path()
    out["optimize_graph6_p2"] = optimize_graph6_p2()
    for b, m in out["optimize_graph6_p2"].items():
        print(f"optimize graph6 p=2 {b} {m['optimizer']}: {m['s']:.3f} s, "
              f"{m['ms_per_eval']:.3f} ms/eval, {m['ms_per_eval_reference']:.3f} reference ms/eval, "
              f"{m['compile_ms']:.3f} ms compile", file=sys.stderr)

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
