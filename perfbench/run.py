"""splitcut benchmark: one closed-loop client driving ``run_experiment``.

    python3 perfbench/run.py --workload ideal-grid --seed 1 --seconds 30 --trace 0

One client in one process and one thread sends one experiment cell at a
time (a one-arm, one-layer-count, one-seed spec, outputs written to a fresh
out_dir as ``splitcut run --out`` does) and sends the next only when the
previous one has returned. Cells come in rounds (see workloads.py); the run
stops at the round boundary nearest to ``--seconds``. Every cell's written
outputs are checked (checks.py) and hashed. Cell times are converted to
idle-machine seconds with a speed probe (speed.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every cell
twice, once plain and once with span shims installed (tracing.py),
alternating which goes first, and prints the per-layer metrics plus
``trace_overhead_frac``, the traced time over the plain time of the same
cells (both in idle-machine seconds), minus one. The two runs of a cell
must write identical outputs. Span times are raw wall time and include the
speed probe when it fires inside a span (about 1%).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment, digests, set-up
samples, failures) goes to ``.perfbench_out/`` in the checkout, and the
traced run's spans to a JSON-lines file beside it. The exit code is 0 iff
every cell ran and passed its checks; it is 2, with nothing on stdout, when
the checkout has no ``src/splitcut``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter

import workloads
from checks import check_cell, output_digest
from speed import SpeedSampler
from tracing import RUN_EXPERIMENT, Tracer, layer_metrics
from workloads import BENCH_DIR, ROOT, THREAD_ENV, WORKLOADS

OUT_DIR = ROOT / ".perfbench_out"
# Set-up probes per run: some before the timed loop and the rest after it,
# so the median spans the run rather than one moment of machine load.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 4
PROBE_TIMEOUT_S = 60
# Process start and imports slow down with host load much as a set-up does
# (their times correlate at 0.8), while the CPU probe of speed.py does not
# track them. So each set-up is scaled by a bare interpreter start that
# imports numpy, timed just before and just after it. The reference is
# roughly that start's time on an idle 2-vCPU Xeon VM at 2.0 GHz.
BARE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REFERENCE_BARE_START_S = 0.15

END_TO_END_UNITS = {
    "cell_s_p50": "s",
    "evals_per_s": "1/s",
    "final_ar_mean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "calls": "calls/cell",
    "self_ms": "ms/cell",
    "ms_p50": "ms",
    "simulator.shots": "shots/cell",
    "circuit.wire_bytes": "bytes",
    "harness.output_bytes": "bytes/cell",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Cell:
    spec: dict
    start: float
    end: float
    wall_s: float  # end - start, less any speed-probe time inside
    reference_s: float = 0.0  # wall_s at idle-machine speed (speed.py)
    evaluations: int = 0
    finals: list[float] = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def run_cell(spec_dict: dict, *, prepared, run_experiment, tmp_root: Path, sampler) -> Cell:
    """Run one cell through ``run_experiment`` and check what it wrote.
    Only the ``run_experiment`` call is timed."""
    from splitcut.harness import ExperimentSpec

    spec = ExperimentSpec.from_dict(spec_dict)
    out_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        probed = sampler.probe_total
        t0 = perf_counter()
        try:
            result = run_experiment(spec, out_dir=out_dir)
            error = None
        except Exception as exc:  # a broken cell is counted, not fatal
            error = f"run_experiment raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        probed = sampler.probe_total - probed
        cell = Cell(spec_dict, t0, t1, t1 - t0 - probed)
        if error is not None:
            cell.problems.append(error)
            return cell
        cell.evaluations = sum(t.evaluations for t in result.traces.values())
        graph = prepared.graphs[spec.graph]
        noiseless = not prepared.profiles[spec.backends[0]].is_noisy
        cell.problems, cell.finals = check_cell(spec, result, out_dir, graph, noiseless)
        cell.digest, cell.output_bytes = output_digest(out_dir)
        return cell
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def time_to_ready(argv: list[str]) -> float:
    """Wall time from spawning ``argv`` to its ``ready`` line; the child is
    then waited for."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[1]} failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(workload_name: str, count: int) -> list[tuple[float, float]]:
    """``count`` set-ups in fresh interpreters, one at a time, each between
    two bare starts. Returns (wall seconds, reference seconds) per set-up:
    the wall time scaled by REFERENCE_BARE_START_S over the mean of the two
    bare starts around it."""
    setup = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name]
    bare = [time_to_ready(BARE_START)]
    times = []
    for _ in range(count):
        wall = time_to_ready(setup)
        bare.append(time_to_ready(BARE_START))
        times.append((wall, wall * REFERENCE_BARE_START_S / ((bare[-2] + bare[-1]) / 2)))
    return times


def digest_of(cells: list[Cell]) -> str:
    return hashlib.sha256("\n".join(c.digest for c in cells).encode()).hexdigest()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD commit read from the checkout's .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_cells(workload, seed: int, seconds: float, run_one) -> list:
    """Closed loop over whole rounds, stopping at the round boundary
    nearest to ``seconds`` (after at least one round); a round's length is
    estimated by the last one."""
    done = []
    start = perf_counter()
    for round_specs in workload.rounds(seed):
        round_start = perf_counter()
        for spec_dict in round_specs:
            done.append(run_one(len(done), spec_dict))
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return done


def run_traced(workload, args, run_experiment, run_one, tracer):
    """Each cell plain and traced, alternating which goes first; the traced
    copy carries both runs' problems and any difference in their outputs."""
    traced_run_experiment = tracer.wrap(RUN_EXPERIMENT, run_experiment)

    def traced(spec, out_dir):
        with tracer.installed():
            return traced_run_experiment(spec, out_dir=out_dir)

    def both(i, spec_dict):
        tracer.cell = i
        if i % 2:
            tr = run_one(spec_dict, run_experiment=traced)
            return run_one(spec_dict, run_experiment=run_experiment), tr
        plain = run_one(spec_dict, run_experiment=run_experiment)
        return plain, run_one(spec_dict, run_experiment=traced)

    pairs = run_cells(workload, args.seed, args.seconds, both)
    for plain, tr in pairs:
        tr.problems += plain.problems
        if plain.digest != tr.digest:
            tr.problems.append("traced run wrote different outputs than the plain run")
    return [p for p, _ in pairs], [t for _, t in pairs]


def end_to_end(cells: list[Cell], setup_times: list[tuple[float, float]]) -> dict:
    times = [c.reference_s for c in cells]
    failed = sum(1 for c in cells if c.problems)
    finals = [ar for c in cells for ar in c.finals]
    return {
        "cell_s_p50": median(times),
        "evals_per_s": sum(c.evaluations for c in cells) / sum(times),
        "final_ar_mean": mean(finals) if finals else 0.0,
        "ok_frac": 1.0 - failed / len(cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(ref for _, ref in setup_times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.pin_threads()
    try:
        workloads.add_source_path()
    except workloads.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from splitcut.harness import run_experiment

    workload = WORKLOADS[args.workload]
    setup_times = [] if args.trace else measure_setup(workload.name, SETUP_PROBES_BEFORE)
    prepared = workloads.prepare(workload)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp, SpeedSampler() as sampler:
        run_one = partial(run_cell, prepared=prepared, tmp_root=Path(tmp), sampler=sampler)
        if args.trace:
            tracer = Tracer()
            cells, traced_cells = run_traced(workload, args, run_experiment, run_one, tracer)
        else:
            cells = run_cells(workload, args.seed, args.seconds,
                              lambda i, spec: run_one(spec, run_experiment=run_experiment))
            traced_cells = []
    for c in cells + traced_cells:
        c.reference_s = sampler.reference_s(c.start, c.end, c.wall_s)

    if not args.trace:
        setup_times += measure_setup(workload.name, SETUP_PROBES_AFTER)
    checked = traced_cells or cells
    failed = sum(1 for c in checked if c.problems)
    round_len = len(workload.combos())
    record.update({
        "cells": len(cells),
        "cells_per_round": round_len,
        "failed_frac": failed / len(cells),
        "first_round_sha256": digest_of(cells[:round_len]),
        "all_cells_sha256": digest_of(cells),
        "failures": [{"spec": c.spec, "problems": c.problems} for c in checked if c.problems],
        "cell_times": [[c.spec["graph"], c.spec["arms"][0], c.spec["p_layers"][0],
                        c.spec["seeds"][0], c.wall_s, c.reference_s] for c in cells],
        "speed_probes": len(sampler.durations),
        "probe_s_p50": median(sampler.durations),
    })
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced_cells))
        metrics["harness.output_bytes"] = mean(c.output_bytes for c in traced_cells)
        metrics["trace_overhead_frac"] = (
            sum(c.reference_s for c in traced_cells) / sum(c.reference_s for c in cells) - 1.0)
        units = {name: LAYER_UNITS.get(name, LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count"))
                 for name in metrics}
        record["missing_targets"] = tracer.missing
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
    else:
        metrics = end_to_end(cells, setup_times)
        units = END_TO_END_UNITS
        times = [c.reference_s for c in cells]
        walls = [c.wall_s for c in cells]
        record["setup_s_samples"] = [ref for _, ref in setup_times]
        record["cell_s_samples"] = len(times)
        if len(times) >= 100:
            record["cell_s_p90"] = quantiles(times, n=10)[-1]
        record["wall_clock"] = {
            "setup_s": median(wall for wall, _ in setup_times),
            "cell_s_p50": median(walls),
            "evals_per_s": sum(c.evaluations for c in cells) / sum(walls),
        }
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    if args.trace and tracer.missing:
        print(f"trace targets not found: {', '.join(tracer.missing)}", file=sys.stderr)
    for problem in record["failures"][:10]:
        print(f"FAILED {problem['spec']['graph']} {problem['spec']['arms'][0]} "
              f"p={problem['spec']['p_layers'][0]} seed={problem['spec']['seeds'][0]}: "
              f"{'; '.join(problem['problems'])}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(cells)} cells, "
          f"{failed} failed, outputs sha256 {record['first_round_sha256'][:16]} "
          f"(first round), {record['all_cells_sha256'][:16]} (all)", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(cells), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
