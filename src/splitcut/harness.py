"""Experiment runner: original vs pruned-only vs split arms over layer and
seed grids, with CSV results, JSON-line traces, overhead accounting, and the
adversary's partial-knowledge check as a release gate ahead of any dispatch.

Cells run sequentially in spec order; every cell derives its own RNG streams
from the cell seed, so runs with identical specs reproduce outputs
byte-for-byte on one numpy build and one CPU dispatch (across dispatch a
noiseless distribution can move in its last ulps; see the ``simulator``
docstring). Cells are independent and could be fanned out across workers
as long as aggregation keeps spec order.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from .adversary import cross_provider_merge, extract_graph
from .graph import Graph, benchmark_graph, is_benchmark_id, load_graph
from .obfuscation import (
    OPTIMIZERS,
    CompiledFlavor,
    PrunedFlavor,
    RunTrace,
    approximation_ratio,
    check_split,
    compile_flavor,
    make_split_plan,
    optimize,
)
from .optimizers import Spsa
from .records import read_record, record_fields
from .simulator import BackendProfile, load_backend_profiles

ARMS = ("original", "pruned_only", "split")


@dataclass(frozen=True)
class ResultRow:
    """One line of results.csv: an arm at one layer count, over the seeds."""

    graph: str
    spec: str
    sim: str  # "noisy" if any backend the arm dispatches to is noisy, else "ideal"
    arm: str
    p: int
    mean_ar: float
    std_ar: float
    n_seeds: int


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a graph, a set of arms, and the sweep grids."""

    graph: str  # benchmark id, or a path to a graph file
    arms: tuple[str, ...] = ("original", "pruned_only", "split")
    k: int = 2
    edges_per_flavor: int = 1
    removed_sets: tuple[tuple[tuple[int, int], ...], ...] | None = None
    p_layers: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = tuple(range(10))
    backends: tuple[str, ...] = ("ideal1", "ideal2")
    profiles_file: str | None = None
    shots: int = 4096
    iterations: int = 50
    optimizer: str = "spsa"

    def __post_init__(self):
        if not self.arms or set(self.arms) - set(ARMS):
            raise ValueError(f"experiment spec key 'arms' must hold one or more of {list(ARMS)}, "
                             f"got {list(self.arms)}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"experiment spec key 'optimizer' must be 'spsa' or 'nelder_mead', "
                             f"got {self.optimizer!r}")
        if self.shots < 1:
            raise ValueError(f"experiment spec key 'shots' must be >= 1, got {self.shots}")
        least = 2 * self.k if "split" in self.arms else 1  # a split arm runs every flavor twice
        if self.iterations < least:
            raise ValueError(f"experiment spec key 'iterations' must be >= {least}, got {self.iterations}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"experiment spec key 'seeds' must hold at least one seed, each >= 0, "
                             f"got {list(self.seeds)}")
        if not self.p_layers or min(self.p_layers) < 1:
            raise ValueError(f"experiment spec key 'p_layers' must hold at least one layer count, "
                             f"each >= 1, got {list(self.p_layers)}")
        for key in ("seeds", "p_layers", "arms", "backends"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"experiment spec key {key!r} repeats a value: {list(values)}")
        if set(self.arms) - {"original"} and self.k < 2:
            raise ValueError(f"experiment spec key 'k' must be >= 2 when a pruned arm runs, got {self.k}")
        if self.removed_sets is not None and len(self.removed_sets) != self.k:
            raise ValueError(f"experiment spec key 'removed_sets' must list one edge set for each of the "
                             f"{self.k} flavors, got {len(self.removed_sets)}")
        flavors = self.k if set(self.arms) - {"original"} else 1  # the original arm sends one
        if len(self.backends) < flavors:
            raise ValueError(f"experiment spec key 'backends' must name a backend for each of the "
                             f"{flavors} flavor(s) a run sends, got {list(self.backends)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """The spec in a decoded JSON object; absent keys take the field
        defaults, and a wrong value type raises ValueError naming the key."""
        return cls(**read_record(d, "experiment spec", record_fields(cls)))

    @classmethod
    def from_json_file(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def resolve_graph(name: str) -> tuple[str, Graph]:
    """``(label, graph)`` for a graph file path (labelled by its stem) or a
    benchmark id; a directory is not a graph file."""
    if os.path.isfile(name):
        return Path(name).stem, load_graph(name)
    if not is_benchmark_id(name):
        raise ValueError(f"no graph file or benchmark id named {name!r}")
    return name, benchmark_graph(name)


def resolve_backends(spec: ExperimentSpec) -> list[BackendProfile]:
    profiles = load_backend_profiles(spec.profiles_file)
    missing = [b for b in spec.backends if b not in profiles]
    if missing:
        raise ValueError(f"experiment spec key 'backends' names unknown backend profiles: {missing}")
    return [profiles[b] for b in spec.backends]


def _plan_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 303]).generate_state(1)[0])


def _flavor_table(g: Graph, spec: ExperimentSpec, backends):
    """``arm_flavors(arm, seed, p)``: the compiled flavors an arm dispatches
    for one seed -- the unpruned circuit, the split's first flavor, or the
    whole split. The split is the spec's ``removed_sets``, built and checked
    once per run, or a random split planned once per seed. Each (flavor, p)
    is compiled once, so every reader of a run gets the same artifacts."""
    compiled = cache(lambda f, p: compile_flavor(g, f, p))

    @cache
    def plan(seed: int | None) -> tuple[PrunedFlavor, ...]:  # None: the spec's removed_sets
        if seed is None:
            flavors = tuple(PrunedFlavor(rs, b) for rs, b in zip(spec.removed_sets, backends))
            check_split(g, flavors)
            return flavors
        return make_split_plan(g, spec.k, spec.edges_per_flavor, backends[: spec.k], seed=_plan_seed(seed))

    def arm_flavors(arm: str, seed: int, p: int) -> tuple[CompiledFlavor, ...]:
        if arm == "original":
            flavors = (PrunedFlavor((), backends[0]),)
        else:
            flavors = plan(seed if spec.removed_sets is None else None)[: 1 if arm == "pruned_only" else None]
        return tuple(compiled(f, p) for f in flavors)

    return arm_flavors


def _spec_label(spec: ExperimentSpec, arm: str, flavors: tuple[CompiledFlavor, ...]) -> str:
    if arm == "original":
        return "-"
    if spec.removed_sets is None:
        return f"rand:{len(flavors)}x{spec.edges_per_flavor}"
    return "-".join("+".join(f"{u}.{v}" for u, v in f.flavor.removed_edges) for f in flavors)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[dict]
    traces: dict[tuple[str, int, int], RunTrace]
    overhead: dict  # the {"baseline", "arms"} report of compute_overhead
    failures: list[dict]

    @property
    def ok(self) -> bool:
        """False iff an invariant assertion failed or a row completed no seed."""
        return (not any(f["kind"] == "invariant" for f in self.failures)
                and all(r["n_seeds"] > 0 for r in self.rows))


def compute_overhead(
    spec: ExperimentSpec,
    arm_flavors,
    traces: dict[tuple[str, int, int], RunTrace] | None = None,
) -> dict:
    """Overhead accounting for every (arm, p) in the spec, on the compiled
    flavors ``arm_flavors`` (see ``_flavor_table``) gives the first seed:
    ``{"baseline": ..., "arms": [...]}``, with static gate counts plus
    dynamic evaluation counts normalized against the single-layer
    pruned-only baseline (2q-gates x evaluations). A spec that runs no
    pruned arm plans no split, so its baseline is null.

    Flavor i's evaluations are those of the first seed's trace entries with
    ``flavor == i`` in ``traces`` (keyed like ``ExperimentResult.traces``);
    without that trace SPSA's are derived statically (``Spsa.EVALS_PER_STEP``
    on every k-th iteration from i) and Nelder-Mead's are null. The relative
    cost is sum(2q x evals) over an arm's flavors divided by the same
    product for the baseline; the one final audit evaluation is reported
    but kept out of the ratio.
    """
    def flavor_entry(flavors: tuple[CompiledFlavor, ...], i: int, trace: RunTrace | None) -> dict:
        routed = flavors[i].routed  # angles do not change gate counts
        counts = routed.circuit.gate_counts()
        evals = None
        if trace is not None:
            evals = sum(e.evaluations for e in trace.entries if e.flavor == i)
        elif spec.optimizer == "spsa":
            evals = Spsa.EVALS_PER_STEP * len(range(i, spec.iterations, len(flavors)))
        return {"backend": flavors[i].flavor.backend.name, "gates_1q": counts["1q"], "gates_2q": counts["2q"],
                "swap_added_2q": 3 * routed.swap_count, "depth": routed.circuit.depth(), "evaluations": evals}

    def work(entries: list[dict]) -> int | None:
        counted = entries[0]["evaluations"] is not None  # one source counts every flavor, or none
        return sum(e["gates_2q"] * e["evaluations"] for e in entries) if counted else None

    baseline = baseline_work = None
    if set(spec.arms) - {"original"}:
        baseline = flavor_entry(arm_flavors("pruned_only", spec.seeds[0], 1), 0, None)
        baseline_work = baseline["work_2q_x_evals"] = work([baseline])

    arms = []
    for arm in spec.arms:
        for p in spec.p_layers:
            flavors = arm_flavors(arm, spec.seeds[0], p)
            trace = (traces or {}).get((arm, p, spec.seeds[0]))
            per_backend = [flavor_entry(flavors, i, trace) for i in range(len(flavors))]
            arm_work = work(per_backend)
            arms.append({
                "arm": arm,
                "p": p,
                "per_backend": per_backend,
                "total_shot_evaluations": None if arm_work is None
                else sum(e["evaluations"] for e in per_backend) + 1,
                "work_2q_x_evals": arm_work,
                "relative_cost": arm_work / baseline_work if arm_work and baseline_work else None,
            })
    return {"baseline": baseline, "arms": arms}


def overhead(spec: ExperimentSpec) -> dict:
    """Static overhead report for a spec (no optimization runs)."""
    _, g = resolve_graph(spec.graph)
    return compute_overhead(spec, _flavor_table(g, spec, resolve_backends(spec)))


def _check_partial_knowledge(flavors) -> list[dict]:
    """The release gate: extract each compiled flavor's wire text; assert
    every provider sees a strict subgraph and that only collusion recovers
    the full graph. ``extract_graph`` reads only gate names and qubits, so
    the text at any angles stands for every text the flavor sends."""
    reports = [extract_graph(f.wire_text(np.zeros(2 * f.p))) for f in flavors]
    full = set(flavors[0].g_full.edges)
    for f, rep in zip(flavors, reports):
        seen = set(rep.recovered_graph.edges)
        if not seen < full:
            raise AssertionError(f"backend {f.flavor.backend.name} sees {sorted(seen)}, "
                                 "not a strict subset of the graph")
    if set(cross_provider_merge([r.recovered_graph for r in reports]).edges) != full:
        raise AssertionError("union of flavors does not cover the full graph")
    return [r.to_dict() for r in reports]


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Execute every (arm, p, seed) cell, aggregate the result table, and
    write results.csv / traces / overhead.json when out_dir is given.

    The first seed's flavors, kernels and cut vectors are built before
    out_dir and any cell, so a spec no cell could evaluate fails first; the
    rows' spec and sim columns and the written circuits read them. A split
    cell's flavors pass the release gate before any is dispatched, once per
    distinct compiled split; a violation is an "invariant" failure of each
    cell that would send it. Any other failing cell marks its row rather
    than aborting the sweep. The overhead report is computed once, after
    the cells, counting the first seed's traced evaluations.
    """
    label, g = resolve_graph(spec.graph)
    arm_flavors = _flavor_table(g, spec, resolve_backends(spec))
    first = {(arm, p): arm_flavors(arm, spec.seeds[0], p) for arm in spec.arms for p in spec.p_layers}
    for flavors in first.values():  # a circuit too wide to simulate, or an edgeless graph, fails here
        for f in flavors:
            approximation_ratio(0.0, int(f.cut.max()))
    # The report's p=1 baseline is not pre-built: a p=1 circuit prefixes each deeper one; SWAPs keep to a component.
    if out_dir is not None:
        (Path(out_dir) / "traces").mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []
    traces: dict[tuple[str, int, int], RunTrace] = {}
    failures: list[dict] = []
    gate = cache(_check_partial_knowledge)  # a failing split raises, is not cached, and is checked again

    for arm in spec.arms:
        for p in spec.p_layers:
            for seed in spec.seeds:
                try:
                    flavors = arm_flavors(arm, seed, p)
                    if len(flavors) > 1:
                        gate(flavors)
                    traces[(arm, p, seed)] = optimize(flavors, optimizer=spec.optimizer,
                                                      iterations=spec.iterations, shots=spec.shots, seed=seed)
                except Exception as exc:  # record, keep sweeping; an AssertionError poisons the run
                    kind = "invariant" if isinstance(exc, AssertionError) else "cell"
                    failures.append({"arm": arm, "p": p, "seed": seed, "kind": kind, "error": str(exc)})
            finals = [traces[(arm, p, seed)].final_ar for seed in spec.seeds if (arm, p, seed) in traces]
            mean = float(np.mean(finals)) if finals else float("nan")
            std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0 if finals else float("nan")
            noisy = any(f.flavor.backend.is_noisy for f in first[arm, p])  # every seed dispatches to these backends
            rows.append(asdict(ResultRow(
                graph=label, spec=_spec_label(spec, arm, first[arm, p]), sim="noisy" if noisy else "ideal",
                arm=arm, p=p, mean_ar=mean, std_ar=std, n_seeds=len(finals),
            )))

    report = compute_overhead(spec, arm_flavors, traces)
    result = ExperimentResult(spec=spec, rows=rows, traces=traces, overhead=report, failures=failures)
    if out_dir is not None:
        _write_outputs(result, first, gate, out_dir)
    return result


def results_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_fmt(r[name]) for name in CSV_HEADER])
    return buf.getvalue()


def _fmt(x):
    if not isinstance(x, float):
        return x
    return "nan" if np.isnan(x) else f"{x:.6f}"


def _write_outputs(result: ExperimentResult, first, gate, out_dir) -> None:
    """Write the run's files. Each (arm, p) whose first seed completed also
    gets the wire texts of ``first[arm, p]`` at its best parameters in circuits/
    and, for a split arm, the release gate's extraction reports in adversary.json."""
    out = Path(out_dir)

    def write(name: str, text: str) -> None:
        with open(out / name, "wb") as fh:
            fh.write(text.encode("utf-8"))

    adversary_reports = {}
    for (arm, p, seed), trace in result.traces.items():
        write(f"traces/{arm}_p{p}_seed{seed}.jsonl", trace.to_jsonl())
        if seed == result.spec.seeds[0]:
            flavors = first[arm, p]
            (out / "circuits").mkdir(exist_ok=True)
            for i, f in enumerate(flavors):
                name = f"{arm}_p{p}_flavor{i}" if len(flavors) > 1 else f"{arm}_p{p}"
                write(f"circuits/{name}.txt", f.wire_text(trace.best_gammas + trace.best_betas))
            if len(flavors) > 1:
                adversary_reports[f"{arm}_p{p}"] = gate(flavors)
    write("results.csv", results_to_csv(result.rows))
    for name, payload in (("overhead.json", result.overhead), ("adversary.json", adversary_reports),
                          ("failures.json", result.failures)):
        if payload:
            write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")
