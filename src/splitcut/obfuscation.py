"""Edge-pruned circuit flavors, splits of a graph into flavors, and the
alternating optimization loop that recovers solution quality while every
backend only ever sees a strict subgraph.

All evaluations feed the optimizer the *full* graph's cut expectation
computed client-side from the samples, regardless of which pruned flavor
produced them; that keeps approximation ratios comparable between the
original, pruned-only, and split arms.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .circuit import ParamVector, TranspiledCircuit, build_qaoa, transpile, wire_template
from .errors import MetricError, PlanError
from .graph import Edge, Graph, cut_values_vector
from .optimizers import NelderMead, Spsa
from .records import read_record, record_fields
from .simulator import (
    RNG_ALGORITHM,
    BackendProfile,
    Kernel,
    check_coupling,
    compile_kernel,
    sample_tally,
    shot_rng,
)

FINAL_EVAL_SHOTS = 16384
OPTIMIZERS = ("spsa", "nelder_mead")
EXACT_REFINE_STEPS = 40  # Nelder-Mead steps from each start in exact_optimum


def prune(g: Graph, removed: Sequence[Edge]) -> Graph:
    """g without the given edges: the one check of a flavor against its
    graph. Every removed edge must be in g and at least one edge must stay;
    nothing removed returns g. The node count is kept so the circuit width
    cannot leak how much was pruned."""
    removed_set = {(min(u, v), max(u, v)) for u, v in removed}
    if not removed_set:
        return g
    missing = removed_set - set(g.edges)
    if missing:
        raise PlanError(f"flavor removes edges not in the graph: {sorted(missing)}")
    if len(removed_set) == len(g.edges):
        raise PlanError("flavor must leave at least one edge in the circuit")
    return Graph(g.n, tuple(e for e in g.edges if e not in removed_set))


@dataclass(frozen=True)
class PrunedFlavor:
    """One circuit variant and the backend it is dispatched to. An empty
    removed set is the unpruned circuit; an arm is a tuple of flavors."""

    removed_edges: tuple[Edge, ...]
    backend: BackendProfile

    def __post_init__(self):
        normalized = tuple(sorted((min(u, v), max(u, v)) for u, v in self.removed_edges))
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise PlanError(f"flavor removes edge {a} twice")
        object.__setattr__(self, "removed_edges", normalized)


def check_split(g: Graph, flavors: Sequence[PrunedFlavor]) -> None:
    """Raise PlanError unless the flavors are a split of g: k >= 2 flavors
    on distinct backends with distinct, nonempty removed sets, each checked
    by ``prune``, alternated round-robin.

    Union rule: no edge is removed by every flavor, so the union of the
    circuits the providers see covers the full graph, while each single
    provider sees a strict subgraph.
    """
    if len(flavors) < 2:
        raise PlanError("a split plan needs at least 2 flavors")
    if not all(f.removed_edges for f in flavors):
        raise PlanError("every split flavor must remove at least one edge")
    removed_sets = [frozenset(f.removed_edges) for f in flavors]
    if len(set(removed_sets)) != len(removed_sets):
        raise PlanError("flavors must have distinct removed sets")
    if len({f.backend.name for f in flavors}) != len(flavors):
        raise PlanError("flavor backends must have distinct names")
    for f in flavors:
        prune(g, f.removed_edges)
    removed_everywhere = frozenset.intersection(*removed_sets)
    if removed_everywhere:
        raise PlanError(f"edges removed from every flavor: {sorted(removed_everywhere)}")


def make_split_plan(
    g: Graph,
    k: int,
    edges_per_flavor: int,
    backends: Sequence[BackendProfile],
    seed: int,
) -> tuple[PrunedFlavor, ...]:
    """A split of g: k flavors whose removed-edge sets are sampled uniformly
    under ``check_split``'s rules.

    Which edges get pruned does matter for quality: on graph5 the exact p=1
    optimum with one edge pruned lies between 0.787 and 0.838, around the
    unpruned 0.822 (``scripts/landscape_study.py``). Uniform selection is
    the unbiased default: it favours no edge.
    """
    if k < 2:
        raise PlanError("need k >= 2 flavors")
    if len(backends) != k:
        raise PlanError(f"need exactly {k} backends, got {len(backends)}")
    m = len(g.edges)
    if edges_per_flavor < 1 or edges_per_flavor > m - 1:
        raise PlanError(f"edges_per_flavor must be in [1, {m - 1}] for this graph")
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        picks = [
            tuple(sorted(g.edges[i] for i in rng.choice(m, size=edges_per_flavor, replace=False)))
            for _ in range(k)
        ]
        if len(set(picks)) == k and not frozenset.intersection(*map(frozenset, picks)):
            flavors = tuple(PrunedFlavor(p, b) for p, b in zip(picks, backends))
            check_split(g, flavors)
            return flavors
    raise PlanError("could not satisfy the union rule; graph too small for this plan")


@dataclass(frozen=True)
class TraceEntry:
    """One optimizer iteration: the flavor it ran, how many shot
    evaluations it made there, and where the parameters ended up."""

    iteration: int
    backend: str
    flavor: int
    evaluations: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    expectation: float
    ar: float


# json's spelling of a float is its repr, but for these three
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class RunTrace:
    """Everything one optimization run produced, trace plus summary.

    Written as JSON lines, one per entry with the entry's fields as keys,
    then ``{"summary": ...}`` with every other field."""

    entries: tuple[TraceEntry, ...]
    best_gammas: tuple[float, ...]
    best_betas: tuple[float, ...]
    best_observed_expectation: float
    best_observed_ar: float
    final_expectation: float
    final_ar: float
    cmax: int
    evaluations: int
    shots: int
    rng_algorithm: str = RNG_ALGORITHM

    def to_jsonl(self) -> str:
        """The trace as ``json.dumps(..., sort_keys=True)`` writes it, one
        line per entry, then the summary line. An entry's fixed shape is
        formatted here, which costs a fraction of the encoder's call."""
        names = {name: json.dumps(name) for name in {e.backend for e in self.entries}}
        lines = []
        for e in self.entries:
            reprs = list(map(float.__repr__, (e.ar, e.expectation, *e.gammas, *e.betas)))
            ar, expectation, *angles = map(_JSON_NONFINITE.get, reprs, reprs)
            p = len(e.gammas)
            lines.append(f'{{"ar": {ar}, "backend": {names[e.backend]}, "betas": [{", ".join(angles[p:])}], '
                         f'"evaluations": {e.evaluations:d}, "expectation": {expectation}, '
                         f'"flavor": {e.flavor:d}, "gammas": [{", ".join(angles[:p])}], '
                         f'"iteration": {e.iteration:d}}}')
        summary = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "entries"}
        lines.append(json.dumps({"summary": summary}, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        """Read ``to_jsonl`` output back; ValueError names any unknown,
        missing or mistyped key."""
        *entries, last = [json.loads(line) for line in text.splitlines() if line.strip()] or [None]
        if not isinstance(last, dict) or set(last) != {"summary"}:
            raise ValueError("trace text must end with a summary record")
        entry_fields = record_fields(TraceEntry)
        summary_fields = record_fields(cls)
        del summary_fields["entries"]
        entries = tuple(TraceEntry(**read_record(e, "trace entry", entry_fields)) for e in entries)
        summary = read_record(last["summary"], "trace summary", summary_fields)
        angles = [(e.gammas, e.betas) for e in entries] + [(summary["best_gammas"], summary["best_betas"])]
        for gammas, betas in angles:  # optimize's steps stay finite; text from outside is checked here
            ParamVector(gammas, betas)  # rejects unequal-length or non-finite angles
        return cls(entries=entries, **summary)


def approximation_ratio(expectation: float, cmax: int) -> float:
    """Eq. style ratio expectation / cmax, clamped to [0, 1].

    Values beyond the representable range (negative expectation, ratio
    above 1 by more than float slop) are flagged as errors rather than
    silently clamped.
    """
    if cmax < 1:
        raise MetricError("cmax must be >= 1; the ratio is undefined on edgeless graphs")
    if not math.isfinite(expectation) or expectation < 0:
        raise MetricError(f"expectation out of range: {expectation}")
    r = expectation / cmax
    if r > 1.0 + 1e-9:
        raise MetricError(f"ratio {r} exceeds 1; expectation inconsistent with cmax")
    return min(max(r, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class CompiledFlavor:
    """One flavor at p layers, built and routed once by ``compile_flavor``.

    ``routed`` is the circuit that leaves the client, with placeholder
    angles; an evaluation at the 2p-vector x = (gammas, betas) only fills
    in rotation i's angle ``2.0 * x[slots[i]]``. Its wire text is split
    once at those angles into ``pieces``, so a text at x formats each of
    the 2p angles once and joins the strings between the pieces; every
    text the flavor sends, evaluated or gated, comes from ``_text``.
    The simulator kernel, each rotation reading its slot, and the cut
    vector are built on the first evaluation. The kernel takes the 2p angles
    ``2.0 * x``, and a cost layer is one phase step with one row, as is a
    mixer layer in the Hadamard basis on up to 7 qubits.
    """

    g_full: Graph
    flavor: PrunedFlavor
    p: int
    routed: TranspiledCircuit
    slots: tuple[int, ...]
    pieces: tuple[str, ...]  # the wire text's literal pieces; rotation i's angle follows pieces[i]

    def _angles(self, x) -> np.ndarray:
        # The kernel's 2p angles 2 * x, one per slot.
        x = np.asarray(x, dtype=float)
        if x.shape != (2 * self.p,):
            raise ValueError(f"expected {2 * self.p} angles (gammas then betas) at p={self.p}, "
                             f"got shape {x.shape}")
        return 2.0 * x

    def _text(self, angles: np.ndarray) -> str:
        texts = [format(a, ".17g") for a in angles.tolist()]
        parts = [""] * (2 * len(self.pieces) - 1)
        parts[::2] = self.pieces
        parts[1::2] = [texts[j] for j in self.slots]
        return "".join(parts)

    def wire_text(self, x) -> str:
        """The wire text at angles x: ``serialize`` of the routed circuit.
        An x that is not a 2p-vector raises ValueError, as in
        ``expectation`` and ``exact_expectation``."""
        return self._text(self._angles(x))

    @cached_property
    def kernel(self) -> Kernel:
        return compile_kernel(self.routed.circuit, self.flavor.backend.noise, self.slots)

    @cached_property
    def cut(self) -> np.ndarray:
        """The full graph's cut value of every physical outcome: the graph
        relabelled onto the physical qubits that hold its nodes at
        measurement, so spare qubits cut nothing. Sized by the kernel,
        which raises CapacityError on a circuit too wide to simulate."""
        layout = self.routed.final_layout
        edges = [(layout[u], layout[v]) for u, v in self.g_full.edges]
        return cut_values_vector(Graph.make(self.kernel.num_qubits, edges))

    def expectation(self, x, shots: int) -> float:
        """Mean full-graph cut value of ``shots`` samples at angles x, drawn
        with the backend's seed and the wire text as ``run_shots`` draws."""
        angles = self._angles(x)
        rng = shot_rng(self.flavor.backend.seed, shots, self._text(angles))
        tally = sample_tally(self.kernel.probabilities(angles), rng, shots)
        return int(tally @ self.cut) / shots

    def exact_expectation(self, x) -> float:
        """The limit of ``expectation`` at angles x as shots grow."""
        return float(self.kernel.probabilities(self._angles(x)) @ self.cut)


def compile_flavor(g_full: Graph, flavor: PrunedFlavor, p: int) -> CompiledFlavor:
    """The circuit that leaves the client for ``flavor``'s backend at p
    layers: checked against the full graph, built on the flavor's graph and
    routed onto the backend's coupling map when it has one; an unrouted
    circuit carries the identity layout."""
    # At the angles x = (1, ..., 2p) every rotation's angle 2 * x[j] names its slot j.
    params = ParamVector(tuple(range(1, p + 1)), tuple(range(p + 1, 2 * p + 1)))
    circ = build_qaoa(prune(g_full, flavor.removed_edges), params)
    coupling = flavor.backend.coupling
    if coupling is None:
        routed = TranspiledCircuit(circ, tuple(range(circ.num_qubits)), 0)
    else:
        routed = transpile(circ, coupling)
        check_coupling(routed.circuit, coupling)
    slots = tuple(int(g.angle) // 2 - 1 for g in routed.circuit.gates if g.angle is not None)
    pieces = tuple(wire_template(routed.circuit).split("{}"))
    return CompiledFlavor(g_full, flavor, p, routed, slots, pieces)


def exact_optimum(flavors: Sequence[CompiledFlavor]) -> tuple[float, np.ndarray]:
    """The largest mean ``exact_expectation`` over the p=1 flavors and its x,
    over one period's 16x8 grid of (gamma, beta) in steps of pi/16 and over
    ``EXACT_REFINE_STEPS`` Nelder-Mead steps from each of its 3 best points."""
    if not flavors or any(f.p != 1 for f in flavors):
        raise ValueError("exact_optimum takes one or more flavors at p=1")

    def mean(x) -> float:
        return sum(f.exact_expectation(x) for f in flavors) / len(flavors)

    evals = [(x, mean(x)) for x in math.pi / 16 * np.indices((16, 8)).reshape(2, -1).T]
    for i in np.argsort([fx for _, fx in evals], kind="stable")[-3:]:
        opt = NelderMead(evals[i][0])
        for _ in range(EXACT_REFINE_STEPS):
            evals += opt.step(mean)
    return max(((fx, x) for x, fx in evals), key=lambda e: e[0])


def _init_params(seed: int, p: int) -> np.ndarray:
    """The starting 2p-vector x: p gammas in [0, pi), then p betas in [0, pi/2)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, p, 101]))
    gammas = rng.uniform(0.0, math.pi, size=p)
    betas = rng.uniform(0.0, math.pi / 2.0, size=p)
    return np.concatenate([gammas, betas])


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` bit for bit, without numpy's per-call cost:
    numpy adds fewer than 8 values left to right from 0.0, and 8 or more pairwise."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def optimize(
    flavors: Sequence[CompiledFlavor],
    *,
    optimizer: str = "spsa",
    iterations: int = 50,
    shots: int = 4096,
    seed: int = 0,
) -> RunTrace:
    """Run the (possibly alternating) shot-based optimization loop on the
    compiled flavors of one graph at one layer count, with one of
    ``OPTIMIZERS`` for ``iterations`` steps of ``shots``-shot evaluations.

    Iteration t runs on ``flavors[t % k]``, so every evaluation inside one
    iteration lands on one backend. One flavor with nothing removed is the
    unobfuscated baseline, one pruned flavor the pruned-only arm, and the
    flavors of a split (see ``check_split``) the split arm; a split runs
    every flavor at least twice. ``seed`` drives initialization and the
    SPSA perturbation stream; evaluation shot noise is governed by the
    backend seeds. SPSA's gains are ``Spsa``'s defaults, and cmax is the
    max of ``flavors[0].cut``, the cost vector that scores every shot.

    Final quality is the best-observed parameters re-evaluated with a fresh
    16384-shot run on the run's primary flavor (index 0): the same circuit
    family and backend the client would keep using, which removes the
    winner's-curse bias of picking the luckiest noisy trace entry.
    """
    k = len(flavors)
    if k == 0:
        raise ValueError("need at least one flavor")
    g_full, p = flavors[0].g_full, flavors[0].p
    if any(f.g_full != g_full or f.p != p for f in flavors):
        raise ValueError("flavors must be compiled from one graph at one layer count")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    least = 2 * k if k > 1 else 1
    if iterations < least:
        raise ValueError(f"iterations must be >= {least} for a {k}-flavor run, got {iterations}")
    cmax = int(flavors[0].cut.max())

    x0 = _init_params(seed, p)
    if optimizer == "spsa":
        opt = Spsa(x0, np.random.default_rng(np.random.SeedSequence([seed, p, 202])))
    else:
        opt = NelderMead(x0)

    entries: list[TraceEntry] = []
    best_x: np.ndarray | None = None
    best_f = -math.inf

    for t in range(iterations):
        fl = flavors[t % k]
        evals = opt.step(lambda x: fl.expectation(x, shots))
        for x, fx in evals:
            if fx > best_f:
                best_f, best_x = fx, x
        xs = opt.x.tolist()
        mean_f = _mean([fx for _, fx in evals])
        entries.append(TraceEntry(
            iteration=t,
            backend=fl.flavor.backend.name,
            flavor=t % k,
            evaluations=len(evals),
            gammas=tuple(xs[:p]),
            betas=tuple(xs[p:]),
            expectation=mean_f,
            ar=approximation_ratio(mean_f, cmax),
        ))

    final_expectation = flavors[0].expectation(best_x, FINAL_EVAL_SHOTS)
    best = best_x.tolist()

    return RunTrace(
        entries=tuple(entries),
        best_gammas=tuple(best[:p]),
        best_betas=tuple(best[p:]),
        best_observed_expectation=best_f,
        best_observed_ar=approximation_ratio(best_f, cmax),
        final_expectation=final_expectation,
        final_ar=approximation_ratio(final_expectation, cmax),
        cmax=cmax,
        evaluations=sum(e.evaluations for e in entries) + 1,  # the final audit evaluation
        shots=shots,
    )
