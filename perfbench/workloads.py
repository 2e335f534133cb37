"""Workload definitions and shared set-up for the splitcut benchmark.

A workload is a fixed set of experiment "combos" (graph x arm x layer
count) on a fixed pair of backends. A run walks the combos in rounds; each
round visits every combo once, in an order shuffled from the workload seed,
and gives each cell a fresh cell seed drawn from the same stream. The cell
seed is all the harness sees of the workload seed: it picks the split plan,
the initial angles and the SPSA perturbations. A run always ends on a round
boundary, so every run has the same mix of arms and graphs and its medians
do not depend on where the clock happened to stop.

This module imports neither numpy nor splitcut at import time: the entry
scripts first pin the thread pools (``pin_threads``) and put the checkout's
``src/`` on the path (``add_source_path``).
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SHOTS = 4096
ITERATIONS = 50

# One client, one process, one thread: pin every BLAS/OpenMP pool to 1.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


class SourceMissing(RuntimeError):
    """The checkout has no ``src/splitcut`` to benchmark."""


def add_source_path() -> None:
    """Put the checkout's ``src/`` first on sys.path and check that
    ``import splitcut`` resolves there, not to some installed copy."""
    if not (SRC / "splitcut" / "__init__.py").is_file():
        raise SourceMissing(f"no splitcut package under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitcut

    if Path(splitcut.__file__).resolve().parent != (SRC / "splitcut").resolve():
        raise SourceMissing(f"splitcut imported from {splitcut.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: tuple[str, ...]
    arms: tuple[str, ...]
    p_layers: tuple[int, ...]
    backends: tuple[str, ...]
    optimizer: str = "spsa"
    profiles: str | None = None  # profile JSON in this directory; None = bundled

    @property
    def profiles_file(self) -> str | None:
        return None if self.profiles is None else str(BENCH_DIR / self.profiles)

    def combos(self) -> list[tuple[str, str, int]]:
        return list(product(self.graphs, self.arms, self.p_layers))

    def rounds(self, seed: int):
        """Endless stream of rounds; each round is a list of spec dicts."""
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence([seed, 7919]))
        combos = self.combos()
        while True:
            order = rng.permutation(len(combos))
            cell_seeds = rng.integers(0, 2**31 - 1, size=len(combos))
            yield [self.spec_dict(*combos[i], int(s)) for i, s in zip(order, cell_seeds)]

    def spec_dict(self, graph: str, arm: str, p: int, cell_seed: int) -> dict:
        d = {
            "graph": graph,
            "arms": [arm],
            "k": 2,
            "edges_per_flavor": 1,
            "p_layers": [p],
            "seeds": [cell_seed],
            "backends": list(self.backends),
            "shots": SHOTS,
            "iterations": ITERATIONS,
            "optimizer": self.optimizer,
        }
        if self.profiles_file is not None:
            d["profiles_file"] = self.profiles_file
        return d


# The package's five checked-in graphs, listed here so that the workload
# stays the same if the package adds one.
FIXED_BENCHMARKS = ("cycle3", "cycle4", "complete4_with_diagonals", "graph5", "graph6")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ideal-grid",
            why="short Python-bound cells on 8-64 amplitudes: per-evaluation overhead "
                "(build, hash, evolve, sample, score, step) dominates",
            graphs=FIXED_BENCHMARKS,
            arms=("original", "pruned_only", "split"),
            p_layers=(1, 2),
            backends=("ideal1", "ideal2"),
        ),
        Workload(
            name="noisy-split",
            why="5-11 s per cell, almost all of it the per-shot trajectory loop in "
                "run_shots; the shape of the noisy acceptance fixtures",
            graphs=("graph6", "graph5"),
            arms=("split", "original"),
            p_layers=(2,),
            backends=("hw1", "hw2"),
        ),
        Workload(
            name="routed-split",
            why="Nelder-Mead on 6-qubit line couplings: every evaluation is routed and "
                "remapped and every split cell's extraction undoes SWAPs",
            graphs=("graph6",),
            arms=("original", "pruned_only", "split"),
            p_layers=(1, 2),
            backends=("line1", "line2"),
            optimizer="nelder_mead",
            profiles="line6_backends.json",
        ),
    )
}


@dataclass
class Prepared:
    """What a ready benchmark process holds: profiles and graphs by name."""

    profiles: dict
    graphs: dict


def prepare(workload: Workload) -> Prepared:
    """Load the backend profiles and graphs and run one warm-up
    ``run_shots`` per backend, routed first where the backend has a
    coupling map. This is the work ``setup_s`` times."""
    from splitcut.circuit import ParamVector, build_qaoa, transpile
    from splitcut.graph import benchmark_graph
    from splitcut.simulator import load_backend_profiles, run_shots

    profiles = load_backend_profiles(workload.profiles_file)
    graphs = {name: benchmark_graph(name) for name in workload.graphs}
    g = graphs[workload.graphs[-1]]
    circ = build_qaoa(g, ParamVector((0.3,), (0.2,)))
    for name in workload.backends:
        backend = profiles[name]
        c = circ if backend.coupling is None else transpile(circ, backend.coupling).circuit
        run_shots(c, backend, SHOTS)
    return Prepared(profiles=profiles, graphs=graphs)

