"""Dense statevector simulation with shot sampling and trajectory noise.

State indexing convention: qubit 0 is the most significant bit of the flat
state index, so index k corresponds to bitstring ``format(k, '0nb')`` whose
character i is qubit i. Count dictionaries use those bitstrings as keys.

Noise is a stochastic unravelling of the depolarizing channel: after each
gate, each touched qubit independently suffers (with probability p1 for
1-qubit gates, p2 for cx) a uniformly random Pauli X/Y/Z. Readout flips each
measured bit independently. Shots that sampled the same error pattern share
one statevector evolution, so light noise stays cheap.

Reproducibility: ``run_shots`` derives its whole random stream from
(backend.seed, shots, sha256 of the serialized circuit) through numpy's
PCG64. Identical inputs give bit-identical counts on any platform; the
generator is recorded in run traces as ``numpy-pcg64``. Draw order is:
error-site fires, Pauli choices, per-trajectory measurement outcomes
(first-occurrence order), readout flips.

A single run owns its state and is single-threaded; independent runs can
execute concurrently.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuit import Circuit, CouplingMap, serialize
from .errors import CapacityError, RoutingError
from .graph import Graph, cut_values_vector

MAX_QUBITS = 20
RNG_ALGORITHM = "numpy-pcg64"

# Trajectory batches are chunked so batch memory stays near 2^22 amplitudes.
_CHUNK_AMPLITUDES = 1 << 22

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus readout flip probability."""

    p1: float = 0.0
    p2: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "readout_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {v}")

    @property
    def is_null(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.readout_flip == 0.0


@dataclass(frozen=True)
class BackendProfile:
    """A simulated hardware endpoint. Absent noise means ideal; absent
    coupling means all-to-all connectivity."""

    name: str
    noise: NoiseModel | None = None
    coupling: CouplingMap | None = None
    seed: int = 0

    @property
    def is_noisy(self) -> bool:
        return self.noise is not None and not self.noise.is_null


@dataclass(frozen=True)
class ShotResult:
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")


def _index(n: int, fixed: dict[int, int]) -> tuple:
    # Index tuple for a (T,)+(2,)*n tensor with given qubit axes pinned.
    idx: list = [slice(None)] * (n + 1)
    for q, v in fixed.items():
        idx[1 + q] = v
    return tuple(idx)


def _apply_1q(arr: np.ndarray, mat: np.ndarray, q: int, n: int) -> None:
    i0, i1 = _index(n, {q: 0}), _index(n, {q: 1})
    a0 = arr[i0].copy()
    a1 = arr[i1].copy()
    arr[i0] = mat[0, 0] * a0 + mat[0, 1] * a1
    arr[i1] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_rz(arr: np.ndarray, angle: float, q: int, n: int) -> None:
    half = 0.5 * angle
    arr[_index(n, {q: 0})] *= np.exp(-1j * half)
    arr[_index(n, {q: 1})] *= np.exp(1j * half)


def _apply_cx(arr: np.ndarray, control: int, target: int, n: int) -> None:
    i10 = _index(n, {control: 1, target: 0})
    i11 = _index(n, {control: 1, target: 1})
    tmp = arr[i10].copy()
    arr[i10] = arr[i11]
    arr[i11] = tmp


def _apply_gate(arr: np.ndarray, gate, n: int) -> None:
    if gate.name == "h":
        _apply_1q(arr, _H_MATRIX, gate.qubits[0], n)
    elif gate.name == "rx":
        half = 0.5 * gate.angle
        mat = np.array(
            [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
            dtype=complex,
        )
        _apply_1q(arr, mat, gate.qubits[0], n)
    elif gate.name == "rz":
        _apply_rz(arr, gate.angle, gate.qubits[0], n)
    elif gate.name == "cx":
        _apply_cx(arr, gate.qubits[0], gate.qubits[1], n)
    # measure is handled by the sampling layer


def _apply_pauli_rows(arr: np.ndarray, rows: np.ndarray, pauli: int, q: int, n: int) -> None:
    # Pauli codes: 0 = X, 1 = Y, 2 = Z, applied only to the given trajectory rows.
    sub = arr[rows]
    i0, i1 = _index(n, {q: 0}), _index(n, {q: 1})
    if pauli == 0:
        tmp = sub[i0].copy()
        sub[i0] = sub[i1]
        sub[i1] = tmp
    elif pauli == 1:
        tmp = sub[i0].copy()
        sub[i0] = -1j * sub[i1]
        sub[i1] = 1j * tmp
    else:
        sub[i1] = -sub[i1]
    arr[rows] = sub


def _check_capacity(c: Circuit) -> None:
    if c.num_qubits > MAX_QUBITS:
        raise CapacityError(f"statevector limited to {MAX_QUBITS} qubits, got {c.num_qubits}")


def run_statevector(c: Circuit, check_norm: bool = False) -> np.ndarray:
    """Noiseless evolution of |0...0> through the circuit (measurement ignored).

    ``check_norm`` asserts unit norm after every gate (test aid).
    """
    _check_capacity(c)
    n = c.num_qubits
    state = np.zeros((1, 1 << n), dtype=complex)
    state[0, 0] = 1.0
    arr = state.reshape((1,) + (2,) * n)
    for gate in c.gates:
        _apply_gate(arr, gate, n)
        if check_norm:
            norm = float(np.linalg.norm(state))
            if abs(norm - 1.0) > 1e-10:
                raise AssertionError(f"norm drifted to {norm} after {gate.name}")
    return state.reshape(-1)


def exact_expectation(g: Graph, c: Circuit) -> float:
    """Exact cut expectation of the circuit's output distribution under g's cost."""
    if c.num_qubits != g.n:
        raise ValueError(f"circuit width {c.num_qubits} != node count {g.n}")
    return float(np.abs(run_statevector(c)) ** 2 @ cut_values_vector(g))


def _shot_rng(backend: BackendProfile, c: Circuit, shots: int) -> np.random.Generator:
    digest = hashlib.sha256(serialize(c).encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    seq = np.random.SeedSequence([int(backend.seed), int(shots), *(int(w) for w in words)])
    return np.random.Generator(np.random.PCG64(seq))


def _error_sites(c: Circuit, noise: NoiseModel) -> list[tuple[int, int, float]]:
    # One site per (gate, touched qubit) with nonzero error probability.
    sites = []
    for gi, g in enumerate(c.gates):
        if g.name == "measure":
            continue
        p = noise.p2 if g.name == "cx" else noise.p1
        if p > 0.0:
            for q in g.qubits:
                sites.append((gi, q, p))
    return sites


def run_shots(c: Circuit, backend: BackendProfile, shots: int) -> ShotResult:
    """Sample measurement counts for the circuit on the given backend."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_capacity(c)
    if backend.coupling is not None:
        for g in c.gates:
            if g.name == "cx" and not backend.coupling.allows(*g.qubits):
                raise RoutingError(
                    f"cx{g.qubits} violates the coupling map; transpile before run_shots"
                )
    n = c.num_qubits
    dim = 1 << n
    noise = backend.noise if backend.noise is not None else NoiseModel()
    rng = _shot_rng(backend, c, shots)

    sites = _error_sites(c, noise)
    if sites:
        probs = np.array([p for _, _, p in sites])
        fires = rng.random((shots, len(sites))) < probs
        paulis = rng.integers(0, 3, size=(shots, len(sites)), dtype=np.int8)
        pattern_of_shot = np.zeros(shots, dtype=np.int64)
        patterns: dict[tuple, int] = {}
        pattern_list: list[tuple] = []
        for s in range(shots):
            fired = np.nonzero(fires[s])[0]
            key = tuple((int(f), int(paulis[s, f])) for f in fired)
            u = patterns.get(key)
            if u is None:
                u = len(pattern_list)
                patterns[key] = u
                pattern_list.append(key)
            pattern_of_shot[s] = u
    else:
        pattern_of_shot = np.zeros(shots, dtype=np.int64)
        pattern_list = [()]

    shots_per_pattern = np.bincount(pattern_of_shot, minlength=len(pattern_list))
    outcomes = np.zeros(shots, dtype=np.int64)
    chunk_rows = max(1, _CHUNK_AMPLITUDES // dim)

    for start in range(0, len(pattern_list), chunk_rows):
        chunk = pattern_list[start : start + chunk_rows]
        t = len(chunk)
        state = np.zeros((t, dim), dtype=complex)
        state[:, 0] = 1.0
        arr = state.reshape((t,) + (2,) * n)
        # site events for this chunk: site index -> {pauli: rows}
        events: dict[int, dict[int, list[int]]] = {}
        for row, key in enumerate(chunk):
            for site_idx, pauli in key:
                events.setdefault(site_idx, {}).setdefault(pauli, []).append(row)
        site_at_gate: dict[int, list[int]] = {}
        for site_idx, (gi, _, _) in enumerate(sites):
            if site_idx in events:
                site_at_gate.setdefault(gi, []).append(site_idx)
        for gi, gate in enumerate(c.gates):
            _apply_gate(arr, gate, n)
            for site_idx in site_at_gate.get(gi, ()):
                q = sites[site_idx][1]
                for pauli in sorted(events[site_idx]):
                    rows = np.array(events[site_idx][pauli], dtype=np.int64)
                    _apply_pauli_rows(arr, rows, pauli, q, n)
        probs_chunk = np.abs(state) ** 2
        for row in range(t):
            u = start + row
            m = int(shots_per_pattern[u])
            if m == 0:
                continue
            pk = probs_chunk[row]
            pk = pk / pk.sum()
            drawn = rng.choice(dim, size=m, p=pk)
            outcomes[pattern_of_shot == u] = drawn

    if noise.readout_flip > 0.0:
        flips = rng.random((shots, n)) < noise.readout_flip
        weights = np.array([1 << (n - 1 - q) for q in range(n)], dtype=np.int64)
        outcomes ^= flips @ weights

    values, cnts = np.unique(outcomes, return_counts=True)
    counts = {format(int(v), f"0{n}b"): int(cn) for v, cn in zip(values, cnts)}
    return ShotResult(counts=counts, shots=shots)


def expectation_full_cost(g_full: Graph, result: ShotResult) -> float:
    """Mean cut value of the samples under the full graph's cost.

    The cost graph is always the client's full graph; the circuit that
    produced the samples may well have been pruned.
    """
    total = 0
    for bits, cnt in result.counts.items():
        if len(bits) != g_full.n or bits.strip("01"):
            raise ValueError(f"bitstring {bits!r} is not {g_full.n} binary digits")
        crossing = sum(1 for u, v in g_full.edges if bits[u] != bits[v])
        total += cnt * crossing
    return total / result.shots


def remap_counts(counts: dict[str, int], final_layout: tuple[int, ...]) -> dict[str, int]:
    """Rewrite physical-order counts into logical order.

    ``final_layout[l]`` is the physical qubit holding logical qubit l at
    measurement; extra physical bits are dropped. Key order is re-sorted.
    """
    out: dict[str, int] = {}
    for bits, cnt in counts.items():
        logical = "".join(bits[p] for p in final_layout)
        out[logical] = out.get(logical, 0) + cnt
    return dict(sorted(out.items()))


# -- backend profile config ------------------------------------------------


def backend_from_dict(d: dict) -> BackendProfile:
    noise = None
    if any(d.get(k) for k in ("p1", "p2", "readout_flip")):
        noise = NoiseModel(
            p1=float(d.get("p1", 0.0)),
            p2=float(d.get("p2", 0.0)),
            readout_flip=float(d.get("readout_flip", 0.0)),
        )
    coupling = None
    if d.get("coupling"):
        num = d.get("num_physical") or (max(max(p) for p in d["coupling"]) + 1)
        coupling = CouplingMap.from_edges(int(num), d["coupling"])
    return BackendProfile(
        name=str(d["name"]),
        noise=noise,
        coupling=coupling,
        seed=int(d.get("seed", 0)),
    )


def load_backend_profiles(path=None) -> dict[str, BackendProfile]:
    """Profiles from a JSON config; the bundled defaults when path is None."""
    if path is None:
        text = resources.files("splitcut.data").joinpath("backends.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    entries = json.loads(text)
    profiles = {}
    for d in entries:
        b = backend_from_dict(d)
        if b.name in profiles:
            raise ValueError(f"duplicate backend name {b.name!r}")
        profiles[b.name] = b
    return profiles
