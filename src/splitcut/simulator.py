"""Dense statevector and density-matrix simulation with shot sampling.

State indexing convention: qubit 0 is the most significant bit of the flat
state index, so index k corresponds to bitstring ``format(k, '0nb')`` whose
character i is qubit i. Count dictionaries use those bitstrings as keys.

``run_shots`` draws every shot from the exact output distribution of the
circuit on the backend (``outcome_probabilities``). Gate noise is the
depolarizing channel: after each gate, each touched qubit goes through
rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z), with p = p1 for
1-qubit gates and p2 for cx, evolved exactly on the density matrix. That
limits gate-noise circuits to ``MAX_DENSITY_QUBITS`` (10) qubits; wider ones
raise ``CapacityError``. Without gate noise the distribution is |psi|^2 of
the statevector (up to ``MAX_QUBITS``). Readout flips each measured bit
independently, applied as a per-bit stochastic map on the distribution.

Reproducibility: ``run_shots`` derives its whole random stream from
(backend.seed, shots, sha256 of the serialized circuit) through numpy's
PCG64. Identical inputs give bit-identical counts on any platform; the
generator is recorded in run traces as ``numpy-pcg64``. The stream is used
for exactly one draw: ``choice(2^n, size=shots, p=probs)`` over the clipped,
normalized distribution.

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

from .circuit import Circuit, CouplingMap, Gate, serialize
from .errors import CapacityError, RoutingError
from .graph import Graph, cut_values_vector
from .records import read_record, record_fields

MAX_QUBITS = 20
RNG_ALGORITHM = "numpy-pcg64"

# A density matrix of this width holds 4^10 amplitudes (16 MiB).
MAX_DENSITY_QUBITS = 10

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


@dataclass(frozen=True)
class BackendProfile:
    """A simulated hardware endpoint. The default ``NoiseModel`` (all
    zeros) means ideal; absent coupling means all-to-all connectivity."""

    name: str
    noise: NoiseModel = NoiseModel()
    coupling: CouplingMap | None = None
    seed: int = 0

    @property
    def is_noisy(self) -> bool:
        return self.noise != NoiseModel()


@dataclass(frozen=True)
class ShotResult:
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")


def _index(n: int, fixed: dict[int, int]) -> tuple:
    # Index tuple for a (2,)*n tensor with the given qubit axes pinned.
    idx: list = [slice(None)] * n
    for q, v in fixed.items():
        idx[q] = v
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


def _check_capacity(c: Circuit) -> None:
    if c.num_qubits > MAX_QUBITS:
        raise CapacityError(f"statevector limited to {MAX_QUBITS} qubits, got {c.num_qubits}")


def run_statevector(c: Circuit) -> np.ndarray:
    """Noiseless evolution of |0...0> through the circuit (measurement ignored)."""
    _check_capacity(c)
    n = c.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    arr = state.reshape((2,) * n)
    for gate in c.gates:
        _apply_gate(arr, gate, n)
    return state


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


def _density_probabilities(c: Circuit, noise: NoiseModel) -> np.ndarray:
    # rho is a 2n-qubit tensor: axis q is the row index of qubit q, axis
    # q + n its column index. U rho U^dagger applies U to the rows and the
    # complex conjugate of U to the columns; h and cx are real, and the
    # conjugate of rx/rz is the same gate at the negated angle.
    n = c.num_qubits
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho.flat[0] = 1.0
    for gate in c.gates:
        _apply_gate(rho, gate, 2 * n)
        angle = None if gate.angle is None else -gate.angle
        _apply_gate(rho, Gate(gate.name, tuple(q + n for q in gate.qubits), angle), 2 * n)
        p = noise.p2 if gate.name == "cx" else noise.p1
        if p > 0.0:
            for q in gate.qubits:
                _depolarize(rho, p, q, n)
    return np.diagonal(rho.reshape(1 << n, 1 << n)).real.copy()


def _depolarize(rho: np.ndarray, p: float, q: int, n: int) -> None:
    # (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
    #   = (1 - 4p/3) rho + (2p/3) Tr_q(rho) (x) I
    i00 = _index(2 * n, {q: 0, q + n: 0})
    i11 = _index(2 * n, {q: 1, q + n: 1})
    mixed = (2.0 * p / 3.0) * (rho[i00] + rho[i11])
    rho *= 1.0 - 4.0 * p / 3.0
    rho[i00] += mixed
    rho[i11] += mixed


def outcome_probabilities(c: Circuit, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Exact distribution of the measured bitstrings, indexed like the state.

    Gate noise evolves the density matrix (at most ``MAX_DENSITY_QUBITS``
    wide); without it the probabilities are ``|run_statevector(c)|^2``.
    Readout flips then act on each bit as a 2x2 stochastic map.
    """
    _check_capacity(c)
    n = c.num_qubits
    if noise.p1 > 0.0 or noise.p2 > 0.0:
        if n > MAX_DENSITY_QUBITS:
            raise CapacityError(
                f"gate noise is simulated up to {MAX_DENSITY_QUBITS} qubits, got {n}"
            )
        probs = _density_probabilities(c, noise)
    else:
        probs = np.abs(run_statevector(c)) ** 2
    f = noise.readout_flip
    if f > 0.0:
        t = probs.reshape((2,) * n)
        for q in range(n):
            t = (1.0 - f) * t + f * np.flip(t, axis=q)
        probs = t.reshape(-1)
    return probs


def run_shots(c: Circuit, backend: BackendProfile, shots: int) -> ShotResult:
    """Sample measurement counts for the circuit on the given backend."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if backend.coupling is not None:
        for g in c.gates:
            if g.name == "cx" and not backend.coupling.allows(*g.qubits):
                raise RoutingError(
                    f"cx{g.qubits} violates the coupling map; transpile before run_shots"
                )
    n = c.num_qubits
    probs = np.maximum(outcome_probabilities(c, backend.noise), 0.0)
    probs = probs / probs.sum()
    outcomes = _shot_rng(backend, c, shots).choice(1 << n, size=shots, p=probs)
    tally = np.bincount(outcomes)
    counts = {format(int(v), f"0{n}b"): int(tally[v]) for v in np.flatnonzero(tally)}
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
    """One profile entry: the ``BackendProfile`` and ``NoiseModel`` fields
    by name, except that ``coupling`` lists physical-qubit pairs and
    ``num_physical`` (default: one past the largest qubit in them) sizes
    the coupling map. A wrong value type raises ValueError naming the key."""
    noise_fields = record_fields(NoiseModel)
    schema = {**record_fields(BackendProfile), **noise_fields,
              "coupling": (tuple[tuple[int, int], ...], None), "num_physical": (int, None)}
    del schema["noise"]
    kwargs = read_record(d, "backend profile", schema)
    noise = NoiseModel(**{k: kwargs.pop(k) for k in noise_fields if k in kwargs})
    pairs = kwargs.pop("coupling", None)
    num = kwargs.pop("num_physical", None)
    coupling = None
    if pairs:
        coupling = CouplingMap.from_edges(num or max(max(p) for p in pairs) + 1, pairs)
    return BackendProfile(noise=noise, coupling=coupling, **kwargs)


def load_backend_profiles(path=None) -> dict[str, BackendProfile]:
    """Profiles from a JSON config; the bundled defaults when path is None."""
    if path is None:
        text = resources.files("splitcut.data").joinpath("backends.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ValueError(f"backend profiles must be a JSON list, got {type(entries).__name__}")
    profiles = {}
    for d in entries:
        b = backend_from_dict(d)
        if b.name in profiles:
            raise ValueError(f"duplicate backend name {b.name!r}")
        profiles[b.name] = b
    return profiles
