"""Compiled simulation kernels with shot sampling.

State indexing convention: qubit 0 is the most significant bit of the flat
state index, so index k corresponds to bitstring ``format(k, '0nb')`` whose
character i is qubit i. Measured outcomes are an int64 tally by index.

``run_shots`` draws every shot from the exact output distribution of the
circuit on the backend (``outcome_probabilities``). A circuit skeleton
compiles on its noise model, with the parameter each rotation reads, into a
``Kernel`` that each evaluation passes one angle per parameter: a compiled
flavor's 2p QAOA angles, or a bare circuit's distinct angles. The state takes
one of two forms, each with one kernel that starts from a state built at
compile time:

- Without gate noise it is the 2^n amplitudes (up to ``MAX_QUBITS``), held
  flat. The h and cx gates are Cliffords, which map Pauli strings to Pauli
  strings (Aaronson & Gottesman, PRA 70, 052328, 2004). So the start state
  is the circuit's Clifford product on |0...0>, an h ``_walsh``'s butterfly
  scaled by 1/sqrt(2) and a cx one reversed-slice copy; each rx/rz becomes a
  rotation about its Pauli conjugated through every later h and cx (as in
  Bravyi & Gosset, PRL 116, 250501, 2016). A run of rotations with no X
  part is diagonal, so it is one phase step, as fast QAOA simulators apply
  a cost layer (Lykov et al., arXiv:2309.04841), with one row per
  parameter its rotations read, stored already scaled by -i/2 so that the
  step is ``state * exp(rows @ angles)``: a QAOA cost layer reads one, so
  ``complete(20)`` holds one complex 16 MiB row per layer, not one per
  edge. On up to 7 qubits a run with no Z part, such as a QAOA mixer
  layer, is one phase step in the Hadamard basis, H^n times the phase
  times H^n, with its rows built over the X bits; on wider states the two
  dense H^n products cost more than the rotations, so each is its own step
  there, as is every rotation with both an X and a Z part. Every phase
  step's rows come from one Walsh-Hadamard transform of the rotations'
  signs, each placed at its Pauli's Z (or X) bits; before the scaling they
  hold small integers, so they are exact. The distribution is |psi|^2.
- Gate noise is the depolarizing channel: after each gate, each touched
  qubit goes through rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z),
  with p = p1 for 1-qubit gates and p2 for cx. It is evolved exactly in the
  Pauli-transfer form (Chow et al., PRL 109, 060501, 2012): the state is the
  4^n real coefficients Tr(rho P) over the Pauli strings P. Gates fuse into
  blocks on at most two qubits holding at most two rotations, as
  state-vector simulators fuse gates (Haener & Steiger, SC'17): a gate
  joins the latest block on its qubits when it fits, since every later
  block leaves those qubits alone and the gate with its depolarizing
  commutes past them, so a QAOA mixer rx joins the last cost block on its
  qubit. A block with its depolarizing is one 4x4 or 16x16 transfer
  matrix, multilinear in each rotation's (1, cos theta, sin theta); an
  evaluation builds the matrices of all blocks of one width and rotation
  count with one batched product. Fixed blocks that no earlier step
  touches fold into the start state. The distribution is one precomputed
  2^n x 2^n matrix, the Walsh transform with the readout flips folded in,
  applied to the I/Z coefficients. Gate-noise circuits are limited to
  ``MAX_DENSITY_QUBITS`` (10) qubits, where that matrix takes 8 MiB.

Wider circuits raise ``CapacityError``. Readout flips each measured bit
independently: a per-bit stochastic map on |psi|^2 without gate noise, a
factor 1 - 2f on each Z coefficient with it.

Reproducibility: every draw derives its whole random stream from
(backend.seed, shots, sha256 of the wire text) through numpy's PCG64
(``shot_rng``), which computes the seed words of each (seed, shots) pair
once and appends the digest's words to them on each draw. Identical inputs
give the same stream on any platform, and the same counts wherever the
distribution is the same: one numpy build and one CPU dispatch. Across
dispatch the distribution can move in its last ulps, so counts can differ
only where a sorted uniform falls within rounding of a CDF edge. The
generator is recorded in run traces as ``numpy-pcg64``. The stream is used
for exactly one draw (``sample_tally``): ``random(shots)`` uniforms, sorted
and counted against the CDF of the clipped, normalized distribution. That
is the tally ``np.bincount`` of ``choice(2^n, size=shots, p=probs)`` gives
from the same stream, without a binary search per shot.

A single run owns its state and is single-threaded; independent runs can
execute concurrently.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuit import PARAMETRIC, Circuit, serialize
from .errors import CapacityError, RoutingError
from .graph import Graph
from .records import read_record, record_fields

MAX_QUBITS = 20
RNG_ALGORITHM = "numpy-pcg64"

# A Pauli-transfer state of this width holds 4^10 reals (8 MiB).
MAX_DENSITY_QUBITS = 10

# The widest noiseless state whose runs of X-only rotations are one phase
# step in the Hadamard basis. Its two dense H^n products cost 2^(n+1)
# multiply-adds per amplitude, against a few per amplitude per rotation: a
# QAOA mixer layer took 0.7x the time of its rotations at 7 qubits and 1.3x
# at 8 (one BLAS thread, 2-vCPU VM).
_HADAMARD_QUBITS = 7

_SQRT2_INV = 1.0 / math.sqrt(2.0)


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
    def has_gate_noise(self) -> bool:
        return self.p1 > 0.0 or self.p2 > 0.0


@dataclass(frozen=True)
class BackendProfile:
    """A simulated hardware endpoint. The default ``NoiseModel`` (all
    zeros) means ideal; ``coupling`` is a graph on the physical qubits
    whose edges a cx may act on, None meaning all-to-all."""

    name: str
    noise: NoiseModel = NoiseModel()
    coupling: Graph | None = None
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"backend profile key 'seed' must be >= 0, got {self.seed}")

    @property
    def is_noisy(self) -> bool:
        return self.noise != NoiseModel()


def _parameters(c: Circuit) -> tuple[np.ndarray, np.ndarray]:  # distinct angles, slots
    return np.unique([g.angle for g in c.gates if g.angle is not None], return_inverse=True)


def run_statevector(c: Circuit) -> np.ndarray:
    """Noiseless evolution of |0...0> through the circuit (measurement ignored)."""
    angles, slots = _parameters(c)
    return compile_kernel(c, NoiseModel(), slots).evolve(angles)


@functools.lru_cache(maxsize=256)
def _seed_words(seed: int, shots: int) -> bytes:
    # The words numpy makes of the list [seed, shots], once per pair: each
    # Python int split into 32-bit words, least significant first. A draw
    # appends the digest's words.
    ints = [v >> s & 0xFFFFFFFF for v in (seed, shots) for s in range(0, max(v.bit_length(), 1), 32)]
    return np.array(ints, dtype=np.uint32).tobytes()


def shot_rng(seed: int, shots: int, wire_text: str) -> np.random.Generator:
    """The stream of one draw: PCG64 seeded by (seed, shots, sha256 of the text).
    The one shots check of ``run_shots``, ``CompiledFlavor.expectation`` and ``optimize``."""
    if seed < 0 or shots < 1:
        raise ValueError(f"seed must be >= 0 and shots >= 1, got {seed} and {shots}")
    digest = hashlib.sha256(wire_text.encode("utf-8")).digest()
    words = np.frombuffer(_seed_words(int(seed), int(shots)) + digest[:16], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(words))  # PCG64 builds SeedSequence(words)


def sample_tally(probs: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Tally of ``shots`` outcomes drawn from ``probs``, clipped at 0 and
    normalized: ``np.bincount(rng.choice(len(probs), size=shots, p=...))``
    from the same stream, counted from the sorted uniforms. A non-finite
    entry, a sum too large for a float, or no positive mass raises
    ValueError: NaN and +inf reach the clipped sum, -inf the minimum."""
    p = np.maximum(probs, 0.0)
    total = p.sum()
    if not (0.0 < total < math.inf and probs.min() > -math.inf):
        raise ValueError("outcome probabilities must be finite with positive mass")
    # choice's CDF after a leading 0: outcome k is drawn by the uniforms in
    # [cdf[k], cdf[k + 1]).
    p /= total
    cdf = np.zeros(len(p) + 1)
    p.cumsum(out=cdf[1:])
    cdf /= cdf[-1]
    uniforms = rng.random(shots)
    uniforms.sort()
    below = uniforms.searchsorted(cdf, side="left")
    return below[1:] - below[:-1]


# -- the compiled kernels ---------------------------------------------------
#
# Without gate noise a single rotation views the flat state with one axis
# of length 2 per qubit. A Pauli P = (-1)^s X^x Z^z acts on that view t as
# (P t)[b] = (-1)^s (-1)^(z.(b^x)) t[b^x], so
# exp(-i theta/2 P) is t -> cos(theta/2) t + sin(theta/2) w t[b^x] with
# w[b] = -i (-1)^s (-1)^(z.(b^x)), which varies only along the axes in z.
# With gate noise the state is the real tensor r[P] = Tr(rho P), one axis of
# length 4 (I, X, Y, Z) per qubit. A channel acts on it by its Pauli
# transfer matrix R[P, Q] = Tr(P E(Q)) / 2^k. Depolarizing a qubit scales
# its X, Y and Z coefficients by d = 1 - 4p/3, and a rotation by theta has
# the transfer matrix K0 + cos(theta) K1 + sin(theta) K2.

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Kronecker products of (broadcast) stacks of square matrices.
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], a.shape[-1] * b.shape[-1], -1)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
_PAULI_BASIS = {1: _PAULIS, 2: _kron(_PAULIS[:, None], _PAULIS).reshape(16, 4, 4)}


def _gate_table() -> dict:
    # (name, block width, gate's first qubit is the block's first) -> the
    # gate's unitary on the block: the parts (A, B) of a rotation, or one
    # matrix. The tables are built at import from tiny matrices, by
    # elementwise products: np.kron and BLAS's complex kernels would cost
    # more to load than the arithmetic.
    eye = np.eye(2)
    table = {("cx", 2, True): np.eye(4)[[0, 1, 3, 2]][None],
             ("cx", 2, False): np.eye(4)[[0, 3, 2, 1]][None]}
    for name, parts in (("h", np.array([[[1.0, 1.0], [1.0, -1.0]]]) * _SQRT2_INV),
                        ("rx", np.array([eye, -1j * _PAULIS[1]])),
                        ("rz", np.array([eye, -1j * _PAULIS[3]]))):
        table[name, 1, True] = parts
        table[name, 2, True] = _kron(parts, eye)
        table[name, 2, False] = _kron(eye, parts)
    return table


def _transfer(u: np.ndarray) -> np.ndarray:
    # R[P, Q] = Tr(P U Q U^dagger) / 2^k. Every unitary passed here is a
    # Clifford, so the entries are 0 or +-1 and rounding only strips the
    # float error of the sums.
    basis = _PAULI_BASIS[u.shape[0].bit_length() - 1]
    images = _matmul(_matmul(u, basis), u.conj().T)  # U Q U^dagger for every Q
    return np.rint((basis.transpose(0, 2, 1)[:, None] * images).sum(axis=(2, 3)).real / len(u))


def _rotation_parts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (K0, K1, K2) of the rotation cos(theta/2) a + sin(theta/2) b, from its
    # transfer matrices at theta = 0, pi/2 and pi.
    at = [_transfer(c * a + s * b) for c, s in ((1.0, 0.0), (_SQRT2_INV, _SQRT2_INV), (0.0, 1.0))]
    k0 = 0.5 * (at[0] + at[2])
    return np.array([k0, 0.5 * (at[0] - at[2]), at[1] - k0])


_TRANSFER = {key: _rotation_parts(*parts) if len(parts) == 2 else _transfer(parts[0])[None]
             for key, parts in _gate_table().items()}


@functools.lru_cache(maxsize=256)
def _gate_parts(name: str, touched: tuple[bool, ...], first: bool, noise: NoiseModel) -> np.ndarray:
    """The gate on a block followed by depolarizing on its qubits, as a
    read-only stack of transfer matrices: (3, D, D) around a rotation, one
    per angle coefficient, and (1, D, D) for a fixed gate, with
    D = 4^len(touched). ``touched[i]`` says whether the gate acts on the
    block's qubit i and ``first`` whether the gate's first qubit is the
    block's first. Computed once per key and shared by every block."""
    d = 1.0 - 4.0 * (noise.p2 if name == "cx" else noise.p1) / 3.0
    scale = [np.array([1.0, d, d, d]) if t else np.ones(4) for t in touched]
    diag = scale[0] if len(touched) == 1 else np.outer(scale[0], scale[1]).ravel()
    parts = diag[:, None] * _TRANSFER[name, len(touched), first]
    parts.flags.writeable = False
    return parts


def _blocks(skeleton) -> list[tuple[tuple[int, ...], list]]:
    """The (name, qubits) gates grouped into blocks on at most two qubits,
    each holding at most two rotations, as (qubits, [(name, qubits, j)]),
    with j the gate's rotation index or None. A gate joins the latest block
    on its qubits, or the last block when none touches them, if it fits:
    every later block leaves its qubits alone, so the gate and its
    depolarizing commute past them."""
    blocks: list[tuple[tuple[int, ...], list]] = []
    latest: dict[int, int] = {}  # qubit -> the latest block on it
    rotations = 0
    for name, gate_qubits in skeleton:
        j = None
        if name in PARAMETRIC:
            j, rotations = rotations, rotations + 1
        i = max((latest[q] for q in gate_qubits if q in latest), default=len(blocks) - 1)
        if i >= 0:
            qubits, gates = blocks[i]
            joined = qubits + tuple(q for q in gate_qubits if q not in qubits)
            held = sum(k is not None for _, _, k in gates) + (j is not None)
        if i < 0 or len(joined) > 2 or held > 2:  # the gate opens a block
            i, joined, gates = len(blocks), gate_qubits, []
            blocks.append((joined, gates))
        blocks[i] = (joined, gates)
        gates.append((name, gate_qubits, j))
        latest.update(dict.fromkeys(gate_qubits, i))
    return blocks


@dataclass(frozen=True, eq=False)
class Kernel:
    """One circuit skeleton compiled on one noise model by ``compile_kernel``.
    A run passes one angle per parameter the skeleton's rotations read."""

    num_qubits: int
    noise: NoiseModel
    start: np.ndarray  # the state the first step acts on
    steps: tuple
    groups: dict | None = None  # gate noise: (width, rotation count) -> the blocks' (parts, parameters)
    readout: tuple | None = None  # gate noise: (gather index, readout matrix)

    def __post_init__(self):
        self.start.flags.writeable = False  # evolve returns it when there are no steps

    def evolve(self, angles: np.ndarray) -> np.ndarray:
        """The start state through the compiled steps at ``angles[k]`` for
        parameter k: the flat final state, the amplitudes without gate noise
        and the Pauli coefficients with it. Without gate noise a phase step
        multiplies the flat state by ``exp(rows @ angles[k])``, its rows
        scaled by -i/2 at compile time, in the Hadamard basis between two
        products with H^n; a single rotation views the state as one axis
        of length 2 per qubit for its axis flips."""
        state = self.start
        if not self.noise.has_gate_noise:
            c = s = None  # cos and sin of the half angles, built at the first single rotation
            for k, how, w in self.steps:
                if how is None:  # a phase step: k holds the parameter of each row of w
                    state = state * np.exp(w @ angles[k])
                elif type(how) is tuple:  # one rotation: how flips the axes in its X part
                    if c is None:
                        half = 0.5 * angles
                        c, s = np.cos(half).tolist(), np.sin(half).tolist()
                    t = state.reshape((2,) * self.num_qubits)
                    state = (c[k] * t + (s[k] * w) * t[how]).reshape(-1)
                else:  # a phase step in the Hadamard basis: how is H^n
                    state = how @ (np.exp(w @ angles[k]) * (how @ state))
            return state
        coeffs = np.ones((len(angles), 3))
        np.cos(angles, out=coeffs[:, 1])
        np.sin(angles, out=coeffs[:, 2])
        built = {}
        for (dim, count), (parts, ks) in self.groups.items():
            c = coeffs[ks[:, 0]]
            if count == 2:  # a block's parts are multilinear in its two rotations
                c = (c[:, :, None] * coeffs[ks[:, 1], None, :]).reshape(len(ks), 9)
            built[dim, count] = (parts @ c[:, :, None]).reshape(len(ks), dim, dim)
        shape = (4,) * self.num_qubits
        for perm, dim, mat in self.steps:
            if type(mat) is tuple:  # (group, index) of a rotation block's matrix
                mat = built[mat[0]][mat[1]]
            state = mat @ state.reshape(shape).transpose(perm).reshape(dim, -1)
        return state.reshape(-1)

    def probabilities(self, angles: np.ndarray) -> np.ndarray:
        """Exact distribution of the measured bitstrings, indexed like the
        state. Without gate noise it is |psi|^2 with readout flips on each
        bit as a 2x2 stochastic map; with it, the readout matrix applied to
        the gathered I/Z coefficients."""
        state = self.evolve(angles)
        if self.noise.has_gate_noise:
            gather, matrix = self.readout
            return matrix @ state[gather]
        probs = np.abs(state) ** 2
        f = self.noise.readout_flip
        if f > 0.0:
            n = self.num_qubits
            t = probs.reshape((2,) * n)
            for q in range(n):
                t = (1.0 - f) * t + f * np.flip(t, axis=q)
            probs = t.reshape(-1)
        return probs


@functools.cache
def _hadamard(n: int) -> np.ndarray:
    # H^n as one complex matrix, its own inverse: (-1)^(a.b) / 2^(n/2).
    mat = np.eye(2**n, dtype=complex)
    _walsh(mat, n)
    mat *= 2.0 ** (-0.5 * n)
    mat.flags.writeable = False
    return mat


def _walsh(c: np.ndarray, n: int) -> None:
    # The columns of the (2^n, m) array c through the unnormalized
    # Walsh-Hadamard transform, in place: entry b becomes
    # sum_u c[u] (-1)^(b.u), one butterfly per index bit. Small integers
    # stay exact.
    for q in range(n):
        _butterfly(c, q)


def _butterfly(c: np.ndarray, q: int) -> None:
    # Index bit q of c (counted from the most significant of the 2^n rows)
    # through an unnormalized Hadamard, in place: (a, b) -> (a + b, a - b).
    t = c.reshape(2**q, 2, -1)
    a, b = t[:, 0], t[:, 1]
    diff = a - b
    a += b
    b[...] = diff


def _frame_kernel(n: int, noise: NoiseModel, skeleton, slots) -> Kernel:
    # Rotation j's Pauli (-1)^s X^x Z^z, conjugated through the Cliffords
    # seen so far, is held bit-sliced: bit j of xs[q], zs[q] and sign is its
    # x_q, z_q and s. h and cx keep X^x Z^z Hermitian, so no factor i arises.
    xs, zs, sign, rotations = [0] * n, [0] * n, 0, 0
    start = np.zeros(2**n, dtype=complex)
    start[0] = 1.0  # |0...0>
    t = start.reshape((2,) * n)  # a view: each gate below rewrites the flat state in place
    for name, qubits in skeleton:
        q = qubits[-1]
        if name in PARAMETRIC:
            (xs if name == "rx" else zs)[q] |= 1 << rotations
            rotations += 1
        elif name == "h":  # X <-> Z, and X Z -> Z X = -X Z
            sign ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
            _butterfly(start, q)
            start *= _SQRT2_INV
        else:  # cx(c, q): X_c -> X_c X_q and Z_q -> Z_c Z_q; q flips where c is 1
            c = qubits[0]
            xs[q], zs[c] = xs[q] ^ xs[c], zs[c] ^ zs[q]
            ones = t[(slice(None),) * c + (1,)]  # where c is 1; q is its axis q - (q > c)
            ones[...] = ones[(slice(None),) * (q - (q > c)) + (slice(None, None, -1),)]  # numpy copies the overlap
    x_any, z_any = functools.reduce(operator.or_, xs, 0), functools.reduce(operator.or_, zs, 0)

    def basis_of(j):  # where rotation j is one of a phase step's rows: "z", "x" or None
        if not x_any >> j & 1:
            return "z"
        if n <= _HADAMARD_QUBITS and not z_any >> j & 1:
            return "x"
        return None

    # A run of rotations (-1)^s Z^u, or (-1)^s X^u conjugated by H^n to
    # (-1)^s Z^u, is the phase exp(-i/2 sum_j theta_j (-1)^s (-1)^(u.b)):
    # one flat row per parameter, summed over its rotations and scaled by
    # -i/2. coeffs has one column per (run, parameter) holding the sum of
    # (-1)^s at each u, so one Walsh-Hadamard transform gives every run's
    # rows. The rows hold small integers, so they and the scaling are exact.
    runs = [(basis, list(run)) for basis, run in itertools.groupby(range(rotations), basis_of)]
    params = [list(dict.fromkeys(slots[j] for j in run)) if basis else [] for basis, run in runs]
    offsets = list(itertools.accumulate(map(len, params), initial=0))
    coeffs = np.zeros((2**n, offsets[-1]))
    for (basis, run), ks, at in zip(runs, params, offsets):
        if basis:
            bits = zs if basis == "z" else xs
            for j in run:  # u is the rotation's Z (or X) bits as a flat index
                u = sum(1 << n - 1 - q for q in range(n) if bits[q] >> j & 1)
                coeffs[u, at + ks.index(slots[j])] += -1.0 if sign >> j & 1 else 1.0
    _walsh(coeffs, n)
    steps = []
    for (basis, run), ks, at in zip(runs, params, offsets):
        if basis:
            steps.append((np.array(ks), None if basis == "z" else _hadamard(n),
                          -0.5j * coeffs[:, at:at + len(ks)]))
            continue
        for j in run:
            # (-1)^(b_q ^ x_q) along each axis q in z
            w = math.prod((np.array([-1.0, 1.0] if xs[q] >> j & 1 else [1.0, -1.0]).reshape(
                (1,) * q + (2,) + (1,) * (n - q - 1)) for q in range(n) if zs[q] >> j & 1),
                start=1j if sign >> j & 1 else -1j)
            steps.append((slots[j], tuple(slice(None, None, -1) if xs[q] >> j & 1 else slice(None)
                                          for q in range(n)), w))
    return Kernel(n, noise, start, tuple(steps))


def compile_kernel(c: Circuit, noise: NoiseModel, slots) -> Kernel:
    """The circuit's skeleton compiled on the noise model, rotation j (in
    gate order) reading parameter ``slots[j]``. Without gate noise the start
    state is flat, an h ``_walsh``'s butterfly scaled by 1/sqrt(2) and a cx
    one reversed-slice copy, and every phase step's rows come from one
    Walsh-Hadamard transform of the rotations' signs, with one step per run
    of diagonal rotations, its parameters, None and one flat row for each,
    scaled by -i/2 (a complex row of 2^n amplitudes: 16 MiB at 20 qubits);
    on up to ``_HADAMARD_QUBITS`` qubits one per run of X-only rotations, its
    parameters, H^n and one such row for each; and one per other rotation,
    its parameter, axis flips and w. With it, one step per block
    (``_blocks``) but the fixed ones that no earlier step touches, which
    fold into the start state: the transposition that brings the block's
    qubits to the front of the state's axes, its width D, and its transfer
    matrix, or for a block with rotations the (group, index) of its matrix
    among those the evaluation builds. A group holds the blocks
    of one width D and one rotation count r: their parts as a
    (blocks, D*D, 3^r) array and their rotations' parameters as a
    (blocks, r) array. The readout is the index that gathers the I/Z
    coefficients by outcome and the readout matrix.
    Wider circuits raise CapacityError."""
    n = c.num_qubits
    limit = MAX_DENSITY_QUBITS if noise.has_gate_noise else MAX_QUBITS
    if n > limit:
        what = "gate noise" if noise.has_gate_noise else "a statevector"
        raise CapacityError(f"{what} is simulated up to {limit} qubits, got {n}")
    skeleton = [(g.name, g.qubits) for g in c.gates if g.name != "measure"]
    if not noise.has_gate_noise:
        return _frame_kernel(n, noise, skeleton, slots)
    # |0...0> has r = 1 on every string of I and Z, 0 elsewhere.
    shape = (4,) * n
    start = np.zeros(shape)
    start[(slice(0, 4, 3),) * n] = 1.0
    folded, kept, stepped = [], [], set()
    for block, gates in _blocks(skeleton):
        dim = 4 ** len(block)
        mat = np.eye(dim)[None]
        for name, qubits, _ in gates:
            part = _gate_parts(name, tuple(q in qubits for q in block), qubits[0] == block[0], noise)
            mat = (part[None] @ mat[:, None]).reshape(-1, dim, dim)  # parts indexed (earlier, later)
        ks = [slots[j] for _, _, j in gates if j is not None]
        if ks or stepped.intersection(block):
            kept.append((block, mat, ks))
            stepped.update(block)
        else:  # no step so far touches the block, so it commutes into the start state
            folded.append((block, mat, ks))
    order = list(range(n))  # order[a] is the qubit on state axis a
    steps, groups = [], {}
    for i, (block, mat, ks) in enumerate(folded + kept):
        dim = mat.shape[-1]
        perm = tuple(order.index(q) for q in block) + tuple(
            a for a, q in enumerate(order) if q not in block)
        order = [order[a] for a in perm]
        if i < len(folded):
            start = mat[0] @ start.reshape(shape).transpose(perm).reshape(dim, -1)
        elif ks:
            members = groups.setdefault((dim, len(ks)), [])
            steps.append((perm, dim, ((dim, len(ks)), len(members))))
            members.append((mat.reshape(len(mat), dim * dim).T, ks))
        else:
            steps.append((perm, dim, mat[0]))
    groups = {key: (np.stack([m for m, _ in members]), np.array([k for _, k in members]))
              for key, members in groups.items()}
    # Bit z_q of outcome index z (qubit 0 most significant) picks Z over I
    # on qubit q; its coefficient sits at digit 3 on qubit q's axis.
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    gather = (3 * bits[:, order] * 4 ** np.arange(n - 1, -1, -1)).sum(axis=1)
    # P(b) = 2^-n sum_z (-1)^(b.z) (1 - 2f)^|z| r_z: a flip of bit q with
    # probability f scales Z_q by 1 - 2f. Per qubit the matrix is
    # [[1, g], [1, -g]] / 2 in rows b_q and columns z_q, with g = 1 - 2f.
    g = 1.0 - 2.0 * noise.readout_flip
    matrix = np.ones((1, 1))
    for _ in range(n):
        matrix = _kron(matrix, np.array([[0.5, 0.5 * g], [0.5, -0.5 * g]]))
    return Kernel(n, noise, start, tuple(steps), groups=groups, readout=(gather, matrix))


def outcome_probabilities(c: Circuit, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Exact distribution of the measured bitstrings, indexed like the
    state: ``Kernel.probabilities`` at the circuit's angles."""
    angles, slots = _parameters(c)
    return compile_kernel(c, noise, slots).probabilities(angles)


def check_coupling(c: Circuit, coupling: Graph) -> None:
    """RoutingError unless every cx of the circuit acts on an edge of the
    coupling graph."""
    allowed = set(coupling.edges)
    for g in c.gates:
        if g.name == "cx" and (min(g.qubits), max(g.qubits)) not in allowed:
            raise RoutingError(f"cx{g.qubits} violates the coupling map; transpile before run_shots")


def run_shots(c: Circuit, backend: BackendProfile, shots: int) -> np.ndarray:
    """Sample measurement counts for the circuit on the given backend: the
    int64 tally of ``sample_tally``, one entry per bitstring index."""
    if backend.coupling is not None:
        check_coupling(c, backend.coupling)
    probs = outcome_probabilities(c, backend.noise)
    return sample_tally(probs, shot_rng(backend.seed, shots, serialize(c)), shots)


# -- backend profile config ------------------------------------------------


def backend_from_dict(d: dict) -> BackendProfile:
    """One profile entry: the ``BackendProfile`` and ``NoiseModel`` fields
    by name, except that ``coupling`` lists the edges of the coupling graph,
    whose nodes run to the largest qubit in them (a pair listed twice is one
    edge). A wrong value type, a broken rule or a bad pair raises ValueError
    naming the key."""
    noise_fields = record_fields(NoiseModel)
    schema = {**record_fields(BackendProfile), **noise_fields, "coupling": (tuple[tuple[int, int], ...], None)}
    del schema["noise"]
    kwargs = read_record(d, "backend profile", schema)
    noise = NoiseModel(**{k: kwargs.pop(k) for k in noise_fields if k in kwargs})
    pairs = kwargs.pop("coupling", None)
    if pairs == ():
        raise ValueError("backend profile key 'coupling' lists no pair; null means all-to-all")
    try:
        coupling = None if pairs is None else Graph.make(max(map(max, pairs)) + 1,
                                                         {(min(p), max(p)) for p in pairs})
    except ValueError as exc:
        raise ValueError(f"backend profile key 'coupling' is not a graph: {exc}") from None
    return BackendProfile(noise=noise, coupling=coupling, **kwargs)


def load_backend_profiles(path=None) -> dict[str, BackendProfile]:
    """Profiles from a JSON config; the bundled defaults when path is None.
    A config file is read on every call, the bundled one once per process,
    and each distinct text is parsed once."""
    if path is None:
        text = _bundled_profiles()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return dict(_parse_profiles(text))


@functools.cache
def _bundled_profiles() -> str:
    return resources.files("splitcut.data").joinpath("backends.json").read_text()


@functools.lru_cache(maxsize=16)
def _parse_profiles(text: str) -> dict[str, BackendProfile]:
    # Shared by every caller with this text: load_backend_profiles copies it.
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
