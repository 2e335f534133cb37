
import numpy as np
import pytest

from splitcut.graph import FIXED_BENCHMARKS, Graph, benchmark_graph, cut_values_vector
from splitcut.simulator import BackendProfile, NoiseModel


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def benchmarks():
    return {name: benchmark_graph(name) for name in FIXED_BENCHMARKS}


@pytest.fixture(scope="session")
def ideal_backend():
    return BackendProfile("ideal1", seed=11)


@pytest.fixture(scope="session")
def ideal_backend_2():
    return BackendProfile("ideal2", seed=12)


@pytest.fixture(scope="session")
def noisy_backend():
    return BackendProfile("hw1", noise=NoiseModel(0.002, 0.02, 0.035), seed=21)


def random_params(rng: np.random.Generator, p: int):
    from splitcut.circuit import ParamVector

    return ParamVector(
        tuple(rng.uniform(0, np.pi, size=p)),
        tuple(rng.uniform(0, np.pi / 2, size=p)),
    )


def line(n: int) -> Graph:
    """The coupling graph of n physical qubits in a line."""
    return Graph(n, tuple((q, q + 1) for q in range(n - 1)))


def random_coupling(rng: np.random.Generator, m: int) -> Graph:
    """A random connected coupling graph on m physical qubits: a random
    spanning tree plus a few extra pairs."""
    order = [int(q) for q in rng.permutation(m)]
    pairs = [(order[i], order[int(rng.integers(i))]) for i in range(1, m)]
    pairs += [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.2]
    return Graph.make(m, {(min(a, b), max(a, b)) for a, b in pairs})


def relabel(g: Graph, perm, n: int | None = None) -> Graph:
    """g with node q renamed perm[q], on n nodes (default g.n); nodes that
    no q is renamed to are isolated."""
    return Graph.make(g.n if n is None else n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])


def counts(tally: np.ndarray) -> dict[str, int]:
    """The bitstring view of a tally: ``format(k, '0nb')`` -> count for
    every nonzero entry, keys ascending."""
    n = len(tally).bit_length() - 1
    return {format(int(k), f"0{n}b"): int(tally[k]) for k in np.flatnonzero(tally)}


def remap_counts(tally: np.ndarray, final_layout: tuple[int, ...]) -> np.ndarray:
    """Rewrite a physical-order tally into logical order: the step the
    reference pipeline takes between ``run_shots`` and scoring.

    ``final_layout[l]`` is the physical qubit holding logical qubit l at
    measurement; the other physical qubits are summed out.
    """
    n = len(tally).bit_length() - 1
    axes = (*final_layout, *(q for q in range(n) if q not in final_layout))
    t = tally.reshape((2,) * n).transpose(axes)
    return t.reshape(1 << len(final_layout), -1).sum(axis=1)


def expectation_full_cost(g_full: Graph, tally: np.ndarray) -> float:
    """Mean cut value of the tallied samples under the full graph's cost:
    the reference pipeline's scorer. The cost graph is always the client's
    full graph; the circuit that produced the samples may well have been
    pruned. A tally over another number of qubits raises ValueError.
    """
    if len(tally) != 1 << g_full.n:
        raise ValueError(f"a tally of {len(tally)} outcomes is not over {g_full.n} qubits")
    return int(tally @ cut_values_vector(g_full)) / int(tally.sum())


def qaoa_p1_cut(g_full: Graph, g_circuit: Graph, gamma, beta):
    """The full graph's expected cut after one QAOA layer of g_circuit's
    circuit at (gamma, beta), from the closed-form single-layer Ising
    <Z_u Z_v> (Ozaeta, van Dam & McMahon, arXiv:2012.03421; Wang et al.,
    PRA 97, 022304, 2018 for MaxCut) with J = 1 on g_circuit's edges and
    0 elsewhere. It builds no state, so it checks the simulator from outside.
    gamma and beta may be arrays of one shape, giving the value at each point."""
    j = np.zeros((g_full.n, g_full.n))
    for u, v in g_circuit.edges:
        j[u, v] = j[v, u] = 1.0
    u, v = np.array(g_full.edges, dtype=int).reshape(-1, 2).T  # one row per full-graph edge
    ju, jv = j[u], j[v]
    # w ranges over the nodes other than u and v: a zero coupling adds a factor cos(0) = 1
    ju[np.arange(len(u)), v] = jv[np.arange(len(u)), u] = 0.0
    g2 = 2 * np.asarray(gamma, dtype=float)[..., None, None]
    beta = np.asarray(beta, dtype=float)[..., None]

    def prod_cos(w):
        return np.prod(np.cos(g2 * w), axis=-1)

    zz = (0.5 * np.sin(4 * beta) * np.sin(g2[..., 0] * j[u, v]) * (prod_cos(ju) + prod_cos(jv))
          - 0.5 * np.sin(2 * beta) ** 2 * (prod_cos(ju + jv) - prod_cos(ju - jv)))
    return np.sum(0.5 * (1.0 - zz), axis=-1)
