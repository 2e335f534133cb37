"""Problem graphs, benchmark instances, and the exact MaxCut reference solver.

Cut assignments are bitstrings (``"0101"``) or sequences of 0/1 ints; character
position ``i`` is the side of node ``i``. All functions here are pure and
thread-safe; ``Graph`` is immutable.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError

Edge = tuple[int, int]

BRUTEFORCE_MAX_NODES = 24
# Far past the simulators' 20 qubits: a larger count read from text is a typed error, not a list filling memory.
MAX_NODES = 1 << 16

# Named benchmark instances shipped as data files (see data/*.graph).
FIXED_BENCHMARKS = ("cycle3", "cycle4", "complete4_with_diagonals", "graph5", "graph6")

_PARAMETRIC = re.compile(r"(cycle|complete)\(([0-9]+)\)")


class GraphFormatError(ValueError):
    """Malformed graph-file text."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    ``edges`` must be canonical: u < v within each pair, pairs sorted
    lexicographically. Use :meth:`make` to normalize arbitrary input.
    Equality is structural.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        if self.n > MAX_NODES:
            raise CapacityError(f"node count limited to {MAX_NODES}, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) not canonical for n={self.n}")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("edges must be sorted and free of duplicates")

    @classmethod
    def make(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a Graph from unordered edge pairs; Graph rejects loops and duplicates."""
        pairs = [(int(e[0]), int(e[1])) for e in edges]
        return cls(n, tuple(sorted((min(u, v), max(u, v)) for u, v in pairs)))


def _as_bits(a: Sequence[int] | str, n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in a)
    if len(bits) != n:
        raise ValueError(f"assignment length {len(bits)} != node count {n}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("assignment entries must be 0 or 1")
    return bits


def cut_value(g: Graph, a: Sequence[int] | str) -> int:
    """Number of edges crossing the bipartition described by ``a``."""
    bits = _as_bits(a, g.n)
    return sum(1 for u, v in g.edges if bits[u] != bits[v])


def cut_values_vector(g: Graph) -> np.ndarray:
    """Cut value of every assignment, indexed so node 0 is the most
    significant bit of the index (index k <-> bitstring format(k, '0nb'))."""
    ks = np.arange(1 << g.n, dtype=np.int64)
    out = np.zeros(1 << g.n, dtype=np.int64)
    for u, v in g.edges:
        bu = (ks >> (g.n - 1 - u)) & 1
        bv = (ks >> (g.n - 1 - v)) & 1
        out += bu != bv
    return out


def max_cut_bruteforce(g: Graph) -> tuple[int, str]:
    """Exact MaxCut by enumeration of all 2^n assignments.

    Returns (cmax, witness bitstring). The witness is the lowest-index
    optimal assignment, so results are referentially stable.
    """
    if g.n > BRUTEFORCE_MAX_NODES:
        raise CapacityError(f"brute force limited to n <= {BRUTEFORCE_MAX_NODES}, got {g.n}")
    vals = cut_values_vector(g)
    k = int(np.argmax(vals))
    return int(vals[k]), format(k, f"0{g.n}b")


# -- text format ---------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [f"n {g.n}"] + [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def text_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each line that holds more than a ``#``
    comment, numbered from 1 and split on whitespace: the line grammar of
    the graph format and of the circuit wire format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def read_count(token: str) -> int:
    """A count or index of either text format: ASCII digits only, leading
    zeros allowed, at most ``MAX_NODES``. ValueError for any other token;
    CapacityError past the cap, naming a long count by its digit count."""
    if not (token.isdigit() and token.isascii()):
        raise ValueError(f"expected ASCII digits, got {token!r}")
    digits = token.lstrip("0") or "0"
    if len(digits) > len(str(MAX_NODES)) or int(digits) > MAX_NODES:
        got = digits if len(digits) < 20 else f"{len(digits)} digits"
        raise CapacityError(f"count limited to {MAX_NODES}, got {got}")
    return int(digits)


def graph_from_text(text: str) -> Graph:
    """The graph of an `n <count>` header and one `e <u> <v>` line per edge,
    each number read by :func:`read_count`; GraphFormatError names a
    malformed line as `line N:`."""
    n = None
    edges: list[tuple[int, int]] = []
    try:
        for lineno, fields in text_lines(text):
            if n is None and fields[0] == "n" and len(fields) == 2:
                n = read_count(fields[1])
            elif n is not None and fields[0] == "e" and len(fields) == 3:
                edges.append((read_count(fields[1]), read_count(fields[2])))
            else:
                raise ValueError("expected the `n <count>` header" if n is None else "expected `e <u> <v>`")
        lineno = None  # what remains concerns the whole graph
        if n is None:
            raise ValueError("missing `n <count>` header")
        return Graph.make(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc) if lineno is None else f"line {lineno}: {exc}") from None


def load_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_text(fh.read())


# -- benchmarks ----------------------------------------------------------


def is_benchmark_id(name: str) -> bool:
    return name in FIXED_BENCHMARKS or _PARAMETRIC.fullmatch(name) is not None


@functools.cache
def _fixed_benchmark(graph_id: str) -> Graph:
    return graph_from_text(resources.files("splitcut.data").joinpath(f"{graph_id}.graph").read_text())


def benchmark_graph(graph_id: str) -> Graph:
    """Named benchmark graph.

    Fixed instances (``cycle3`` .. ``graph6``) are read once per process
    from checked-in data files, so every experiment references one recorded
    edge list. Parametric forms: ``cycle(n)`` is the n-node ring (n >= 3),
    ``complete(n)`` is K_n (2 <= n <= 362, at most ``MAX_NODES`` edges).
    """
    if not is_benchmark_id(graph_id):
        raise ValueError(f"unknown benchmark graph id: {graph_id!r}")
    if graph_id in FIXED_BENCHMARKS:
        return _fixed_benchmark(graph_id)
    kind, digits = _PARAMETRIC.fullmatch(graph_id).groups()
    n = read_count(digits)
    least, size = (3, n) if kind == "cycle" else (2, n * (n - 1) // 2)
    if n < least:
        raise ValueError(f"{kind}(n) requires n >= {least}")
    if size > MAX_NODES:
        raise CapacityError(f"{kind}(n) limited to {MAX_NODES} edges, got {size}")
    ring = ((i, (i + 1) % n) for i in range(n))
    return Graph.make(n, ring if kind == "cycle" else itertools.combinations(range(n), 2))
