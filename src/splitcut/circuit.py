"""Gate-level circuit IR, the layered QAOA builder, routing onto a device's
coupling graph, and the line-oriented text format that stands in for the
artifact a client ships to a hardware provider.

Circuits are immutable value objects; everything here is a pure function.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import CircuitParseError, RoutingError
from .graph import Graph, read_count, text_lines

GATE_ARITY = {"h": 1, "rx": 1, "rz": 1, "cx": 2, "measure": 0}
PARAMETRIC = frozenset({"rx", "rz"})


@dataclass(frozen=True)
class Gate:
    """One circuit operation. ``angle`` is set exactly for rx/rz."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        arity = GATE_ARITY.get(self.name)
        if arity is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct: {self.qubits}")
        if self.name in PARAMETRIC:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.name} needs a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.name} takes no angle")


def h(q: int) -> Gate:
    return Gate("h", (q,))


def rx(q: int, angle: float) -> Gate:
    return Gate("rx", (q,), float(angle))


def rz(q: int, angle: float) -> Gate:
    return Gate("rz", (q,), float(angle))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def measure_all() -> Gate:
    return Gate("measure", ())


@dataclass(frozen=True)
class Circuit:
    """Ordered gate stream over ``num_qubits`` qubits with bound parameters.

    At most one measure gate, and only in final position.
    """

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for i, g in enumerate(self.gates):
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate {i} ({g.name}) targets qubit {q} out of range")
            if g.name == "measure" and i != len(self.gates) - 1:
                raise ValueError("measure must be the final gate")

    def gate_counts(self) -> dict[str, int]:
        """Counts of 1-qubit and 2-qubit gates (measurement excluded)."""
        one = sum(1 for g in self.gates if GATE_ARITY[g.name] == 1)
        two = sum(1 for g in self.gates if GATE_ARITY[g.name] == 2)
        return {"1q": one, "2q": two}

    def depth(self) -> int:
        """Unitary depth: longest per-qubit chain of gates, measurement excluded."""
        level = [0] * self.num_qubits
        for g in self.gates:
            if not g.qubits:
                continue
            d = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = d
        return max(level, default=0)


@dataclass(frozen=True)
class ParamVector:
    """``build_qaoa``'s 2p angles: per-layer cost angles (gammas) and
    mixer angles (betas). The client carries them as the 2p-vector
    x = gammas + betas."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError("gammas and betas must have equal length")
        if len(self.gammas) < 1:
            raise ValueError("need at least one layer")
        if not all(math.isfinite(x) for x in self.gammas + self.betas):
            raise ValueError("angles must be finite")


def build_qaoa(g: Graph, params: ParamVector) -> Circuit:
    """Layered QAOA circuit for MaxCut on ``g``.

    Hadamards on every qubit, then per layer k: for each edge (u, v) in
    canonical order the ZZ block cx(u,v), rz(v, 2*gamma_k), cx(u,v); then
    rx(q, 2*beta_k) on every qubit. Ends with a measure of all qubits.
    An edgeless graph yields a mixer-only circuit.
    """
    if g.n < 2:
        raise ValueError("QAOA needs at least 2 qubits")
    gates: list[Gate] = [h(q) for q in range(g.n)]
    for gamma_k, beta_k in zip(params.gammas, params.betas):
        for u, v in g.edges:
            gates += [cx(u, v), rz(v, 2.0 * gamma_k), cx(u, v)]
        gates += [rx(q, 2.0 * beta_k) for q in range(g.n)]
    gates.append(measure_all())
    return Circuit(g.n, tuple(gates))


# -- routing ---------------------------------------------------------------


@dataclass(frozen=True)
class TranspiledCircuit:
    """Routing result: the physical circuit plus the logical->physical map
    needed to read measured bits back in logical order."""

    circuit: Circuit
    final_layout: tuple[int, ...]
    swap_count: int


def transpile(c: Circuit, coupling: Graph) -> TranspiledCircuit:
    """Route ``c`` onto ``coupling``, the graph on a device's physical
    qubits whose edges are the pairs a cx may act on, with greedy
    shortest-path SWAP insertion.

    Logical qubit q starts on physical qubit q. Each SWAP is emitted as the
    three-gate block cx(a,b), cx(b,a), cx(a,b). The first qubit of a blocked
    cx is walked along a breadth-first shortest path, which tries neighbours
    in ascending order, until adjacent to the second.
    """
    if coupling.n < c.num_qubits:
        raise RoutingError(f"coupling map has {coupling.n} qubits, circuit needs {c.num_qubits}")
    # Canonical sorted edges list each qubit's neighbours in ascending order.
    adjacency: list[list[int]] = [[] for _ in range(coupling.n)]
    for u, v in coupling.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    l2p = list(range(c.num_qubits))
    gates: list[Gate] = []
    swaps = 0

    def shortest_path(a: int, b: int) -> list[int]:
        prev = {a: None}
        queue = deque([a])
        while queue:
            cur = queue.popleft()
            for nb in adjacency[cur]:
                if nb not in prev:
                    prev[nb] = cur
                    if nb == b:
                        path = [b]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    queue.append(nb)
        raise RoutingError(f"no path between physical qubits {a} and {b}")

    def emit_swap(a: int, b: int):
        nonlocal swaps
        gates.extend([cx(a, b), cx(b, a), cx(a, b)])
        for logical, phys in enumerate(l2p):
            if phys == a:
                l2p[logical] = b
            elif phys == b:
                l2p[logical] = a
        swaps += 1

    for g in c.gates:
        if g.name == "measure":
            gates.append(measure_all())
        elif GATE_ARITY[g.name] == 1:
            gates.append(Gate(g.name, (l2p[g.qubits[0]],), g.angle))
        else:
            u, v = g.qubits
            if l2p[v] not in adjacency[l2p[u]]:
                path = shortest_path(l2p[u], l2p[v])
                for k in range(len(path) - 2):
                    emit_swap(path[k], path[k + 1])
            gates.append(cx(l2p[u], l2p[v]))

    return TranspiledCircuit(
        circuit=Circuit(coupling.n, tuple(gates)),
        final_layout=tuple(l2p),
        swap_count=swaps,
    )


# -- text wire format ------------------------------------------------------
#
# Angles carry 17 significant digits so serialize/parse round-trips exactly.


def wire_template(c: Circuit) -> str:
    """The circuit's text with a ``{}`` field for each angle, in gate order:
    filled with each angle's ``format(angle, ".17g")``, it is the wire text."""
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        if g.name == "measure":
            lines.append("measure")
        elif g.name in PARAMETRIC:
            lines.append(f"{g.name} {g.qubits[0]} {{}}")
        else:
            lines.append(f"{g.name} " + " ".join(str(q) for q in g.qubits))
    return "\n".join(lines) + "\n"


def serialize(c: Circuit) -> str:
    return wire_template(c).format(*(format(g.angle, ".17g") for g in c.gates if g.angle is not None))


def parse(text: str) -> Circuit:
    """The circuit of a `qubits <n>` header (n >= 1) and one gate per line,
    each count and index read by :func:`graph.read_count` and each angle by
    ``float``; CircuitParseError names the first malformed line."""
    num_qubits = None
    gates: list[Gate] = []
    qubit_of: dict[str, int] = {}  # index token -> qubit: each distinct token is read and checked once
    try:
        for lineno, (op, *args) in text_lines(text):
            if num_qubits is None:
                num_qubits = read_count(args[0]) if op == "qubits" and len(args) == 1 else 0
                if num_qubits < 1:
                    raise ValueError("expected `qubits <n>` header with n >= 1")
                continue
            arity = GATE_ARITY.get(op)
            if arity is None:
                raise ValueError("duplicate header" if op == "qubits" else f"unknown opcode {op!r}")
            if gates and gates[-1].name == "measure":
                raise ValueError("gate after measure")
            if len(args) != arity + (op in PARAMETRIC):
                raise ValueError(f"wrong argument count for {op}")
            qubits = []
            for a in args[:arity]:
                q = qubit_of.get(a)
                if q is None:
                    q = qubit_of[a] = read_count(a)
                    if q >= num_qubits:
                        raise ValueError(f"qubit index {q} out of range")
                qubits.append(q)
            gates.append(Gate(op, tuple(qubits), float(args[-1]) if op in PARAMETRIC else None))
    except ValueError as exc:
        raise CircuitParseError(lineno, str(exc)) from None
    if num_qubits is None:
        raise CircuitParseError(1, "empty circuit text")
    return Circuit(num_qubits, tuple(gates))
