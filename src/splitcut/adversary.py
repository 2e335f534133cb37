"""The attacker's side: recover the encoded graph from a received circuit
and size the search an adversary faces to complete a pruned graph.

The extractor is a streaming pattern matcher over the wire format. It keeps
a physical->logical map, consumes cx(a,b) cx(b,a) cx(a,b) as a SWAP (map
update) and cx(a,b) rz(b,.) cx(a,b) as a ZZ edge between the mapped qubits,
and skips single-qubit rotations and the measurement. Both patterns open
and close with the same cx(a,b), so the middle gate alone tells them apart
and no run of gates can match both. Repeated ZZ blocks on one pair (one per
layer) collapse into a single edge. Everything here is a pure function.
"""
from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass

from .circuit import parse
from .errors import CapacityError
from .graph import Graph
from .records import read_record, record_fields


@dataclass(frozen=True)
class ExtractionReport:
    recovered_graph: Graph
    swap_count: int
    final_mapping: tuple[int, ...]  # physical -> logical
    unmatched_gates: int

    def to_dict(self) -> dict:
        return {
            "nodes": self.recovered_graph.n,
            "edges": [list(e) for e in self.recovered_graph.edges],
            "swap_count": self.swap_count,
            "final_mapping": list(self.final_mapping),
            "unmatched_gates": self.unmatched_gates,
        }


def report_graph(d) -> Graph:
    """The recovered graph of an extraction report read back from JSON.

    The keys are the ``ExtractionReport`` fields as ``to_dict`` writes them,
    plus the ``effort`` and ``summary`` that ``adversary extract`` adds.
    Only ``nodes`` and ``edges`` are required, so a merged report reads
    back too. A wrong value type raises ValueError naming the key.
    """
    schema = {key: (hint, None) for key, (hint, _) in record_fields(ExtractionReport).items()}
    del schema["recovered_graph"]
    schema.update(nodes=(int, MISSING), edges=(tuple[tuple[int, int], ...], MISSING),
                  effort=(dict, None), summary=(str, None))
    kwargs = read_record(d, "extraction report", schema)
    return Graph.make(kwargs["nodes"], kwargs["edges"])


def extract_graph(text: str) -> ExtractionReport:
    """Reconstruct the problem graph encoded in a serialized circuit."""
    c = parse(text)
    p2l = list(range(c.num_qubits))
    gates = c.gates
    edges: set[tuple[int, int]] = set()
    swaps = 0
    unmatched = 0
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.name in ("h", "rx", "measure"):
            i += 1
            continue
        if g.name == "cx" and i + 2 < len(gates) and gates[i + 2] == g:
            a, b = g.qubits
            mid = gates[i + 1]
            if (mid.name, mid.qubits) == ("cx", (b, a)):
                p2l[a], p2l[b] = p2l[b], p2l[a]
                swaps += 1
                i += 3
                continue
            if (mid.name, mid.qubits) == ("rz", (b,)):
                u, v = p2l[a], p2l[b]
                edges.add((min(u, v), max(u, v)))
                i += 3
                continue
        unmatched += 1
        i += 1
    return ExtractionReport(
        recovered_graph=Graph.make(c.num_qubits, sorted(edges)),
        swap_count=swaps,
        final_mapping=tuple(p2l),
        unmatched_gates=unmatched,
    )


@dataclass(frozen=True)
class EffortEstimate:
    """Search-space bounds for completing an observed graph to the original."""

    n: int
    observed_edges: int
    candidate_edges: int
    worst_case_trials: int
    min_guesses: int

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def to_dict(self) -> dict:
        return {
            "nodes": self.n,
            "observed_edges": self.observed_edges,
            "total_pairs": self.total_pairs,
            "candidate_edges": self.candidate_edges,
            "worst_case_trials": self.worst_case_trials,
            "min_guesses": self.min_guesses,
        }


def effort(n: int, observed_edges: int) -> EffortEstimate:
    """Worst-case reconstruction effort for an n-node graph of which
    ``observed_edges`` edges were seen.

    Every unobserved node pair may or may not belong to the original graph,
    so the worst case checks 2^candidates subsets; with a single candidate
    pair there is only one possible completion. A count with more decimal
    digits than Python converts to text (``sys.get_int_max_str_digits()``)
    raises CapacityError before it is computed.
    """
    total = n * (n - 1) // 2
    if n < 1:
        raise ValueError("need at least one node")
    if not 0 <= observed_edges <= total:
        raise ValueError(f"observed_edges must be in [0, {total}], got {observed_edges}")
    candidates = total - observed_edges
    digits = int(candidates * math.log10(2)) + 1
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise CapacityError(f"effort for n={n}: 2^{candidates} worst-case trials have "
                            f"{digits} digits, over the {limit}-digit limit")
    return EffortEstimate(
        n=n,
        observed_edges=observed_edges,
        candidate_edges=candidates,
        worst_case_trials=2 ** candidates,
        min_guesses=1 if candidates >= 1 else 0,
    )


def cross_provider_merge(graphs: list[Graph]) -> Graph:
    """Union of the recovered graphs' edge sets: what colluding providers
    learn.

    By the split plan's union rule this is the full graph, while each
    single provider's recovered graph stays strictly partial. Each
    recovered graph has one node per physical qubit of its backend, so the
    union is taken on the widest one; a narrower provider's missing nodes
    and every spare physical qubit are isolated nodes.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    merged: set[tuple[int, int]] = set()
    for g in graphs:
        merged |= set(g.edges)
    return Graph.make(max(g.n for g in graphs), sorted(merged))
