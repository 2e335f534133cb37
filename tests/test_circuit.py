import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcut.circuit import (
    Circuit,
    Gate,
    ParamVector,
    build_qaoa,
    cx,
    h,
    measure_all,
    parse,
    rx,
    rz,
    serialize,
    transpile,
)
from splitcut.errors import CircuitParseError, RoutingError
from splitcut.graph import Graph, benchmark_graph
from splitcut.simulator import run_statevector

from conftest import line, random_params


def expected_gate_count(g, p):
    return g.n + p * (3 * len(g.edges) + g.n) + 1


class TestBuildQaoa:
    def test_triangle_composition(self):
        g = benchmark_graph("cycle3")
        c = build_qaoa(g, ParamVector((0.3,), (0.2,)))
        names = [gate.name for gate in c.gates]
        assert names.count("h") == 3
        assert names.count("cx") == 6
        assert names.count("rz") == 3
        assert names.count("rx") == 3
        assert names[-1] == "measure"

    def test_cycle4_two_layer_total(self):
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, ParamVector((0.1, 0.2), (0.3, 0.4)))
        assert len(c.gates) == 37

    def test_gate_count_formula_on_benchmarks(self, benchmarks):
        for g in benchmarks.values():
            for p in (1, 2, 3):
                params = ParamVector((0.5,) * p, (0.25,) * p)
                assert len(build_qaoa(g, params).gates) == expected_gate_count(g, p)

    def test_edgeless_graph_is_mixer_only(self):
        c = build_qaoa(Graph(3, ()), ParamVector((0.1,), (0.2,)))
        assert all(gate.name not in ("cx", "rz") for gate in c.gates)
        with pytest.raises(ValueError, match="at least 2 qubits"):
            build_qaoa(Graph(1, ()), ParamVector((0.1,), (0.2,)))

    def test_two_qubit_count_doubles_with_p(self, benchmarks):
        for g in benchmarks.values():
            c1 = build_qaoa(g, ParamVector((0.1,), (0.2,)))
            c2 = build_qaoa(g, ParamVector((0.1, 0.1), (0.2, 0.2)))
            assert c2.gate_counts()["2q"] == 2 * c1.gate_counts()["2q"]

    def test_angle_convention(self):
        # cost angle 2*gamma on the rz, mixer angle 2*beta on the rx
        g = benchmark_graph("cycle3")
        c = build_qaoa(g, ParamVector((0.3,), (0.2,)))
        rz_angles = {gate.angle for gate in c.gates if gate.name == "rz"}
        rx_angles = {gate.angle for gate in c.gates if gate.name == "rx"}
        assert rz_angles == {0.6}
        assert rx_angles == {0.4}

    def test_edge_order_is_canonical(self):
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, ParamVector((0.1,), (0.2,)))
        pairs = [gate.qubits for gate in c.gates if gate.name == "cx"]
        assert pairs[::2] == list(g.edges)  # opening cx of each block


class TestCircuitType:
    def test_measure_must_be_last(self):
        with pytest.raises(ValueError):
            Circuit(2, (measure_all(), h(0)))

    def test_qubit_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(2, (h(2),))
        with pytest.raises(ValueError, match="at least one qubit"):
            Circuit(0, ())

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))
        with pytest.raises(ValueError):
            Gate("rx", (0,), float("nan"))
        with pytest.raises(ValueError):
            Gate("h", (0,), 0.5)
        with pytest.raises(ValueError):
            Gate("toffoli", (0, 1, 2))
        with pytest.raises(ValueError, match="cx takes 2 qubit"):
            Gate("cx", (0,))

    def test_depth(self):
        c = Circuit(2, (h(0), h(1), cx(0, 1), rz(1, 0.1), measure_all()))
        assert c.depth() == 3


class TestParamVector:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ParamVector((0.1,), (0.2, 0.3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamVector((), ())


class TestSerialization:
    def test_empty_single_qubit(self):
        assert serialize(Circuit(1, ())) == "qubits 1\n"

    def test_h_then_cx(self):
        c = Circuit(2, (h(0), cx(0, 1)))
        assert serialize(c) == "qubits 2\nh 0\ncx 0 1\n"

    def test_qaoa_round_trip(self):
        rng = np.random.default_rng(3)
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, random_params(rng, 2))
        assert parse(serialize(c)) == c

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_fuzzed_circuits(self, data):
        n = data.draw(st.integers(1, 5))
        gates = []
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["h", "rx", "rz", "cx"]))
            if kind == "cx" and n < 2:
                kind = "h"
            if kind == "cx":
                a = data.draw(st.integers(0, n - 1))
                b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
                gates.append(cx(a, b))
            else:
                q = data.draw(st.integers(0, n - 1))
                angle = data.draw(st.floats(-10, 10, allow_nan=False))
                gates.append({"h": h(q), "rx": rx(q, angle), "rz": rz(q, angle)}[kind])
        if data.draw(st.booleans()):
            gates.append(measure_all())
        c = Circuit(n, tuple(gates))
        assert parse(serialize(c)) == c

    def test_parse_comments_and_blanks(self):
        text = "# hello\nqubits 2\n\nh 0  # superpose\ncx 0 1\nmeasure\n"
        c = parse(text)
        assert [g.name for g in c.gates] == ["h", "cx", "measure"]

    @pytest.mark.parametrize("text,line", [
        ("qubits 2\nfoo 0\n", 2),
        ("qubits 2\nh 5\n", 2),
        ("qubits 2\nrx 0 nope\n", 2),
        ("qubits 2\nrx 0 inf\n", 2),
        ("h 0\n", 1),
        ("qubits 2\nmeasure\nh 0\n", 3),
        ("qubits 2\ncx 0 0\n", 2),
        ("qubits 2\nqubits 2\n", 2),
        ("qubits 2\ncx 0\n", 2),  # wrong argument count
        ("qubits 2\nh x\n", 2),   # bad qubit index
        ("", 1),                   # empty text
    ])
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert err.value.line == line

    def test_angles_survive_17_digit_round_trip(self):
        angle = 0.1234567890123456789 * math.pi
        c = Circuit(1, (rx(0, angle),))
        assert parse(serialize(c)).gates[0].angle == c.gates[0].angle


def permuted_state(state: np.ndarray, perm, n: int) -> np.ndarray:
    # perm[logical] = physical axis holding that logical qubit
    return np.transpose(state.reshape((2,) * n), perm).reshape(-1)


def states_match_up_to_permutation(original, routed, n):
    for perm in itertools.permutations(range(n)):
        if np.allclose(permuted_state(routed, perm, n), original, atol=1e-9):
            return True
    return False


class TestTranspile:
    def test_conformant_circuit_unchanged(self):
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, ParamVector((0.3,), (0.2,)))
        routed = transpile(c, g)
        assert routed.circuit == c
        assert routed.swap_count == 0
        assert routed.final_layout == (0, 1, 2, 3)

    def test_distant_cx_inserts_swap_block(self):
        c = Circuit(4, (cx(0, 3),))
        routed = transpile(c, line(4))
        assert routed.swap_count >= 1
        names = [g.name for g in routed.circuit.gates]
        assert names.count("cx") == 3 * routed.swap_count + 1
        for g in routed.circuit.gates:
            if g.name == "cx":
                a, b = g.qubits
                assert abs(a - b) == 1

    def test_swap_emitted_as_three_cx_pattern(self):
        routed = transpile(Circuit(3, (cx(0, 2),)), line(3))
        gates = routed.circuit.gates
        assert [g.name for g in gates[:3]] == ["cx", "cx", "cx"]
        a, b = gates[0].qubits
        assert gates[1].qubits == (b, a) and gates[2].qubits == (a, b)

    def test_statevector_equivalence_up_to_permutation(self):
        # Oracle: exhaustive permutation search, independent of reported layout.
        rng = np.random.default_rng(11)
        g = benchmark_graph("cycle4")
        for _ in range(5):
            c = build_qaoa(g, random_params(rng, 1))
            routed = transpile(c, line(4))
            original = run_statevector(c)
            moved = run_statevector(routed.circuit)
            assert states_match_up_to_permutation(original, moved, 4)

    def test_reported_layout_matches_equivalence(self, benchmarks):
        rng = np.random.default_rng(5)
        for g in benchmarks.values():
            for _ in range(5):
                c = build_qaoa(g, random_params(rng, 1))
                routed = transpile(c, line(g.n))
                original = run_statevector(c)
                moved = run_statevector(routed.circuit)
                # final_layout[l] = physical qubit of logical l
                assert np.allclose(
                    permuted_state(moved, routed.final_layout, g.n), original, atol=1e-9
                )

    def test_every_output_cx_is_allowed(self, benchmarks):
        rng = np.random.default_rng(9)
        for g in benchmarks.values():
            coupling = line(g.n)
            c = build_qaoa(g, random_params(rng, 2))
            routed = transpile(c, coupling)
            for gate in routed.circuit.gates:
                if gate.name == "cx":
                    assert tuple(sorted(gate.qubits)) in coupling.edges

    def test_path_ties_take_the_lowest_neighbour(self):
        # on a 4-ring, 0 reaches 2 through 1 or 3; the search tries 1 first
        routed = transpile(Circuit(4, (cx(0, 2),)), benchmark_graph("cycle4"))
        assert [g.qubits for g in routed.circuit.gates] == [(0, 1), (1, 0), (0, 1), (1, 2)]

    def test_too_small_map_rejected(self):
        with pytest.raises(RoutingError):
            transpile(Circuit(4, (cx(0, 3),)), line(3))

    def test_disconnected_map_rejected(self):
        coupling = Graph.make(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError):
            transpile(Circuit(4, (cx(0, 3),)), coupling)
