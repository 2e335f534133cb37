import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcut.errors import CapacityError
from splitcut.graph import (
    MAX_NODES,
    Graph,
    GraphFormatError,
    benchmark_graph,
    cut_value,
    graph_from_text,
    graph_to_text,
    max_cut_bruteforce,
    read_count,
    text_lines,
)


def enumerate_maxcut_reference(g: Graph):
    """Independent oracle: pure-Python enumeration in tuple (LSB-last) order,
    unlike the vectorized bit-arithmetic path."""
    best_val, best_bits = -1, None
    for bits in itertools.product((0, 1), repeat=g.n):
        val = sum(1 for u, v in g.edges if bits[u] != bits[v])
        if val > best_val:
            best_val, best_bits = val, bits
    return best_val, best_bits


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, ())
    mask = rng.random(len(pairs)) < 0.5
    return Graph.make(n, [p for p, keep in zip(pairs, mask) if keep])


class TestCutValue:
    def test_triangle_one_vs_two(self):
        g = benchmark_graph("cycle3")
        assert cut_value(g, (0, 1, 1)) == 2

    def test_all_zeros_is_empty_cut(self, benchmarks):
        for g in benchmarks.values():
            assert cut_value(g, "0" * g.n) == 0

    def test_five_node_benchmark_optimum_is_five(self):
        g = benchmark_graph("graph5")
        cmax, witness = max_cut_bruteforce(g)
        assert cmax == 5
        assert cut_value(g, witness) == 5

    def test_length_mismatch_rejected(self):
        g = benchmark_graph("cycle4")
        with pytest.raises(ValueError):
            cut_value(g, "010")
        with pytest.raises(ValueError, match="must be 0 or 1"):
            cut_value(benchmark_graph("cycle3"), "012")

    def test_accepts_strings_and_sequences(self):
        g = benchmark_graph("cycle4")
        assert cut_value(g, "0101") == cut_value(g, [0, 1, 0, 1]) == 4

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_complement_invariance(self, n, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        g = random_graph(rng, n)
        bits = "".join(str(rng.integers(0, 2)) for _ in range(n))
        flipped = "".join("1" if b == "0" else "0" for b in bits)
        assert cut_value(g, bits) == cut_value(g, flipped)


class TestBruteForce:
    def test_triangle(self):
        assert max_cut_bruteforce(benchmark_graph("cycle3"))[0] == 2

    def test_four_cycle_cuts_every_edge(self):
        cmax, witness = max_cut_bruteforce(benchmark_graph("cycle4"))
        assert cmax == 4
        assert witness in ("0101", "1010")

    def test_bipartite_benchmarks_cut_all_edges(self):
        for n in (4, 6, 8, 10):
            g = benchmark_graph(f"cycle({n})")
            assert max_cut_bruteforce(g)[0] == len(g.edges)

    def test_matches_independent_enumerator_on_benchmarks(self, benchmarks):
        for g in benchmarks.values():
            assert max_cut_bruteforce(g)[0] == enumerate_maxcut_reference(g)[0]

    def test_matches_independent_enumerator_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 10)))
            cmax, witness = max_cut_bruteforce(g)
            assert cmax == enumerate_maxcut_reference(g)[0]
            assert cut_value(g, witness) == cmax

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            max_cut_bruteforce(Graph(25, ()))

    def test_edgeless_graph(self):
        cmax, witness = max_cut_bruteforce(Graph(3, ()))
        assert cmax == 0 and witness == "000"


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop on node 1"):
            Graph.make(3, [(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Graph.make(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph.make(3, [(0, 3)])
        with pytest.raises(ValueError, match="node count must be positive"):
            Graph(0, ())
        assert Graph(1 << 16, ()).n == MAX_NODES
        with pytest.raises(CapacityError, match="node count limited to 65536"):
            Graph(MAX_NODES + 1, ())

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (0, 1)))

    def test_make_normalizes_order(self):
        g = Graph.make(4, [(3, 2), (1, 0)])
        assert g.edges == ((0, 1), (2, 3))

    def test_structural_equality(self):
        assert Graph.make(3, [(2, 0)]) == Graph.make(3, [(0, 2)])


class TestBenchmarks:
    def test_cycle4_edge_list(self):
        g = benchmark_graph("cycle4")
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_complete4_has_all_pairs(self):
        g = benchmark_graph("complete4_with_diagonals")
        assert len(g.edges) == 6

    def test_parametric_forms(self):
        assert len(benchmark_graph("cycle(10)").edges) == 10
        assert len(benchmark_graph("complete(4)").edges) == 6
        assert benchmark_graph("complete(4)") == benchmark_graph("complete4_with_diagonals")

    def test_deterministic_across_calls(self):
        assert benchmark_graph("graph6") == benchmark_graph("graph6")

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            benchmark_graph("pentagon")
        with pytest.raises(ValueError):
            benchmark_graph("cycle(2)")
        with pytest.raises(ValueError, match=r"complete\(n\) requires n >= 2"):
            benchmark_graph("complete(1)")
        with pytest.raises(ValueError):
            benchmark_graph("cycle(\u0665)")  # an Arabic-Indic digit five used to read as 5
        with pytest.raises(ValueError):
            benchmark_graph("cycle(5)\n")  # `$` used to match before the newline

    def test_an_id_expands_to_at_most_max_nodes_edges(self):
        assert len(benchmark_graph("complete(362)").edges) == 65341
        with pytest.raises(CapacityError, match="limited to 65536 edges"):
            benchmark_graph("complete(363)")
        assert benchmark_graph("cycle(65536)").n == MAX_NODES


class TestTextFormat:
    def test_round_trip_on_benchmarks(self, benchmarks):
        for g in benchmarks.values():
            assert graph_from_text(graph_to_text(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a square\n\nn 4\ne 0 1  # first\ne 1 2\ne 2 3\ne 0 3\n"
        assert graph_from_text(text) == benchmark_graph("cycle4")

    def test_line_grammar(self):
        # the one reader of both text formats: comments and blank lines
        # dropped, whitespace split, lines numbered from 1
        text = "# a square\n\n  n 4 # count\ne 0\t1\n   # \nqubits 2"
        assert list(text_lines(text)) == [(3, ["n", "4"]), (4, ["e", "0", "1"]), (6, ["qubits", "2"])]

    def test_count_reader_takes_ascii_digits_up_to_the_cap(self):
        assert read_count("065536") == MAX_NODES
        assert read_count("0") == 0
        for bad in ("", "+1", "-1", "1_0", "\u0662", "\u00b2", " 1", "1.0"):
            with pytest.raises(ValueError, match="ASCII digits"):
                read_count(bad)
        with pytest.raises(CapacityError, match="65536, got 65537"):
            read_count("65537")
        with pytest.raises(CapacityError, match="got 5000 digits"):
            read_count("0" * 10 + "9" * 5000)

    def test_writer_is_canonical(self):
        text = graph_to_text(Graph.make(3, [(2, 1), (1, 0)]))
        assert text == "n 3\ne 0 1\ne 1 2\n"

    @pytest.mark.parametrize("bad", [
        "e 0 1\n",            # edge before header
        "n x\n",              # non-integer count
        "n ²\n",              # a digit int() does not read
        "n 3\nv 0 1\n",       # unknown record
        "n 3\ne 0\n",         # missing endpoint
        "n 3\ne 0 5\n",       # endpoint out of range
        "",                    # empty
        "n 3\nn 3\n",         # duplicate header
        "n 3\ne 0 x\n",       # non-integer endpoint
        # counts and endpoints int() reads but the format does not: each used to parse
        "n " + "9" * 5000 + "\n",  # too long for int(): used to name no line
        "n 4\ne +0 3\n",
        "n 11\ne 0 1_0\n",
        "n \u0664\ne 0 1\n",  # an Arabic-Indic digit four
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(GraphFormatError):
            graph_from_text(bad)
