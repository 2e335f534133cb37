import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcut.adversary import (
    cross_provider_merge,
    effort,
    extract_graph,
)
from splitcut.circuit import Circuit, ParamVector, build_qaoa, cx, h, rz, serialize, transpile
from splitcut.errors import CapacityError
from splitcut.graph import Graph, benchmark_graph
from splitcut.obfuscation import make_split_plan, prune

from conftest import line, random_coupling, random_params, relabel
from test_graph import random_graph


class TestExtract:
    def test_unrouted_cycle4_recovers_exactly(self):
        g = benchmark_graph("cycle4")
        report = extract_graph(serialize(build_qaoa(g, ParamVector((0.7,), (0.3,)))))
        assert report.recovered_graph == g
        assert report.swap_count == 0
        assert report.unmatched_gates == 0
        assert report.final_mapping == (0, 1, 2, 3)

    def test_routed_k4_recovers_through_swaps(self):
        g = benchmark_graph("complete4_with_diagonals")
        c = build_qaoa(g, ParamVector((0.4,), (0.2,)))
        routed = transpile(c, line(4))
        assert routed.swap_count >= 1
        report = extract_graph(serialize(routed.circuit))
        assert report.recovered_graph == g
        assert report.swap_count == routed.swap_count
        assert report.unmatched_gates == 0

    def test_pruned_circuit_hides_the_secret_edge(self):
        g = benchmark_graph("cycle4")
        pg = prune(g, [(0, 1)])
        report = extract_graph(serialize(build_qaoa(pg, ParamVector((0.1, 0.2), (0.3, 0.4)))))
        assert len(report.recovered_graph.edges) == 3
        assert (0, 1) not in report.recovered_graph.edges

    def test_layers_deduplicate(self):
        g = benchmark_graph("cycle3")
        for p in (1, 2, 3):
            params = ParamVector((0.3,) * p, (0.2,) * p)
            report = extract_graph(serialize(build_qaoa(g, params)))
            assert report.recovered_graph == g

    def test_round_trip_all_benchmarks_routed_and_not(self, benchmarks):
        rng = np.random.default_rng(13)
        for g in benchmarks.values():
            for p in (1, 2, 3):
                c = build_qaoa(g, random_params(rng, p))
                assert extract_graph(serialize(c)).recovered_graph == g
                routed = transpile(c, line(g.n))
                rep = extract_graph(serialize(routed.circuit))
                assert rep.recovered_graph == g
                assert rep.unmatched_gates == 0

    @given(st.integers(2, 7), st.integers(0, 2), st.integers(1, 2), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_on_random_couplings_and_placements(self, n, spare, p, pyrandom):
        # a random connected coupling map: a random spanning tree over n
        # plus 0-2 spare physical qubits, with a few extra pairs
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        g = random_graph(rng, n)
        m = n + spare
        coupling = random_coupling(rng, m)
        # node q placed on physical qubit placement[q]; the spares are isolated
        placement = tuple(int(q) for q in rng.permutation(m)[:n])
        placed = relabel(g, placement, m)
        routed = transpile(build_qaoa(placed, random_params(rng, p)), coupling)
        assert routed.circuit.num_qubits == m
        rep = extract_graph(serialize(routed.circuit))
        # the extractor names qubits by their initial physical position
        assert rep.recovered_graph == placed
        logical = {phys: q for q, phys in enumerate(placement)}
        assert Graph.make(n, [(logical[a], logical[b]) for a, b in rep.recovered_graph.edges]) == g
        assert rep.unmatched_gates == 0
        assert rep.swap_count == routed.swap_count

    def test_stray_gates_counted_not_crashed(self):
        c = Circuit(3, (cx(0, 1), h(2), cx(1, 2), rz(1, 0.5)))
        report = extract_graph(serialize(c))
        assert report.unmatched_gates == 3  # two lone cx and one lone rz
        assert report.recovered_graph.edges == ()
        # a cx(a,b) ... cx(a,b) frame is a pattern only with cx(b,a) or rz(b) inside
        for middle in (rz(0, 0.5), cx(0, 1)):
            report = extract_graph(serialize(Circuit(2, (cx(0, 1), middle, cx(0, 1)))))
            assert (report.recovered_graph.edges, report.swap_count, report.unmatched_gates) == ((), 0, 3)

    def test_extraction_complements_pruning_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 8)))
            if len(g.edges) < 2:
                continue
            k = int(rng.integers(1, len(g.edges)))
            removed = [g.edges[i] for i in rng.choice(len(g.edges), size=k, replace=False)]
            pg = prune(g, removed)
            rep = extract_graph(serialize(build_qaoa(pg, ParamVector((0.4,), (0.2,)))))
            assert set(rep.recovered_graph.edges) == set(g.edges) - set(removed)

    def test_report_to_dict(self):
        g = benchmark_graph("cycle3")
        d = extract_graph(serialize(build_qaoa(g, ParamVector((0.3,), (0.2,))))).to_dict()
        assert d["nodes"] == 3
        assert d["swap_count"] == 0
        assert sorted(d) == ["edges", "final_mapping", "nodes", "swap_count", "unmatched_gates"]


class TestEffort:
    def test_four_node_cycle_minus_one(self):
        est = effort(4, 3)
        assert est.candidate_edges == 3
        assert est.worst_case_trials == 8

    def test_ten_node_cycle_minus_one(self):
        est = effort(10, 9)
        assert est.candidate_edges == 36
        assert est.worst_case_trials == 2**36 == 68719476736

    def test_ten_node_complete_minus_one(self):
        est = effort(10, 44)
        assert est.candidate_edges == 1
        assert est.min_guesses == 1

    def test_total_pair_universe(self):
        assert effort(10, 0).total_pairs == 45
        assert effort(10, 0).candidate_edges == 45

    def test_arithmetic_exhaustive_to_16_nodes(self):
        for n in range(1, 17):
            total = n * (n - 1) // 2
            for observed in range(total + 1):
                est = effort(n, observed)
                assert est.candidate_edges + est.observed_edges == total
                assert est.worst_case_trials == 2**est.candidate_edges

    def test_big_integer_exactness(self):
        est = effort(32, 0)
        assert est.candidate_edges == 496
        assert est.worst_case_trials == 1 << 496  # exact, no float anywhere

    def test_no_candidates_means_no_guessing(self):
        assert effort(4, 6).min_guesses == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            effort(4, 7)
        with pytest.raises(ValueError):
            effort(4, -1)

    def test_count_too_wide_to_print_rejected(self):
        # 2^19900 has 5991 digits, over Python's default 4300-digit limit
        # on int-to-text conversion
        with pytest.raises(CapacityError, match="n=200.*5991 digits"):
            effort(200, 0)

    def test_huge_count_rejected_before_it_is_computed(self):
        # 2^(5e9) would take about 600 MiB and seconds to build
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"n=100000"):
            effort(10**5, 0)
        assert time.perf_counter() - start < 1.0

    def test_count_under_the_digit_limit_stays_exact(self):
        est = effort(120, 0)
        assert est.worst_case_trials == 1 << 7140
        assert len(str(est.worst_case_trials)) == 2150


class TestMerge:
    def test_two_flavor_collusion_recovers_cycle4(self):
        g = benchmark_graph("cycle4")
        params = ParamVector((0.3,), (0.1,))
        seen = [
            extract_graph(serialize(build_qaoa(prune(g, [edge]), params))).recovered_graph
            for edge in [(0, 3), (0, 1)]
        ]
        assert cross_provider_merge(seen) == g
        for recovered in seen:
            assert set(recovered.edges) < set(g.edges)

    def test_single_report_is_identity(self):
        g = benchmark_graph("cycle3")
        rep = extract_graph(serialize(build_qaoa(g, ParamVector((0.3,), (0.1,)))))
        assert cross_provider_merge([rep.recovered_graph]) == g

    def test_three_disjoint_flavors_on_graph6(self, ideal_backend, ideal_backend_2, noisy_backend):
        g = benchmark_graph("graph6")
        split = make_split_plan(
            g, 3, 1, [ideal_backend, ideal_backend_2, noisy_backend], seed=11
        )
        params = ParamVector((0.5,), (0.2,))
        seen = [
            extract_graph(serialize(build_qaoa(prune(g, f.removed_edges), params))).recovered_graph
            for f in split
        ]
        assert cross_provider_merge(seen) == g
        for recovered in seen:
            assert set(recovered.edges) < set(g.edges)

    def test_mismatched_node_counts_merge_on_widest(self):
        # providers whose coupling maps differ in size: the union lives on the
        # widest graph, and the narrower one's missing nodes are isolated
        g3 = benchmark_graph("cycle3")
        g4 = benchmark_graph("cycle4")
        params = ParamVector((0.3,), (0.1,))
        r3 = extract_graph(serialize(build_qaoa(g3, params)))
        r4 = extract_graph(serialize(build_qaoa(g4, params)))
        merged = cross_provider_merge([r3.recovered_graph, r4.recovered_graph])
        assert merged == Graph.make(4, set(g3.edges) | set(g4.edges))
        assert cross_provider_merge([r4.recovered_graph, r3.recovered_graph]) == merged

    def test_empty_report_list_rejected(self):
        with pytest.raises(ValueError):
            cross_provider_merge([])
