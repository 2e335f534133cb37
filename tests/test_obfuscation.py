import hashlib
import inspect
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from splitcut.circuit import ParamVector, build_qaoa, parse, serialize, transpile
from splitcut.errors import CapacityError, MetricError, PlanError
from splitcut.graph import Graph, benchmark_graph, cut_values_vector, max_cut_bruteforce
from splitcut.obfuscation import (
    PrunedFlavor,
    approximation_ratio,
    check_split,
    compile_flavor,
    exact_optimum,
    make_split_plan,
    optimize,
    prune,
)
from splitcut.simulator import BackendProfile, NoiseModel, outcome_probabilities, run_shots

from conftest import (
    expectation_full_cost, line, qaoa_p1_cut, random_coupling, random_params, relabel,
    remap_counts,
)
from test_graph import random_graph


def unpruned(backend):
    """The baseline arm: one flavor that removes nothing."""
    return (PrunedFlavor((), backend),)


@pytest.fixture(scope="module")
def line6_backend():
    return BackendProfile("line1", coupling=line(6), seed=31)


def compiled(g, flavors, p=1):
    """The flavors as ``optimize`` takes them: compiled on g at p layers."""
    return tuple(compile_flavor(g, f, p) for f in flavors)


class TestPrune:
    def test_cycle4_minus_one_edge_keeps_qubit_count(self):
        g = benchmark_graph("cycle4")
        pg = prune(g, [(0, 1)])
        assert pg.n == 4
        assert len(pg.edges) == 3
        assert (0, 1) not in pg.edges

    def test_empty_removal_rejected(self):
        # nothing removed is the unpruned flavor's graph
        g = benchmark_graph("cycle4")
        assert prune(g, []) == g

    def test_k4_minus_two(self):
        g = benchmark_graph("complete4_with_diagonals")
        assert len(prune(g, [(0, 1), (2, 3)]).edges) == 4

    def test_absent_edge_rejected(self):
        with pytest.raises(PlanError, match=r"not in the graph: \[\(0, 2\)\]"):
            prune(benchmark_graph("cycle4"), [(0, 2)])

    def test_unordered_pairs_accepted(self):
        g = benchmark_graph("cycle4")
        assert prune(g, [(1, 0)]) == prune(g, [(0, 1)])


class TestPlans:
    def test_identical_removed_sets_rejected(self, ideal_backend, ideal_backend_2):
        f1 = PrunedFlavor(((0, 1),), ideal_backend)
        f2 = PrunedFlavor(((0, 1),), ideal_backend_2)
        with pytest.raises(PlanError, match="distinct removed sets"):
            check_split(benchmark_graph("cycle4"), (f1, f2))

    def test_duplicate_backend_names_rejected(self, ideal_backend):
        f1 = PrunedFlavor(((0, 1),), ideal_backend)
        f2 = PrunedFlavor(((1, 2),), ideal_backend)
        with pytest.raises(PlanError, match="distinct names"):
            check_split(benchmark_graph("cycle4"), (f1, f2))

    def test_union_rule_rejects_edge_removed_everywhere(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("cycle4")
        f1 = PrunedFlavor(((0, 1), (1, 2)), ideal_backend)
        f2 = PrunedFlavor(((0, 1), (2, 3)), ideal_backend_2)
        with pytest.raises(PlanError, match=r"removed from every flavor: \[\(0, 1\)\]"):
            check_split(g, (f1, f2))

    def test_single_flavor_plans_forbidden(self, ideal_backend):
        with pytest.raises(PlanError, match="at least 2 flavors"):
            check_split(benchmark_graph("cycle4"), (PrunedFlavor(((0, 1),), ideal_backend),))

    def test_flavor_must_leave_an_edge(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("cycle3")
        with pytest.raises(PlanError, match="at least one edge"):
            prune(g, g.edges)
        with pytest.raises(PlanError, match="at least one edge"):
            check_split(g, (PrunedFlavor(g.edges, ideal_backend), PrunedFlavor(((0, 1),), ideal_backend_2)))
        # the unpruned flavor is valid alone, but never inside a split
        assert prune(g, PrunedFlavor((), ideal_backend).removed_edges) == g
        with pytest.raises(PlanError, match="remove at least one edge"):
            check_split(g, (PrunedFlavor((), ideal_backend), PrunedFlavor(((0, 1),), ideal_backend_2)))

    def test_repeated_edge_in_a_flavor_rejected(self, ideal_backend):
        with pytest.raises(PlanError, match=r"\(0, 1\) twice"):
            PrunedFlavor(((1, 0), (0, 1)), ideal_backend)

    def test_make_split_plan_cycle4(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("cycle4")
        split = make_split_plan(g, 2, 1, [ideal_backend, ideal_backend_2], seed=0)
        check_split(g, split)
        assert len(split) == 2
        assert split[0].removed_edges != split[1].removed_edges

    def test_make_split_plan_deterministic(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("graph6")
        backends = [ideal_backend, ideal_backend_2]
        assert make_split_plan(g, 2, 3, backends, seed=5) == make_split_plan(g, 2, 3, backends, seed=5)

    def test_make_split_plan_single_edge_graph_impossible(self, ideal_backend, ideal_backend_2):
        g = Graph.make(2, [(0, 1)])
        with pytest.raises(PlanError):
            make_split_plan(g, 2, 1, [ideal_backend, ideal_backend_2], seed=0)

    def test_three_flavors_on_graph6(self, ideal_backend, ideal_backend_2, noisy_backend):
        g = benchmark_graph("graph6")
        backends = [ideal_backend, ideal_backend_2, noisy_backend]
        split = make_split_plan(g, 3, 1, backends, seed=3)
        check_split(g, split)
        assert len(split) == 3

    def test_backend_count_must_match_k(self, ideal_backend):
        g = benchmark_graph("cycle4")
        with pytest.raises(PlanError):
            make_split_plan(g, 2, 1, [ideal_backend], seed=0)

    def test_make_split_plan_needs_two_flavors(self, ideal_backend):
        with pytest.raises(PlanError, match="k >= 2"):
            make_split_plan(benchmark_graph("cycle4"), 1, 1, [ideal_backend], seed=0)

    def test_make_split_plan_gives_up_on_the_union_rule(self, ideal_backend, ideal_backend_2):
        # any two of cycle3's 2-edge sets share an edge, so no draw passes
        with pytest.raises(PlanError, match="union rule"):
            make_split_plan(benchmark_graph("cycle3"), 2, 2, [ideal_backend, ideal_backend_2], seed=0)


class TestApproximationRatio:
    def test_exact_unit(self):
        assert approximation_ratio(4.0, 4) == 1.0

    def test_half(self):
        assert approximation_ratio(2.0, 4) == 0.5

    def test_five_node_graph_ratio(self):
        assert approximation_ratio(3.0, 5) == pytest.approx(0.6)

    def test_edgeless_graph_undefined(self):
        with pytest.raises(MetricError):
            approximation_ratio(1.0, 0)

    def test_out_of_range_flagged(self):
        with pytest.raises(MetricError):
            approximation_ratio(4.5, 4)
        with pytest.raises(MetricError):
            approximation_ratio(-0.1, 4)

    def test_float_slop_clamped(self):
        assert approximation_ratio(4.0 + 1e-12, 4) == 1.0


def reference_evaluation(g_full: Graph, flavor: PrunedFlavor, x, shots: int) -> tuple[str, float]:
    """One evaluation built from scratch at the angles x: the wire text and
    the full-graph score of ``shots`` samples, through a fresh circuit,
    route, ``run_shots`` and a remap of the tally into logical order."""
    p = len(x) // 2
    circ = build_qaoa(prune(g_full, flavor.removed_edges), ParamVector(tuple(x[:p]), tuple(x[p:])))
    layout = tuple(range(circ.num_qubits))
    if flavor.backend.coupling is not None:
        routed = transpile(circ, flavor.backend.coupling)
        circ, layout = routed.circuit, routed.final_layout
    tally = run_shots(circ, flavor.backend, shots)
    return serialize(circ), expectation_full_cost(g_full, remap_counts(tally, layout))


class TestCompiledFlavor:
    @given(st.integers(2, 6), st.integers(0, 2), st.integers(1, 3), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_evaluation(self, n, spare, p, noisy, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        g = random_graph(rng, n)
        if len(g.edges) < 2:
            g = Graph.make(n, set(g.edges) | {(0, 1), (n - 2, n - 1)})
        removed = tuple(e for e in g.edges if rng.random() < 0.3)[: len(g.edges) - 1]
        coupling = random_coupling(rng, n + spare) if spare or rng.random() < 0.5 else None
        noise = NoiseModel(0.004, 0.03, 0.02) if noisy else NoiseModel()
        flavor = PrunedFlavor(removed, BackendProfile("b", noise, coupling, seed=int(rng.integers(100))))
        compiled = compile_flavor(g, flavor, p)
        for _ in range(3):
            x = rng.uniform(-4.0, 4.0, size=2 * p)
            shots = int(rng.choice([1, int(rng.integers(1, 5000))]))
            text, score = reference_evaluation(g, flavor, x, shots)
            assert compiled.wire_text(x) == text
            assert compiled.expectation(x, shots) == score

    def test_rejects_zero_shots(self, ideal_backend):
        # the one shots rule of both samplers, not a division by zero
        (cf,) = compiled(benchmark_graph("cycle4"), unpruned(ideal_backend))
        with pytest.raises(ValueError, match="shots >= 1"):
            cf.expectation(np.array([0.3, 0.2]), 0)

    @pytest.mark.parametrize("backend", ["ideal_backend", "noisy_backend"])
    def test_rejects_non_finite_angles(self, request, backend):
        # where a diverged optimizer would stop: the draw refuses the
        # non-finite distribution before any tally is scored
        (cf,) = compiled(benchmark_graph("cycle4"), unpruned(request.getfixturevalue(backend)))
        for x in ([math.nan, 0.2], [0.3, math.inf], [-math.inf, 0.2]):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
                cf.expectation(np.array(x), 64)

    def test_rejects_unrouted_coupling(self, monkeypatch):
        # a circuit that slipped past routing is refused before any evaluation
        from splitcut import obfuscation
        from splitcut.circuit import TranspiledCircuit
        from splitcut.errors import RoutingError

        def no_routing(c, coupling):
            return TranspiledCircuit(c, tuple(range(c.num_qubits)), 0)

        monkeypatch.setattr(obfuscation, "transpile", no_routing)
        flavor = PrunedFlavor((), BackendProfile("line", coupling=line(4)))
        with pytest.raises(RoutingError):
            compile_flavor(benchmark_graph("complete4_with_diagonals"), flavor, 1)

    def test_rejects_invalid_flavors(self, ideal_backend):
        # the one builder of what leaves the client validates the flavor
        g = benchmark_graph("cycle4")
        with pytest.raises(PlanError, match="at least one edge"):
            compile_flavor(g, PrunedFlavor(g.edges, ideal_backend), 1)
        with pytest.raises(PlanError, match="not in the graph"):
            compile_flavor(g, PrunedFlavor(((0, 2),), ideal_backend), 1)

    def test_carries_its_layer_count(self, ideal_backend):
        g = benchmark_graph("cycle4")
        cf = compile_flavor(g, PrunedFlavor(((0, 1),), ideal_backend), 3)
        assert (cf.g_full, cf.p, sorted(set(cf.slots))) == (g, 3, list(range(6)))

    def test_angle_vector_must_hold_2p_entries(self, noisy_backend):
        # a surplus angle used to be dropped and a missing one an IndexError
        cf = compile_flavor(benchmark_graph("graph6"), PrunedFlavor((), noisy_backend), 2)
        for x in ([0.1, 0.2, 0.3, 0.4, 99.0], [0.1, 0.2, 0.3]):
            for evaluate in (lambda: cf.expectation(x, 64), lambda: cf.exact_expectation(x),
                             lambda: cf.wire_text(x)):
                with pytest.raises(ValueError, match="expected 4 angles"):
                    evaluate()

    @pytest.mark.parametrize("routed", [False, True])
    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.002, 0.02, 0.035)])  # ideal1, hw1
    def test_sampler_matches_exact_distribution_of_its_wire_text(self, routed, noise):
        # "routed" runs on a line with one spare qubit
        g = benchmark_graph("graph6")
        b = BackendProfile("b", noise, line(g.n + 1) if routed else None, seed=21)
        cf = compile_flavor(g, PrunedFlavor((g.edges[-1],), b), 2)
        params = random_params(np.random.default_rng(5), 2)
        x = params.gammas + params.betas
        m, layout = cf.routed.circuit.num_qubits, cf.routed.final_layout
        assert (layout != tuple(range(g.n))) == routed
        probs = outcome_probabilities(parse(cf.wire_text(x)), noise)
        exact = cf.exact_expectation(x)
        assert abs(exact - probs @ cut_values_vector(relabel(g, layout, m))) <= 1e-12
        # each side of a mean of 16384 shots in [0, |E|] misses this with
        # probability <= 1e-6 (one-sided Hoeffding bound)
        assert abs(cf.expectation(x, 16384) - exact) <= len(g.edges) * math.sqrt(math.log(1e6) / 32768)


class TestExactOptimum:
    def test_exact_expectation_matches_closed_form_at_p1(self, benchmarks, ideal_backend):
        # an oracle that builds no state: the unpruned and every single-edge
        # flavor of each benchmark, plain and routed on a line, and of one
        # ring on each side of the width where a mixer layer stops being one
        # Hadamard-basis step
        rng = np.random.default_rng(16)
        for g in [*benchmarks.values(), benchmark_graph("cycle(7)"), benchmark_graph("cycle(8)")]:
            for b in (ideal_backend, BackendProfile("line", coupling=line(g.n))):
                for removed in [()] + [(e,) for e in g.edges]:
                    cf = compile_flavor(g, PrunedFlavor(removed, b), 1)
                    for gamma, beta in rng.uniform(-math.pi, math.pi, size=(5, 2)):
                        expected = qaoa_p1_cut(g, prune(g, removed), gamma, beta)
                        assert abs(cf.exact_expectation((gamma, beta)) - expected) <= 1e-12

    def test_optima_match_the_closed_form_maximum(self, benchmarks, ideal_backend):
        # criterion 3's A and every B_e, checked by a maximizer that builds no
        # state: the closed form on a grid offset by half a step from
        # exact_optimum's, refined by scipy's Nelder-Mead
        gammas, betas = math.pi / 16 * (np.indices((16, 8)) + 0.5)
        for g in benchmarks.values():
            for removed in [()] + [(e,) for e in g.edges]:
                h = prune(g, removed)
                grid = qaoa_p1_cut(g, h, gammas, betas)
                best = np.unravel_index(np.argmax(grid), grid.shape)
                fit = minimize(lambda x: -qaoa_p1_cut(g, h, *x), [gammas[best], betas[best]],
                               method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-14})
                value, _ = exact_optimum(compiled(g, (PrunedFlavor(removed, ideal_backend),)))
                assert abs(value + fit.fun) <= 1e-8, (g.edges, removed)

    def test_ring_optimum_is_three_quarters(self, ideal_backend):
        # p=1 on rings (Farhi, Goldstone & Gutmann 2014)
        value, _ = exact_optimum(compiled(benchmark_graph("cycle4"), unpruned(ideal_backend)))
        assert abs(value / 4 - 0.75) <= 1e-6

    def test_value_is_the_flavors_mean_at_its_point(self, ideal_backend, noisy_backend):
        g = benchmark_graph("graph5")
        flavors = compiled(g, (PrunedFlavor((g.edges[0],), ideal_backend),
                               PrunedFlavor((g.edges[3],), noisy_backend)))
        value, x = exact_optimum(flavors)
        assert value == pytest.approx(np.mean([f.exact_expectation(x) for f in flavors]), abs=1e-12)

    def test_rejects_deeper_flavors_and_no_flavors(self, ideal_backend):
        with pytest.raises(ValueError):
            exact_optimum(compiled(benchmark_graph("cycle4"), unpruned(ideal_backend), p=2))
        with pytest.raises(ValueError):
            exact_optimum(())


class TestOptimize:
    def knobs(self, **kw):
        return {"iterations": 10, "shots": 256, "seed": 1, **kw}

    def test_empty_flavor_tuple_rejected(self):
        with pytest.raises(ValueError):
            optimize((), **self.knobs())

    def test_rejects_flavors_of_different_graphs_or_layer_counts(self, ideal_backend,
                                                                 ideal_backend_2):
        g = benchmark_graph("cycle4")
        first = compile_flavor(g, PrunedFlavor(((0, 1),), ideal_backend), 1)
        for other in (compile_flavor(g, PrunedFlavor(((1, 2),), ideal_backend_2), 2),
                      compile_flavor(Graph.make(4, [(0, 1), (1, 2), (2, 3)]),
                                     PrunedFlavor(((1, 2),), ideal_backend_2), 1)):
            with pytest.raises(ValueError, match="one graph at one layer count"):
                optimize((first, other), **self.knobs())

    def test_trace_shape_and_determinism(self, ideal_backend):
        g = benchmark_graph("cycle4")
        t1 = optimize(compiled(g, unpruned(ideal_backend)), **self.knobs())
        t2 = optimize(compiled(g, unpruned(ideal_backend)), **self.knobs())
        assert t1 == t2
        assert len(t1.entries) == 10
        assert t1.evaluations == 21  # 2 per iteration + final audit
        assert sum(e.evaluations for e in t1.entries) + 1 == t1.evaluations
        assert t1.cmax == 4
        assert all(0.0 <= e.ar <= 1.0 for e in t1.entries)
        assert 0.0 <= t1.final_ar <= 1.0

    def test_round_robin_alternation(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("cycle4")
        split = make_split_plan(g, 2, 1, [ideal_backend, ideal_backend_2], seed=0)
        trace = optimize(compiled(g, split), **self.knobs())
        backends = [e.backend for e in trace.entries]
        assert backends[::2] == ["ideal1"] * 5
        assert backends[1::2] == ["ideal2"] * 5
        flavors = [e.flavor for e in trace.entries]
        assert flavors == [0, 1] * 5

    def test_pruned_only_single_flavor(self, ideal_backend):
        g = benchmark_graph("cycle4")
        flavor = PrunedFlavor(((0, 1),), ideal_backend)
        trace = optimize(compiled(g, (flavor,)), **self.knobs())
        assert {e.backend for e in trace.entries} == {"ideal1"}
        assert {e.flavor for e in trace.entries} == {0}

    def test_iteration_budget_invariant(self, ideal_backend, ideal_backend_2):
        g = benchmark_graph("cycle4")
        split = make_split_plan(g, 2, 1, [ideal_backend, ideal_backend_2], seed=0)
        with pytest.raises(ValueError, match="iterations must be >= 4"):  # each flavor runs twice
            optimize(compiled(g, split), **self.knobs(iterations=3))

    @pytest.mark.parametrize("knob,value", [("shots", 0), ("optimizer", "adam"), ("iterations", 0)])
    def test_rejects_knobs_no_run_can_use(self, ideal_backend, knob, value):
        with pytest.raises(ValueError, match=knob):
            optimize(compiled(benchmark_graph("cycle4"), unpruned(ideal_backend)), **self.knobs(**{knob: value}))

    def test_knobs_match_the_experiment_spec(self):
        # the harness passes a spec's optimizer, iterations and shots by name,
        # so both sides must agree on the names and on the defaults
        from splitcut.harness import ExperimentSpec

        params = inspect.signature(optimize).parameters
        defaults = {f.name: f.default for f in fields(ExperimentSpec)}
        for name in ("optimizer", "iterations", "shots"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default == defaults[name]

    def test_qubit_header_hides_pruning(self, ideal_backend):
        g = benchmark_graph("cycle4")
        params = ParamVector((0.3,), (0.2,))
        full_header = serialize(build_qaoa(g, params)).splitlines()[0]
        pruned_header = serialize(build_qaoa(prune(g, [(0, 1)]), params)).splitlines()[0]
        assert full_header == pruned_header == "qubits 4"

    def test_initialization_pairs_across_arms(self):
        # init depends only on (seed, p): arms of one seed start equal
        from splitcut.obfuscation import _init_params

        assert np.array_equal(_init_params(7, 1), _init_params(7, 1))
        assert not np.array_equal(_init_params(7, 1), _init_params(8, 1))
        assert not np.array_equal(_init_params(7, 1), _init_params(7, 2))

    def test_nelder_mead_runs(self, ideal_backend):
        g = benchmark_graph("cycle4")
        trace = optimize(compiled(g, unpruned(ideal_backend)),
                         **self.knobs(optimizer="nelder_mead", iterations=15))
        assert len(trace.entries) == 15
        assert trace.evaluations > 15
        assert sum(e.evaluations for e in trace.entries) + 1 == trace.evaluations

    def test_init_params_ranges(self):
        from splitcut.obfuscation import _init_params

        for seed in range(30):
            x = _init_params(seed, 3)
            assert x.shape == (6,)
            assert all(0 <= gm < math.pi for gm in x[:3])
            assert all(0 <= bt < math.pi / 2 for bt in x[3:])

    def test_trace_jsonl_round_trip(self, ideal_backend):
        g = benchmark_graph("cycle3")
        trace = optimize(compiled(g, unpruned(ideal_backend)), **self.knobs(iterations=3))
        lines = trace.to_jsonl().strip().split("\n")
        assert len(lines) == 4
        entry = json.loads(lines[0])
        assert set(entry) == {"iteration", "backend", "flavor", "evaluations", "gammas", "betas",
                              "expectation", "ar"}
        summary = json.loads(lines[-1])["summary"]
        assert summary["rng_algorithm"] == "numpy-pcg64"
        assert summary["evaluations"] == 7
        # the field-by-field text is the text of the deep-copying asdict
        summary = asdict(trace)
        expected = [json.dumps(e, sort_keys=True) for e in summary.pop("entries")]
        expected.append(json.dumps({"summary": summary}, sort_keys=True))
        assert trace.to_jsonl() == "\n".join(expected) + "\n"

    # signed zeros, subnormals, the extremes and the non-finite values json
    # spells its own way; ints past 2^53; names json must escape
    _edge_floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                         1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7]),
    )
    _big_ints = st.one_of(st.integers(0, 60), st.integers(2**53 - 2, 2**64), st.integers(-2**70, 2**70))
    _names = st.one_of(st.text(), st.sampled_from(['a"b', "a\\b", "\x00\x1f\x7f", "é ü", " ",
                                                   "\ud800", "😀", ""]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_trace_writer_spells_what_json_dumps_spells(self, data):
        from splitcut.obfuscation import RunTrace, TraceEntry

        p = data.draw(st.integers(1, 3))
        angles = st.lists(self._edge_floats, min_size=p, max_size=p).map(tuple)
        entries = tuple(TraceEntry(
            iteration=data.draw(self._big_ints), backend=data.draw(self._names),
            flavor=data.draw(self._big_ints), evaluations=data.draw(self._big_ints),
            gammas=data.draw(angles), betas=data.draw(angles),
            expectation=data.draw(self._edge_floats), ar=data.draw(self._edge_floats),
        ) for _ in range(data.draw(st.integers(0, 4))))
        trace = RunTrace(entries=entries, best_gammas=data.draw(angles), best_betas=data.draw(angles),
                         best_observed_expectation=data.draw(self._edge_floats),
                         best_observed_ar=data.draw(self._edge_floats),
                         final_expectation=data.draw(self._edge_floats),
                         final_ar=data.draw(self._edge_floats), cmax=data.draw(self._big_ints),
                         evaluations=data.draw(self._big_ints), shots=data.draw(self._big_ints))
        # the reference: the encoder's text of each record, keys sorted
        summary = {f.name: getattr(trace, f.name) for f in fields(trace) if f.name != "entries"}
        expected = [json.dumps({f.name: getattr(e, f.name) for f in fields(e)}, sort_keys=True)
                    for e in entries]
        expected.append(json.dumps({"summary": summary}, sort_keys=True))
        assert trace.to_jsonl() == "\n".join(expected) + "\n"

    def test_edgeless_graph_has_no_ratio(self, ideal_backend):
        # cmax is 0, so the ratio of iteration 0 is undefined
        with pytest.raises(MetricError, match="cmax"):
            optimize(compiled(Graph(3, ()), unpruned(ideal_backend)), **self.knobs())

    @pytest.mark.parametrize("routed", [False, True])
    def test_cmax_is_the_max_cut(self, benchmarks, routed):
        # cmax is read off the cut vector that scores the shots; "routed"
        # runs on a line with one spare qubit, which cuts nothing
        for g in benchmarks.values():
            b = BackendProfile("b", coupling=line(g.n + 1) if routed else None, seed=3)
            flavors = compiled(g, unpruned(b))
            assert flavors[0].routed.circuit.num_qubits == g.n + routed
            trace = optimize(flavors, **self.knobs(iterations=1, shots=16))
            assert trace.cmax == max_cut_bruteforce(g)[0]

    @pytest.mark.parametrize("name,coupling", [("cycle(21)", None), ("cycle3", line(21))],
                             ids=["unrouted", "routed"])
    def test_too_wide_raises_before_the_cut_vector(self, monkeypatch, name, coupling):
        # compile_kernel owns the width limit: no 2^n cut vector is built first
        calls = []
        monkeypatch.setattr("splitcut.obfuscation.cut_values_vector", lambda g: calls.append(g.n))
        b = BackendProfile("b", coupling=coupling, seed=3)
        with pytest.raises(CapacityError):
            optimize(compiled(benchmark_graph(name), unpruned(b)), **self.knobs())
        assert calls == []

    @pytest.mark.parametrize("graph,backend,knobs,digest", [
        pytest.param("graph6", "ideal_backend", {},
                     "35d846ca158c714989c4662de5c5eb31cccaaf207b49bc5cb2a5047085221d17",
                     id="graph6-spsa-ideal1"),
        pytest.param("graph6", "noisy_backend", {},
                     "15b3a15b8ca4b1572dc9495bad2b395f1c20a0c8c6cf388e3ed4f500826b2926",
                     id="graph6-spsa-hw1"),
        # 1000 shots is not a power of two, so the order in which a step's
        # values are added shows in its mean
        pytest.param("graph5", "ideal_backend", {"optimizer": "nelder_mead", "shots": 1000},
                     "8814008a5009eed71b1f4c22d60501411c7d2f2f2ba00f238a6493a754a67722",
                     id="graph5-nelder_mead-ideal1-1000shots"),
        # every evaluation SWAP-routed onto a line and remapped back
        pytest.param("graph6", "line6_backend", {"optimizer": "nelder_mead"},
                     "55f236aa8a5bda80b5b620acb3c28a839c8ee9e1752ad7da09c0e5354f9bfafd",
                     id="graph6-nelder_mead-line6"),
    ])
    def test_trace_bytes_are_pinned(self, request, graph, backend, knobs, digest):
        # the RNG contract: every draw, angle and mean of these runs as first
        # recorded, so a faster evaluation or step may not move one bit
        flavor = PrunedFlavor((), request.getfixturevalue(backend))
        trace = optimize((compile_flavor(benchmark_graph(graph), flavor, 2),), **knobs)
        assert hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest() == digest

    def test_step_mean_adds_in_numpys_order(self):
        from splitcut.obfuscation import _mean

        rng = np.random.default_rng(5)
        for n in range(1, 20):
            values = (rng.integers(0, 7000, size=n) / 1000).tolist()
            assert _mean(values) == float(np.mean(values))

    def test_transpiles_for_coupled_backend(self):
        backend = BackendProfile("line", coupling=line(4), seed=4)
        g = benchmark_graph("complete4_with_diagonals")
        trace = optimize(compiled(g, unpruned(backend)), **self.knobs(iterations=4))
        assert len(trace.entries) == 4

    def test_routed_run_reaches_unrouted_quality(self):
        # a wrong physical->logical remap would scramble the cost signal and
        # pin the AR near the uniform floor (0.75 for this graph)
        backend = BackendProfile("line", coupling=line(4), seed=4)
        g = benchmark_graph("complete4_with_diagonals")
        trace = optimize(compiled(g, unpruned(backend)), **self.knobs(iterations=30, shots=2048, seed=0))
        assert trace.final_ar >= 0.85

    def test_three_flavor_round_robin(self, ideal_backend, ideal_backend_2, noisy_backend):
        g = benchmark_graph("graph6")
        split = make_split_plan(
            g, 3, 1, [ideal_backend, ideal_backend_2, noisy_backend], seed=2
        )
        trace = optimize(compiled(g, split), **self.knobs(iterations=6))
        assert [e.flavor for e in trace.entries] == [0, 1, 2, 0, 1, 2]
