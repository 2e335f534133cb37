"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavy experiment grids (criteria 3, 4, 6) share
module-scoped fixtures.
"""
import math
import time

import numpy as np
import pytest

from splitcut.adversary import cross_provider_merge, effort, extract_graph
from splitcut.circuit import build_qaoa, serialize, transpile
from splitcut.graph import FIXED_BENCHMARKS, benchmark_graph, cut_value, max_cut_bruteforce
from splitcut.harness import ExperimentSpec, run_experiment
from splitcut.obfuscation import (
    FINAL_EVAL_SHOTS, PrunedFlavor, compile_flavor, exact_optimum,
    make_split_plan, optimize, prune,
)

from conftest import line, random_params
from test_graph import enumerate_maxcut_reference, random_graph

SEEDS = tuple(range(10))

# Lines collected here are echoed in the terminal summary (see conftest),
# so every criterion's verdict is visible without -s.
CRITERION_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str, started: float) -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status} ({time.time() - started:.1f}s): {detail}"
    CRITERION_LINES.append(line)
    print("\n" + line)
    return ok


def arm_spec(graph: str, arms, backends=("ideal1", "ideal2"), p_layers=(1,), **kw) -> ExperimentSpec:
    base = dict(
        graph=graph, arms=tuple(arms), k=2, edges_per_flavor=1,
        p_layers=tuple(p_layers), seeds=SEEDS, backends=tuple(backends),
        shots=4096, iterations=50,
    )
    base.update(kw)
    return ExperimentSpec.from_dict(base)


@pytest.fixture(scope="module")
def ideal_arms():
    """original/pruned_only/split on every benchmark, ideal sim, p=1."""
    results = {}
    for name in FIXED_BENCHMARKS:
        res = run_experiment(arm_spec(name, ("original", "pruned_only", "split")))
        assert res.ok, res.failures
        results[name] = {row["arm"]: row["mean_ar"] for row in res.rows}
    return results


@pytest.fixture(scope="module")
def noisy_originals():
    results = {}
    for name in FIXED_BENCHMARKS:
        res = run_experiment(arm_spec(name, ("original",), backends=("hw1", "hw2")))
        assert res.ok, res.failures
        results[name] = res.rows[0]["mean_ar"]
    return results


def test_criterion_1_oracle_correctness():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 13)))
        assert max_cut_bruteforce(g)[0] == enumerate_maxcut_reference(g)[0]
        checked += 1
    for name in FIXED_BENCHMARKS:
        g = benchmark_graph(name)
        cmax, witness = max_cut_bruteforce(g)
        assert cmax == enumerate_maxcut_reference(g)[0]
        assert cut_value(g, witness) == cmax
        checked += 1
    five = max_cut_bruteforce(benchmark_graph("graph5"))[0]
    elapsed = time.time() - t0
    ok = five == 5 and elapsed < 10.0
    assert report(1, ok, f"{checked} graphs vs independent enumerator; "
                         f"5-node benchmark Cmax={five} (want 5)", t0)


def test_criterion_2_ideal_qaoa_sanity(ideal_backend):
    t0 = time.time()
    g = benchmark_graph("cycle4")
    cmax, _ = max_cut_bruteforce(g)
    flavor = compile_flavor(g, PrunedFlavor((), ideal_backend), 1)
    axis = np.linspace(0.0, np.pi, 50, endpoint=False)
    grid_ar = max(flavor.exact_expectation((gm, bt)) for gm in axis for bt in axis) / cmax
    finals = []
    for seed in SEEDS:
        finals.append(optimize((flavor,), iterations=50, shots=4096, seed=seed).final_ar)
    hits = sum(1 for ar in finals if ar >= 0.70)
    ok = abs(grid_ar - 0.75) <= 0.01 and hits >= 8
    assert report(2, ok, f"grid AR={grid_ar:.4f} (want 0.75 +/- 0.01); "
                         f"optimizer >=0.70 on {hits}/10 seeds (want >=8)", t0)


def test_criterion_3_degradation_ordering(ideal_arms, ideal_backend):
    """Pruning costs attainable quality, checked on exact p=1 optima.

    A(g) is the optimum of the full circuit; B_e(g) that of the circuit
    with edge e pruned, both scored on the full graph by ``exact_optimum``.
    The pruned-only arm draws its removed edge uniformly, so its reference
    is the mean B(g) over edges. The harness arms must stay below these
    ceilings up to the shot noise of their final re-measurement.
    """
    t0 = time.time()
    tol = 1e-4  # accuracy of exact_optimum's grid + Nelder-Mead maximization
    # One-sided Hoeffding bound on a mean of per-shot ARs in [0, 1] over
    # FINAL_EVAL_SHOTS shots per seed, exceeded with probability <= 1e-6.
    n_shots = FINAL_EVAL_SHOTS * len(SEEDS)
    shot_slack = math.sqrt(math.log(1e6) / (2 * n_shots))
    rows, checks = [], {"B<=A": True, "harness<=ceiling": True}
    exact_a, exact_gaps = {}, []
    for name, arms in ideal_arms.items():
        g = benchmark_graph(name)
        cmax, _ = max_cut_bruteforce(g)
        a, *b_each = [exact_optimum([compile_flavor(g, PrunedFlavor(r, ideal_backend), 1)])[0] / cmax
                      for r in [(), *((e,) for e in g.edges)]]
        b_mean = float(np.mean(b_each))
        exact_a[name] = a
        exact_gaps.append(a - b_mean)
        checks["B<=A"] &= b_mean <= a + tol
        checks["harness<=ceiling"] &= (
            arms["original"] <= a + tol + shot_slack
            and arms["pruned_only"] <= max(b_each) + tol + shot_slack
        )
        # a rounding-level gap of equal optima prints as +0.0000, never -0.0000
        shown_gap = a - b_mean if abs(a - b_mean) >= 5e-5 else 0.0
        rows.append(f"{name}: A={a:.4f} B={b_mean:.4f} exact gap={shown_gap:+.4f} "
                    f"harness gap={arms['original'] - arms['pruned_only']:+.4f}")
    mean_gap = float(np.mean(exact_gaps))
    checks["mean gap>tol"] = mean_gap > tol
    # p=1 optimum on rings is 3/4 (Farhi, Goldstone & Gutmann 2014)
    checks["A(cycle4)=3/4"] = abs(exact_a["cycle4"] - 0.75) <= 1e-6
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v] or ["none"]
    assert report(3, ok, f"exact p=1 optima, mean A-B={mean_gap:+.4f} (want > {tol:g}); "
                         f"failed checks: {', '.join(failed)}; " + "; ".join(rows), t0)


def test_criterion_4_recovery_claim(ideal_arms):
    t0 = time.time()
    ratios = {name: arms["split"] / arms["original"] for name, arms in ideal_arms.items()}
    avg_degradation = float(np.mean([1.0 - r for r in ratios.values()]))
    detail = "; ".join(f"{n}: split/orig={r:.4f}" for n, r in ratios.items())
    ok = all(r >= 0.90 for r in ratios.values()) and avg_degradation <= 0.07
    assert report(4, ok, f"avg degradation={avg_degradation*100:.2f}% (want <= 7%); {detail}", t0)


def test_criterion_5_layer_trends():
    # Two adjacent ring edges per flavor, pinned so the trend is not at the
    # mercy of which random pair a plan seed draws.
    adjacent_sets = [[[0, 1], [1, 2]], [[2, 3], [3, 4]]]
    t0 = time.time()
    ideal = run_experiment(arm_spec(
        "graph5", ("split",), edges_per_flavor=2, removed_sets=adjacent_sets,
        p_layers=(1, 2),
    ))
    assert ideal.ok, ideal.failures
    ideal_by_p = {row["p"]: row["mean_ar"] for row in ideal.rows}
    noisy = run_experiment(arm_spec(
        "graph5", ("split",), backends=("hw1", "hw2"), edges_per_flavor=2,
        removed_sets=adjacent_sets, p_layers=(2, 4),
    ))
    assert noisy.ok, noisy.failures
    noisy_by_p = {row["p"]: row["mean_ar"] for row in noisy.rows}
    gain = ideal_by_p[2] - ideal_by_p[1]
    excess = noisy_by_p[4] - noisy_by_p[2]
    ok = gain >= 0.03 and excess <= 0.02
    assert report(5, ok, f"ideal 2-edge split p1={ideal_by_p[1]:.4f} -> p2={ideal_by_p[2]:.4f} "
                         f"(gain {gain:+.4f}, want >= +0.03); noisy p2={noisy_by_p[2]:.4f}, "
                         f"p4={noisy_by_p[4]:.4f} (excess {excess:+.4f}, want <= +0.02)", t0)


def test_criterion_6_noise_gap(ideal_arms, noisy_originals):
    t0 = time.time()
    gaps = []
    for name in FIXED_BENCHMARKS:
        ideal_ar = ideal_arms[name]["original"]
        noisy_ar = noisy_originals[name]
        gaps.append((ideal_ar - noisy_ar) / ideal_ar)
    avg = float(np.mean(gaps))
    ok = 0.04 <= avg <= 0.18
    assert report(6, ok, f"avg relative ideal-vs-noisy gap={avg*100:.2f}% "
                         f"(want in [4%, 18%]); per-graph: "
                         + ", ".join(f"{n}={g*100:.1f}%" for n, g in zip(FIXED_BENCHMARKS, gaps)), t0)


def test_criterion_7_adversary_arithmetic():
    t0 = time.time()
    e1 = effort(4, 3)
    e2 = effort(10, 9)
    e3 = effort(10, 44)
    universe = effort(10, 0).candidate_edges
    ok = (
        e1.worst_case_trials == 8
        and e2.candidate_edges == 36 and e2.worst_case_trials == 2**36
        and e3.min_guesses == 1
        and universe == 45
    )
    assert report(7, ok, f"effort(4,3)={e1.worst_case_trials} (want 8); "
                         f"effort(10,9)={e2.candidate_edges} candidates, {e2.worst_case_trials} trials "
                         f"(want 36, 2^36); effort(10,44) min_guesses={e3.min_guesses} (want 1); "
                         f"n=10 universe={universe} (want 45)", t0)


def test_criterion_8_reverse_engineering_round_trip(ideal_backend, ideal_backend_2, noisy_backend):
    t0 = time.time()
    rng = np.random.default_rng(99)
    trips = 0
    for name in FIXED_BENCHMARKS:
        g = benchmark_graph(name)
        for p in (1, 2, 3):
            for _ in range(5):
                params = random_params(rng, p)
                plain = build_qaoa(g, params)
                rep = extract_graph(serialize(plain))
                assert rep.recovered_graph == g and rep.unmatched_gates == 0
                routed = transpile(plain, line(g.n))
                rep = extract_graph(serialize(routed.circuit))
                assert rep.recovered_graph == g and rep.unmatched_gates == 0
                trips += 2
        backends = [ideal_backend, ideal_backend_2, noisy_backend]
        for k in (2, 3) if len(g.edges) > 3 else (2,):
            split = make_split_plan(g, k, 1, backends[:k], seed=17)
            reports = []
            for flavor in split:
                rep = extract_graph(serialize(build_qaoa(prune(g, flavor.removed_edges),
                                                         random_params(rng, 2))))
                assert set(rep.recovered_graph.edges) < set(g.edges)
                reports.append(rep)
            assert cross_provider_merge([r.recovered_graph for r in reports]) == g
    assert report(8, True, f"{trips} extraction round trips exact with unmatched_gates=0; "
                           f"split flavors strict subsets; collusion merge recovers full graphs", t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    spec = arm_spec("cycle3", ("original", "pruned_only", "split"),
                    seeds=(0, 1), iterations=10, shots=512)
    run_experiment(spec, out_dir=tmp_path / "first")
    run_experiment(spec, out_dir=tmp_path / "second")
    compared = 0
    identical = True
    for rel in ["results.csv", "overhead.json"]:
        a = (tmp_path / "first" / rel).read_bytes()
        b = (tmp_path / "second" / rel).read_bytes()
        identical &= a == b
        compared += 1
    for sub in ("traces", "circuits"):
        for item in sorted((tmp_path / "first" / sub).iterdir()):
            twin = tmp_path / "second" / sub / item.name
            identical &= item.read_bytes() == twin.read_bytes()
            compared += 1
    assert report(9, identical, f"{compared} output files byte-identical across reruns", t0)
