"""Exact p=1 landscape comparison: original vs pruned vs split objectives.

For each benchmark graph, maximize the exact (shot-free) full-cost
expectation with ``exact_optimum`` for three circuit families: the full
circuit, each single-edge-pruned circuit, and the split pair's averaged
objective, and print the attainable maxima. Where a maximum lands is not
reported: near-equal optima of one landscape can score very differently
on another, so such a column would depend on which one the search finds.

Each benchmark ends with the optima that acceptance criterion 3 checks: A
for the full circuit, B for the mean over single-edge prunings, and the
exact gap A - B.
"""
import numpy as np

from splitcut.graph import FIXED_BENCHMARKS, benchmark_graph, max_cut_bruteforce
from splitcut.obfuscation import PrunedFlavor, compile_flavor, exact_optimum
from splitcut.simulator import BackendProfile

IDEAL = BackendProfile("ideal")


def main():
    for name in FIXED_BENCHMARKS:
        g = benchmark_graph(name)
        cmax, _ = max_cut_bruteforce(g)
        full = compile_flavor(g, PrunedFlavor((), IDEAL), 1)
        pruned = {e: compile_flavor(g, PrunedFlavor((e,), IDEAL), 1) for e in g.edges}
        a = exact_optimum([full])[0] / cmax
        print(f"== {name}: |E|={len(g.edges)} cmax={cmax}  A(original)={a:.4f}")

        # every single-edge pruning choice
        b_all = []
        for edge in g.edges:
            b_all.append(exact_optimum([pruned[edge]])[0] / cmax)
            print(f"   prune {edge}: B(pruned)={b_all[-1]:.4f}")

        # a few split pairs (first edge vs each other edge)
        for e2 in g.edges[1:3]:
            s_val = exact_optimum([pruned[g.edges[0]], pruned[e2]])[0]
            print(f"   split {g.edges[0]}|{e2}: S(avg)={s_val/cmax:.4f}")
        b_mean = float(np.mean(b_all))
        print(f"   gaps: A-B(worst)={a - min(b_all):.4f}  "
              f"B(mean over edges)={b_mean:.4f}  A-B={a - b_mean:.4f}")


if __name__ == "__main__":
    main()
