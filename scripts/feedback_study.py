"""Compare optimizer-feedback conventions on exact p=1 landscapes.

Variant D: the optimizer maximizes the *active flavor's* cut cost (what a
stock QAOA stack computes when handed the pruned graph); quality is then
reported as the full-cost AR. Checks whether that reproduces the expected
ordering: original >> pruned-only, split ~ original.
"""
import numpy as np

from splitcut.graph import FIXED_BENCHMARKS, benchmark_graph, max_cut_bruteforce
from splitcut.obfuscation import PrunedFlavor, compile_flavor, exact_optimum, prune
from splitcut.simulator import BackendProfile

IDEAL = BackendProfile("ideal")


def main():
    for name in FIXED_BENCHMARKS:
        g = benchmark_graph(name)
        cmax, _ = max_cut_bruteforce(g)
        full = compile_flavor(g, PrunedFlavor((), IDEAL), 1)
        # each single-edge-pruned circuit, scored on its own pruned graph and on the full one
        own = {e: compile_flavor(prune(g, [e]), PrunedFlavor((), IDEAL), 1) for e in g.edges}
        on_full = {e: compile_flavor(g, PrunedFlavor((e,), IDEAL), 1) for e in g.edges}
        a_ar = exact_optimum([full])[0] / cmax
        print(f"== {name}: cmax={cmax}  original AR={a_ar:.4f}")

        d_own_all, d_full_all = [], []
        for edge in g.edges:
            _, d_x = exact_optimum([own[edge]])
            d_own_all.append(on_full[edge].exact_expectation(d_x) / cmax)
            d_full_all.append(full.exact_expectation(d_x) / cmax)
            print(f"   prune {edge}: D_own={d_own_all[-1]:.4f} D_full={d_full_all[-1]:.4f}")
        print(f"   mean D_own={np.mean(d_own_all):.4f} mean D_full={np.mean(d_full_all):.4f} "
              f"gaps: {a_ar - np.mean(d_own_all):.4f} / {a_ar - np.mean(d_full_all):.4f}")

        pairs = [(g.edges[i], g.edges[j]) for i in range(len(g.edges)) for j in range(i + 1, len(g.edges))][:6]
        s_own_all, s_full_all = [], []
        for e1, e2 in pairs:
            _, s_x = exact_optimum([own[e1], own[e2]])
            s_own_all.append(np.mean([on_full[e].exact_expectation(s_x) for e in (e1, e2)]) / cmax)
            s_full_all.append(full.exact_expectation(s_x) / cmax)
        print(f"   split(mean over {len(pairs)} pairs): S_own={np.mean(s_own_all):.4f} "
              f"S_full={np.mean(s_full_all):.4f}  min S_full={min(s_full_all):.4f}")
        print(f"   C4 check (S_full/A): {np.mean(s_full_all)/a_ar:.4f}")


if __name__ == "__main__":
    main()
