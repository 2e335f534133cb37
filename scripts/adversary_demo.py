"""Walk the attack end to end on a 4-node ring: route the full circuit onto
a line coupling map, recover the graph through the SWAPs, then show what
each provider of a two-flavor split sees and why only collusion completes
the picture.
"""
from splitcut.adversary import cross_provider_merge, effort, extract_graph
from splitcut.graph import Graph, benchmark_graph
from splitcut.obfuscation import PrunedFlavor, compile_flavor
from splitcut.simulator import BackendProfile


def show(title, report):
    edges = " ".join(f"{u}-{v}" for u, v in report.recovered_graph.edges)
    print(f"{title}: edges [{edges}] via {report.swap_count} swaps, "
          f"{report.unmatched_gates} unmatched gates")


def main():
    g = benchmark_graph("cycle4")
    x = [0.42, 0.31]  # gamma, beta at p=1
    line = BackendProfile("line", coupling=Graph(4, ((0, 1), (1, 2), (2, 3))))
    ideal = BackendProfile("ideal")

    print("== full circuit on a line-coupled device ==")
    wire = compile_flavor(g, PrunedFlavor((), line), 1).wire_text(x)
    print("\n".join(wire.splitlines()[:6]) + "\n...")
    show("recovered", extract_graph(wire))

    print("\n== two pruned flavors ==")
    reports = []
    for edge in [(0, 3), (0, 1)]:
        flavor_wire = compile_flavor(g, PrunedFlavor((edge,), ideal), 1).wire_text(x)
        report = extract_graph(flavor_wire)
        reports.append(report)
        show(f"provider seeing circuit minus {edge}", report)
        est = effort(4, len(report.recovered_graph.edges))
        print(f"  completion search: {est.candidate_edges} candidate edges, "
              f"{est.worst_case_trials} worst-case trials")

    merged = cross_provider_merge([r.recovered_graph for r in reports])
    print(f"\ncollusion union: {' '.join(f'{u}-{v}' for u, v in merged.edges)} "
          f"(full graph recovered: {merged == g})")

    print("\n== search sizes at 10 nodes ==")
    for observed, label in [(9, "ring minus one edge"), (44, "complete minus one edge")]:
        est = effort(10, observed)
        print(f"{label}: {est.candidate_edges} candidates, "
              f"worst case {est.worst_case_trials} trials, min guesses {est.min_guesses}")


if __name__ == "__main__":
    main()
