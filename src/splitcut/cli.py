"""Command-line entry points.

Subcommands: graph gen|show, run, adversary extract|effort|merge,
overhead. Experiment subcommands read one JSON spec file; the exit code is
1 iff an invariant assertion failed during the run or a row completed no
seed. Bad input (a missing file, malformed JSON, a missing key, a rejected
value, a first seed that cannot be planned, routed or simulated) prints one
``splitcut: <message>`` line on stderr and exits with code 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import suppress
from pathlib import Path

from .adversary import cross_provider_merge, effort, extract_graph, report_graph
from .errors import CapacityError
from .graph import benchmark_graph, graph_to_text, max_cut_bruteforce, save_graph
from .harness import ExperimentSpec, overhead, resolve_graph, run_experiment


def _cmd_graph(args) -> int:
    if args.action == "gen":
        g = benchmark_graph(args.id)
        if args.out:
            save_graph(g, args.out)
        else:
            sys.stdout.write(graph_to_text(g))
        return 0
    _, g = resolve_graph(args.file)
    cmax, witness = max_cut_bruteforce(g)
    print(f"nodes: {g.n}")
    print(f"edges ({len(g.edges)}): {' '.join(f'{u}-{v}' for u, v in g.edges)}")
    print(f"max cut: {cmax} (witness {witness})")
    return 0


def _cmd_run(args) -> int:
    spec = ExperimentSpec.from_json_file(args.config)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seeds=(args.seed,))
    if args.p is not None:
        try:
            p_layers = tuple(int(x) for x in args.p.split(","))
        except ValueError:
            raise ValueError(f"--p takes comma-separated layer counts, got {args.p!r}") from None
        spec = dataclasses.replace(spec, p_layers=p_layers)
    result = run_experiment(spec, out_dir=args.out)
    _print_rows(result.rows)
    for failure in result.failures:
        print(f"FAILED cell {failure['arm']} p={failure['p']} seed={failure['seed']}: "
              f"{failure['error']}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_overhead(args) -> int:
    return _emit(overhead(ExperimentSpec.from_json_file(args.config)), args.out)


def _emit(payload, out) -> int:
    """Write payload as sorted, indented JSON to the file out, or print it."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _print_rows(rows) -> None:
    for r in rows:
        print(f"{r['graph']:24s} {r['arm']:12s} p={r['p']} "
              f"AR={r['mean_ar']:.4f} +/- {r['std_ar']:.4f} ({r['n_seeds']} seeds)")


def _cmd_adversary(args) -> int:
    if args.action == "extract":
        report = extract_graph(Path(args.circuit).read_text(encoding="utf-8"))
        g = report.recovered_graph
        payload = report.to_dict()
        candidates = g.n * (g.n - 1) // 2 - len(g.edges)
        with suppress(CapacityError):  # too many digits to print; the recovered graph still stands
            payload["effort"] = dataclasses.asdict(effort(g.n, len(g.edges)))
        trials = payload.get("effort", {}).get("worst_case_trials", f"2^{candidates}")
        payload["summary"] = (f"recovered {len(g.edges)} edges on {g.n} nodes through "
                              f"{report.swap_count} swaps; {candidates} candidate edges leave "
                              f"{trials} worst-case completions")
    elif args.action == "effort":
        payload = dataclasses.asdict(effort(args.nodes, args.observed))
    else:
        graphs = [report_graph(json.loads(Path(path).read_text(encoding="utf-8")))
                  for path in args.reports]
        merged = cross_provider_merge(graphs)
        payload = {"nodes": merged.n, "edges": [list(e) for e in merged.edges]}
    return _emit(payload, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitcut")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="generate or inspect problem graphs")
    p_graph.set_defaults(fn=_cmd_graph)
    graph_sub = p_graph.add_subparsers(dest="action", required=True)
    p_gen = graph_sub.add_parser("gen", help="write a named benchmark graph")
    p_gen.add_argument("--id", required=True, help="cycle3|cycle4|...|cycle(n)|complete(n)")
    p_gen.add_argument("--out")
    p_show = graph_sub.add_parser("show", help="print nodes, edges and exact max cut")
    p_show.add_argument("file", help="graph file or benchmark id")

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--config", required=True, help="experiment spec JSON")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="run a single seed instead of the spec's list")
    p_run.add_argument("--p", help="comma-separated layer counts overriding the spec")
    p_run.set_defaults(fn=_cmd_run)

    p_over = sub.add_parser("overhead", help="static gate/evaluation cost report")
    p_over.add_argument("--config", required=True)
    p_over.add_argument("--out")
    p_over.set_defaults(fn=_cmd_overhead)

    p_adv = sub.add_parser("adversary", help="reverse-engineering tools")
    p_adv.set_defaults(fn=_cmd_adversary)
    adv_sub = p_adv.add_subparsers(dest="action", required=True)
    p_ext = adv_sub.add_parser("extract", help="recover the graph from a circuit file")
    p_ext.add_argument("--circuit", required=True)
    p_ext.add_argument("--out")
    p_eff = adv_sub.add_parser("effort", help="reconstruction effort bounds")
    p_eff.add_argument("--nodes", type=int, required=True)
    p_eff.add_argument("--observed", type=int, required=True)
    p_eff.add_argument("--out")
    p_mrg = adv_sub.add_parser("merge", help="union of extraction reports (collusion)")
    p_mrg.add_argument("reports", nargs="+")
    p_mrg.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"splitcut: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
