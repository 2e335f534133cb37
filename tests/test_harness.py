import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from splitcut.adversary import extract_graph
from splitcut.cli import main
from splitcut.graph import Graph, benchmark_graph, graph_to_text, load_graph
from splitcut.harness import (
    CSV_HEADER,
    ExperimentSpec,
    overhead,
    resolve_backends,
    resolve_graph,
    run_experiment,
)
from splitcut.obfuscation import PrunedFlavor, compile_flavor, make_split_plan

SMALL_SPEC = dict(
    graph="cycle4",
    arms=["original", "pruned_only", "split"],
    k=2,
    edges_per_flavor=1,
    p_layers=[1],
    seeds=[0, 1],
    backends=["ideal1", "ideal2"],
    shots=256,
    iterations=8,
)


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    spec = ExperimentSpec.from_dict(SMALL_SPEC)
    return run_experiment(spec, out_dir=out), out


class TestSpec:
    def test_from_dict_round_trip(self):
        spec = ExperimentSpec.from_dict(SMALL_SPEC)
        assert spec.graph == "cycle4"
        assert spec.p_layers == (1,)
        assert spec.seeds == (0, 1)

    def test_requires_an_arm(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(dict(SMALL_SPEC, arms=[]))

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(dict(SMALL_SPEC, arms=["originale"]))

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(dict(SMALL_SPEC, seeds=[]))

    def test_explicit_removed_sets(self):
        spec = ExperimentSpec.from_dict(
            dict(SMALL_SPEC, removed_sets=[[[0, 1]], [[1, 2]]])
        )
        assert spec.removed_sets == (((0, 1),), ((1, 2),))


class TestRunExperiment:
    def test_row_per_arm_and_layer(self, small_result):
        result, _ = small_result
        assert len(result.rows) == 3
        assert [r["arm"] for r in result.rows] == ["original", "pruned_only", "split"]
        assert all(r["n_seeds"] == 2 for r in result.rows)
        assert all(0.0 <= r["mean_ar"] <= 1.0 for r in result.rows)
        assert result.ok

    def test_traces_cover_all_cells(self, small_result):
        result, _ = small_result
        assert set(result.traces) == {
            (arm, 1, seed) for arm in ("original", "pruned_only", "split") for seed in (0, 1)
        }

    def test_output_files_written(self, small_result):
        _, out = small_result
        assert (out / "results.csv").exists()
        assert (out / "overhead.json").exists()
        assert (out / "adversary.json").exists()
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            "original_p1_seed0.jsonl", "original_p1_seed1.jsonl",
            "pruned_only_p1_seed0.jsonl", "pruned_only_p1_seed1.jsonl",
            "split_p1_seed0.jsonl", "split_p1_seed1.jsonl",
        ]
        assert sorted(p.name for p in (out / "circuits").iterdir()) == [
            "original_p1.txt", "pruned_only_p1.txt",
            "split_p1_flavor0.txt", "split_p1_flavor1.txt",
        ]

    def test_written_circuits_are_the_wire_artifacts(self, small_result):
        from splitcut.adversary import extract_graph
        from splitcut.circuit import parse

        _, out = small_result
        g = benchmark_graph("cycle4")
        full = (out / "circuits" / "original_p1.txt").read_text()
        assert parse(full).num_qubits == 4
        assert extract_graph(full).recovered_graph == g
        for name in ("split_p1_flavor0.txt", "split_p1_flavor1.txt"):
            flavor_text = (out / "circuits" / name).read_text()
            recovered = extract_graph(flavor_text).recovered_graph
            assert set(recovered.edges) < set(g.edges)
            # width never betrays the pruning
            assert flavor_text.splitlines()[0] == "qubits 4"

    def test_csv_round_trips_through_csv_module(self, small_result):
        result, out = small_result
        with open(out / "results.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.rows)
        for read, orig in zip(rows, result.rows):
            assert read["arm"] == orig["arm"]
            assert float(read["mean_ar"]) == pytest.approx(orig["mean_ar"], abs=1e-6)

    def test_csv_header_schema(self, small_result):
        _, out = small_result
        first = (out / "results.csv").read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_adversary_report_strict_subsets(self, small_result):
        from splitcut.adversary import extract_graph

        _, out = small_result
        payload = json.loads((out / "adversary.json").read_text())
        g = benchmark_graph("cycle4")
        for rep in payload["split_p1"]:
            assert len(rep["edges"]) < len(g.edges)
        # the gate audits exactly the circuits that were written out
        written = [
            extract_graph((out / "circuits" / f"split_p1_flavor{i}.txt").read_text()).to_dict()
            for i in range(2)
        ]
        assert payload["split_p1"] == written

    def test_bit_exact_reproduction(self, tmp_path):
        spec = ExperimentSpec.from_dict(SMALL_SPEC)
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b")
        for name in ("results.csv", "overhead.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for sub in ("traces", "circuits"):
            for item in sorted((tmp_path / "a" / sub).iterdir()):
                twin = tmp_path / "b" / sub / item.name
                assert item.read_bytes() == twin.read_bytes()

    def test_written_bytes_are_pinned(self, tmp_path):
        # every file a run writes, as first recorded: a change to the code
        # that writes traces, circuits or reports may not move one byte
        spec = ExperimentSpec.from_dict(dict(
            graph="graph5", arms=["original", "pruned_only", "split"], p_layers=[1, 2],
            seeds=[0, 1], backends=["hw1", "ideal2"], iterations=8))
        run_experiment(spec, out_dir=tmp_path)
        names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
        listing = "".join(f"{hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()}  {n}\n" for n in names)
        assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == (
            "5629f44fbe0bb15fb3078039bfae237d884c5f63e0d9be486005e8031481f409")

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "ring.graph"
        path.write_text(graph_to_text(benchmark_graph("cycle4")))
        spec = ExperimentSpec.from_dict(
            dict(SMALL_SPEC, graph=str(path), arms=["original"], seeds=[0])
        )
        result = run_experiment(spec)
        assert result.rows[0]["graph"] == "ring"
        assert result.rows[0]["n_seeds"] == 1

    def test_invariant_failures_poison_ok_cell_failures_do_not(self, small_result):
        from splitcut.harness import ExperimentResult

        result, _ = small_result
        base = dict(spec=result.spec, rows=[], traces={}, overhead=result.overhead)
        cell = ExperimentResult(**base, failures=[
            {"arm": "split", "p": 1, "seed": 0, "kind": "cell", "error": "boom"}])
        assert cell.ok
        inv = ExperimentResult(**base, failures=[
            {"arm": "split", "p": 1, "seed": 0, "kind": "invariant", "error": "leak"}])
        assert not inv.ok

    def test_noisy_spec_marks_sim_column(self):
        spec = ExperimentSpec.from_dict(dict(
            SMALL_SPEC, arms=["original"], backends=["hw1", "hw2"], seeds=[0],
            iterations=4, shots=128,
        ))
        result = run_experiment(spec)
        assert result.rows[0]["sim"] == "noisy"

    def test_sim_column_follows_dispatched_backends(self):
        # k=2 dispatches to ideal1/ideal2 only; the unused noisy hw1 does not count
        spec = ExperimentSpec.from_dict(dict(
            SMALL_SPEC, arms=["original", "split"], backends=["ideal1", "ideal2", "hw1"],
            seeds=[0], iterations=4, shots=64,
        ))
        result = run_experiment(spec)
        assert [r["sim"] for r in result.rows] == ["ideal", "ideal"]

    def test_plans_each_seed_and_compiles_each_flavor_once(self, tmp_path, monkeypatch):
        # the optimizer, the written circuits, the release gate and the
        # overhead report all read one table of compiled flavors
        from splitcut import harness

        compiles, plans = [], []

        def counting_compile(g, flavor, p):
            compiles.append((flavor, p))
            return compile_flavor(g, flavor, p)

        def counting_plan(*args, **kwargs):
            plans.append(make_split_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(harness, "compile_flavor", counting_compile)
        monkeypatch.setattr(harness, "make_split_plan", counting_plan)
        spec = ExperimentSpec.from_dict(dict(SMALL_SPEC, p_layers=[1, 2], iterations=4, shots=64))
        result = run_experiment(spec, out_dir=tmp_path)
        assert result.ok and result.failures == []
        assert len(plans) == len(spec.seeds)
        original = PrunedFlavor((), resolve_backends(spec)[0])
        flavors = (original, *(f for split in plans for f in split))
        expected = {(f, p) for p in (1, 2) for f in flavors}
        assert sorted(compiles, key=repr) == sorted(expected, key=repr)

    def test_fixed_split_is_checked_once_and_gated_once_per_p(self, monkeypatch):
        # removed_sets name one split for every seed: one check per run and
        # one release gate (k extractions) per layer count, however many seeds
        from splitcut import harness
        from splitcut.obfuscation import check_split

        checks, extracted = [], []

        def counting_check(*args):
            checks.append(args)
            return check_split(*args)

        def counting_extract(text):
            extracted.append(text)
            return extract_graph(text)

        monkeypatch.setattr(harness, "check_split", counting_check)
        monkeypatch.setattr(harness, "extract_graph", counting_extract)
        spec = ExperimentSpec.from_dict(dict(
            SMALL_SPEC, removed_sets=[[[0, 1]], [[1, 2]]], p_layers=[1, 2], seeds=[0, 1, 2, 3],
            iterations=4, shots=64,
        ))
        result = run_experiment(spec)
        assert result.ok and result.failures == []
        assert len(checks) == 1
        assert len(extracted) == spec.k * len(spec.p_layers)

    def test_spec_label_reads_the_canonical_removed_sets(self):
        spec = ExperimentSpec.from_dict(dict(
            SMALL_SPEC, arms=["pruned_only", "split"], removed_sets=[[[1, 0]], [[3, 2], [2, 1]]],
            seeds=[0], iterations=4, shots=64,
        ))
        assert [r["spec"] for r in run_experiment(spec).rows] == ["0.1", "0.1-1.2+2.3"]

    def test_split_over_coupling_maps_of_different_sizes(self, tmp_path):
        # each extracted graph has one node per physical qubit of its backend;
        # the release gate merges a 7- and an 8-qubit provider on the wider
        profiles = tmp_path / "lines.json"
        profiles.write_text(json.dumps([
            {"name": f"line{n}", "coupling": [[i, i + 1] for i in range(n - 1)], "seed": 30 + n}
            for n in (7, 8)
        ]))
        spec = ExperimentSpec.from_dict(dict(
            graph="graph5", arms=["split"], p_layers=[1], seeds=[0, 1],
            backends=["line7", "line8"], profiles_file=str(profiles), shots=256, iterations=8,
        ))
        result = run_experiment(spec, out_dir=tmp_path / "out")
        assert result.failures == []
        assert result.rows[0]["n_seeds"] == 2
        reports = json.loads((tmp_path / "out" / "adversary.json").read_text())["split_p1"]
        assert [r["nodes"] for r in reports] == [7, 8]

    def test_release_gate_runs_before_any_dispatch(self, tmp_path, monkeypatch, capsys):
        # an extractor that sees the whole graph in every flavor, or one
        # that drops one edge from every report, must stop each split cell
        # before a single evaluation leaves the client
        from splitcut import harness
        from splitcut.adversary import ExtractionReport
        from splitcut.obfuscation import CompiledFlavor

        g = benchmark_graph("cycle4")
        dispatched = []
        real_expectation = CompiledFlavor.expectation

        def whole(text):
            return ExtractionReport(g, 0, tuple(range(g.n)), 0)

        def lossy(text):
            report = extract_graph(text)
            seen = report.recovered_graph
            kept = Graph(seen.n, tuple(e for e in seen.edges if e != g.edges[0]))
            return dataclasses.replace(report, recovered_graph=kept)

        def spy_expectation(self, x, shots):
            dispatched.append(self.flavor.backend.name)
            return real_expectation(self, x, shots)

        monkeypatch.setattr(CompiledFlavor, "expectation", spy_expectation)
        spec_dict = dict(SMALL_SPEC, arms=["split"], iterations=4, shots=64)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec_dict))
        for leak, error in ((whole, "not a strict subset"), (lossy, "does not cover the full graph")):
            extracted = []
            monkeypatch.setattr(harness, "extract_graph", lambda text: extracted.append(text) or leak(text))
            result = run_experiment(ExperimentSpec.from_dict(spec_dict))
            assert [(f["seed"], f["kind"]) for f in result.failures] == [(0, "invariant"), (1, "invariant")]
            assert error in result.failures[0]["error"]
            assert not result.ok and result.rows[0]["n_seeds"] == 0
            assert len(extracted) == 2 * len(spec_dict["seeds"])  # each flavor's text, once per seed
            out = tmp_path / leak.__name__
            assert main(["run", "--config", str(config), "--out", str(out)]) == 1
            assert [f["kind"] for f in json.loads((out / "failures.json").read_text())] == ["invariant"] * 2
            assert not (out / "circuits").exists() and not (out / "adversary.json").exists()
        assert dispatched == []

    def test_failed_first_seed_writes_no_first_seed_artifacts(self, tmp_path, monkeypatch):
        from splitcut import harness

        real_optimize = harness.optimize

        def optimize_failing_split_seed0(flavors, **knobs):
            if len(flavors) > 1 and knobs["seed"] == 0:
                raise RuntimeError("seed 0 lost")
            return real_optimize(flavors, **knobs)

        monkeypatch.setattr(harness, "optimize", optimize_failing_split_seed0)
        spec = ExperimentSpec.from_dict(dict(SMALL_SPEC, arms=["original", "split"], shots=64))
        result = run_experiment(spec, out_dir=tmp_path)
        assert result.ok and [(f["arm"], f["seed"], f["kind"]) for f in result.failures] == [
            ("split", 0, "cell")]
        assert [r["n_seeds"] for r in result.rows] == [2, 1]
        assert sorted(p.name for p in (tmp_path / "circuits").iterdir()) == ["original_p1.txt"]
        assert not (tmp_path / "adversary.json").exists()
        written = {e["arm"]: e for e in json.loads((tmp_path / "overhead.json").read_text())["arms"]}
        static = {e["arm"]: e for e in overhead(spec)["arms"]}
        assert written["split"] == static["split"]  # SPSA's static counts
        assert written["original"]["total_shot_evaluations"] == result.traces[("original", 1, 0)].evaluations


class TestOverhead:
    def test_two_layer_doubles_problem_two_qubit_gates(self):
        spec = ExperimentSpec.from_dict(dict(SMALL_SPEC, arms=["original"], p_layers=[1, 2]))
        report = overhead(spec)
        by_p = {entry["p"]: entry for entry in report["arms"]}
        assert by_p[2]["per_backend"][0]["gates_2q"] == 2 * by_p[1]["per_backend"][0]["gates_2q"]

    def test_split_sees_fewer_gates_per_backend(self):
        spec = ExperimentSpec.from_dict(SMALL_SPEC)
        report = overhead(spec)
        entries = {e["arm"]: e for e in report["arms"]}
        orig_2q = entries["original"]["per_backend"][0]["gates_2q"]
        for backend_stats in entries["split"]["per_backend"]:
            assert backend_stats["gates_2q"] < orig_2q

    def test_spsa_evaluation_count(self):
        spec = ExperimentSpec.from_dict(dict(SMALL_SPEC, arms=["original"], iterations=50))
        report = overhead(spec)
        assert report["arms"][0]["total_shot_evaluations"] == 101  # 2 per iteration + audit

    def test_relative_cost_against_pruned_baseline(self):
        spec = ExperimentSpec.from_dict(dict(SMALL_SPEC, iterations=50))
        report = overhead(spec)
        entries = {e["arm"]: e for e in report["arms"]}
        assert report["baseline"]["gates_2q"] == 6  # 3 edges after single-edge prune at p=1
        assert entries["pruned_only"]["relative_cost"] == pytest.approx(1.0)
        assert entries["original"]["relative_cost"] > 1.0

    def test_actual_evaluations_used_after_run(self, small_result):
        result, _ = small_result
        entries = {e["arm"]: e for e in result.overhead["arms"]}
        # 8 iterations, spsa: 16 evals for single-backend arms, 8+8 for split
        assert entries["original"]["total_shot_evaluations"] == 17
        split_evals = {b["backend"]: b["evaluations"] for b in entries["split"]["per_backend"]}
        assert split_evals == {"ideal1": 8, "ideal2": 8}

    @pytest.mark.parametrize("k", [2, 3])
    def test_counted_evaluations_come_from_the_first_seed(self, tmp_path, k):
        # Nelder-Mead makes a varying number of evaluations per iteration and
        # per seed; the report counts the first seed's, per flavor, listed in
        # flavor order
        spec = ExperimentSpec.from_dict(dict(
            SMALL_SPEC, arms=["original", "split"], seeds=[0, 1, 2], optimizer="nelder_mead", k=k,
            backends=["ideal1", "ideal2", "hw1"],
        ))
        result = run_experiment(spec, out_dir=tmp_path)
        written = json.loads((tmp_path / "overhead.json").read_text())
        for entry in written["arms"]:
            trace = result.traces[(entry["arm"], 1, 0)]
            counted = [0] * len(entry["per_backend"])
            for e in trace.entries:
                assert entry["per_backend"][e.flavor]["backend"] == e.backend
                counted[e.flavor] += e.evaluations
            assert [b["evaluations"] for b in entry["per_backend"]] == counted
            assert entry["total_shot_evaluations"] == trace.evaluations
        assert [len(e["per_backend"]) for e in written["arms"]] == [1, k]


class TestCli:
    def test_graph_gen_and_show(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["graph", "gen", "--id", "cycle4", "--out", str(out)]) == 0
        assert load_graph(out) == benchmark_graph("cycle4")
        assert main(["graph", "show", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max cut: 4" in printed
        # a file and a benchmark id resolve through one rule
        assert main(["graph", "show", "cycle4"]) == 0
        assert capsys.readouterr().out == printed
        # without --out the graph file goes to stdout
        assert main(["graph", "gen", "--id", "cycle4"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_a_directory_does_not_hide_a_benchmark_id(self, tmp_path, monkeypatch, capsys):
        # `run --out graph6` makes such a directory; it used to be opened as a graph file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph6").mkdir()
        assert resolve_graph("graph6") == ("graph6", benchmark_graph("graph6"))
        assert main(["graph", "show", "graph6"]) == 0
        assert "nodes: 6" in capsys.readouterr().out

    def test_adversary_effort_command(self, capsys):
        assert main(["adversary", "effort", "--nodes", "10", "--observed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst_case_trials"] == 2**36

    def test_adversary_extract_and_merge(self, tmp_path, capsys):
        from splitcut.circuit import ParamVector, build_qaoa, serialize
        from splitcut.obfuscation import prune

        g = benchmark_graph("cycle4")
        reports = []
        for i, edge in enumerate([(0, 1), (1, 2)]):
            circ_file = tmp_path / f"c{i}.txt"
            circ_file.write_text(serialize(build_qaoa(prune(g, [edge]), ParamVector((0.3,), (0.2,)))))
            report_file = tmp_path / f"r{i}.json"
            assert main(["adversary", "extract", "--circuit", str(circ_file),
                         "--out", str(report_file)]) == 0
            reports.append(str(report_file))
        payload = json.loads(Path(reports[0]).read_text())
        assert len(payload["edges"]) == 3
        assert payload["summary"] == ("recovered 3 edges on 4 nodes through 0 swaps; "
                                      "3 candidate edges leave 8 worst-case completions")
        assert main(["adversary", "merge", *reports]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert sorted(tuple(e) for e in merged["edges"]) == list(benchmark_graph("cycle4").edges)

    def test_adversary_extract_keeps_a_graph_too_wide_for_effort(self, tmp_path, capsys):
        # 2^19900 completions have more digits than Python converts to text
        circ_file, report_file = tmp_path / "wide.txt", tmp_path / "wide.json"
        circ_file.write_text("qubits 200\nh 0\n")
        assert main(["adversary", "extract", "--circuit", str(circ_file), "--out", str(report_file)]) == 0
        payload = json.loads(report_file.read_text())
        assert (payload["nodes"], payload["edges"], "effort" in payload) == (200, [], False)
        assert payload["summary"].endswith("19900 candidate edges leave 2^19900 worst-case completions")
        assert main(["adversary", "merge", str(report_file)]) == 0
        assert json.loads(capsys.readouterr().out) == {"nodes": 200, "edges": []}

    def test_run_command(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(dict(SMALL_SPEC, seeds=[0], iterations=4, shots=128)))
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_run_command_seed_override(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(dict(SMALL_SPEC, arms=["original"], iterations=4, shots=128)))
        assert main(["run", "--config", str(config), "--seed", "3"]) == 0
        assert "(1 seeds)" in capsys.readouterr().out

    def test_overhead_command(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(SMALL_SPEC))
        assert main(["overhead", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "baseline" in payload

    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        no_graph = tmp_path / "no_graph.json"
        no_graph.write_text(json.dumps({"arms": ["original"]}))
        bad_arm = tmp_path / "bad_arm.json"
        bad_arm.write_text(json.dumps(dict(SMALL_SPEC, arms=["originale"])))
        unknown_key = tmp_path / "unknown_key.json"
        unknown_key.write_text(json.dumps({"graph": "cycle4", "seed": [0]}))
        not_object = tmp_path / "not_object.json"
        not_object.write_text("[]")
        bad_profile = tmp_path / "bad_profile.json"
        bad_profile.write_text(json.dumps([{"name": "x", "readout": 0.1}]))
        profile_key = tmp_path / "profile_key.json"
        profile_key.write_text(json.dumps(dict(SMALL_SPEC, profiles_file=str(bad_profile),
                                               arms=["original"], backends=["x"])))
        names_only = tmp_path / "names_only.json"
        names_only.write_text(json.dumps(["ideal1"]))
        profile_list = tmp_path / "profile_list.json"
        profile_list.write_text(json.dumps(dict(SMALL_SPEC, profiles_file=str(names_only))))
        profile_object = tmp_path / "profile_object.json"
        profile_object.write_text(json.dumps(dict(SMALL_SPEC, profiles_file=str(unknown_key))))
        negative_seed = tmp_path / "negative_seed.json"
        negative_seed.write_text(json.dumps(dict(SMALL_SPEC, seeds=[0, -1])))
        # a negative backend seed used to load, then fail every cell in
        # numpy's SeedSequence and exit 1 with NaN rows
        negative_profile = tmp_path / "negative_profile.json"
        negative_profile.write_text(json.dumps([{"name": "a", "seed": -1}, {"name": "b", "seed": 2}]))
        negative_backend_seed = tmp_path / "negative_backend_seed.json"
        negative_backend_seed.write_text(json.dumps(dict(
            SMALL_SPEC, arms=["original", "split"], profiles_file=str(negative_profile),
            backends=["a", "b"])))
        # two backends for three removed sets used to run two flavors under a three-set label
        few_backends = tmp_path / "few_backends.json"
        few_backends.write_text(json.dumps({
            "graph": "cycle4", "arms": ["split"], "k": 3, "removed_sets": [[[0, 1]], [[1, 2]], [[2, 3]]],
            "backends": ["ideal1", "ideal2"], "seeds": [0], "shots": 64, "iterations": 6}))
        # a random split needs k backends as much as a fixed one
        one_backend = tmp_path / "one_backend.json"
        one_backend.write_text(json.dumps(dict(SMALL_SPEC, arms=["original", "pruned_only"],
                                               backends=["ideal1"])))
        repeated_edge = tmp_path / "repeated_edge.json"
        repeated_edge.write_text(json.dumps(dict(SMALL_SPEC, removed_sets=[[[1, 0], [0, 1]], [[2, 3]]])))
        # k = 1 used to exit 2 with "need k >= 2 flavors", naming no key
        one_flavor = tmp_path / "one_flavor.json"
        one_flavor.write_text(json.dumps({"graph": "cycle4", "arms": ["pruned_only"], "k": 1}))
        # these two messages used to name no key
        removed_sets_k = tmp_path / "removed_sets_k.json"
        removed_sets_k.write_text(json.dumps(dict(SMALL_SPEC, removed_sets=[[[0, 1]]])))
        unknown_backend = tmp_path / "unknown_backend.json"
        unknown_backend.write_text(json.dumps(dict(SMALL_SPEC, backends=["ideal1", "nope"])))
        short_split = tmp_path / "short_split.json"
        short_split.write_text(json.dumps(dict(SMALL_SPEC, arms=["split"], iterations=1)))
        small_spec = tmp_path / "small_spec.json"
        small_spec.write_text(json.dumps(SMALL_SPEC))
        # a missing graph file used to be reported as an unknown benchmark id
        missing_graph = str(tmp_path / "missing.graph")
        mistyped_graph = tmp_path / "mistyped_graph.json"
        mistyped_graph.write_text(json.dumps(dict(SMALL_SPEC, graph=missing_graph)))
        cases = [(["run", "--config", str(tmp_path / "missing.json")], ""),
                 (["run", "--config", str(bad_json)], ""),
                 (["overhead", "--config", str(no_graph)], "'graph'"),
                 (["run", "--config", str(bad_arm), "--p", "1,2"], "'arms'"),
                 (["run", "--config", str(unknown_key)], "'seed'"),
                 (["run", "--config", str(not_object)], ""),
                 (["run", "--config", str(profile_key)], "'readout'"),
                 (["overhead", "--config", str(profile_list)], ""),
                 (["overhead", "--config", str(profile_object)], ""),
                 (["adversary", "extract", "--circuit", str(bad_json)], ""),
                 (["run", "--config", str(negative_seed)], "'seeds'"),
                 (["run", "--config", str(small_spec), "--seed", "-3"], "'seeds'"),
                 (["run", "--config", str(negative_backend_seed)], "'seed'"),
                 # 2^19900 has more digits than Python converts to text
                 (["adversary", "effort", "--nodes", "200", "--observed", "0"], "n=200"),
                 (["adversary", "effort", "--nodes", "0", "--observed", "0"], "at least one node"),
                 (["graph", "gen", "--id", "complete(1)"], "n >= 2"),
                 (["graph", "gen", "--id", "missing.graph"], "unknown benchmark graph id: 'missing.graph'"),
                 (["graph", "show", "cycle(2)"], "cycle(n) requires n >= 3"),
                 (["graph", "show", missing_graph], f"no graph file or benchmark id named {missing_graph!r}"),
                 (["run", "--config", str(mistyped_graph)], "no graph file or benchmark id named"),
                 (["run", "--config", str(small_spec), "--p", "1,1"], "'p_layers'"),
                 (["run", "--config", str(small_spec), "--p", "0"], "'p_layers'"),
                 # an empty --p used to run the spec's own layer counts
                 (["run", "--config", str(small_spec), "--p", ""], "--p"),
                 (["run", "--config", str(small_spec), "--p", "1,,2"], "'1,,2'"),
                 (["run", "--config", str(short_split)], "'iterations'"),
                 (["run", "--config", str(few_backends)], "'backends'"),
                 (["run", "--config", str(one_backend)], "'backends'"),
                 (["overhead", "--config", str(one_backend)], "'backends'"),
                 (["run", "--config", str(repeated_edge)], "edge (0, 1) twice"),
                 (["run", "--config", str(one_flavor)], "'k'"),
                 (["run", "--config", str(removed_sets_k)], "'removed_sets'"),
                 (["overhead", "--config", str(unknown_backend)], "'backends'")]
        # a repeated seed, layer count or arm would be run and counted twice;
        # a repeated backend used to exit 2 naming no key
        for i, (key, value) in enumerate([("seeds", [0, 0]), ("p_layers", [1, 2, 1]),
                                          ("arms", ["split", "split"]),
                                          ("backends", ["ideal1", "ideal1"])]):
            spec = tmp_path / f"repeat_spec{i}.json"
            spec.write_text(json.dumps(dict(SMALL_SPEC, **{key: value})))
            cases.append((["run", "--config", str(spec)], repr(key)))
        # an empty backends list used to exit 1 with an IndexError traceback
        no_backends = tmp_path / "no_backends.json"
        no_backends.write_text(json.dumps({"graph": "cycle4", "arms": ["original"], "backends": [],
                                           "seeds": [0], "iterations": 4}))
        cases += [([cmd, "--config", str(no_backends)], "'backends'") for cmd in ("run", "overhead")]
        # values no run can use are rejected by the spec, naming the key, in both commands;
        # the last three messages used to name no key
        for i, fields in enumerate([{"optimizer": "adam"}, {"shots": 0}, {"iterations": 0, "arms": ["original"]},
                                    {"arms": []}, {"arms": ["orig"]}, {"seeds": []}]):
            spec = tmp_path / f"value_spec{i}.json"
            spec.write_text(json.dumps(dict(SMALL_SPEC, **fields)))
            cases += [([cmd, "--config", str(spec)], repr(next(iter(fields)))) for cmd in ("run", "overhead")]
        # a value of the wrong JSON type names its key
        for i, (key, value) in enumerate([("seeds", 5), ("graph", 5), ("arms", "split"),
                                          ("shots", 4096.5), ("shots", True), ("k", None)]):
            spec = tmp_path / f"typed_spec{i}.json"
            spec.write_text(json.dumps(dict(SMALL_SPEC, **{key: value})))
            cases.append((["overhead", "--config", str(spec)], repr(key)))
        for i, (key, value) in enumerate([("coupling", 3), ("p1", "0.1"), ("coupling", [])]):
            profiles = tmp_path / f"typed_profile{i}.json"
            profiles.write_text(json.dumps([{"name": "x", key: value}]))
            spec = tmp_path / f"typed_profile_spec{i}.json"
            spec.write_text(json.dumps(dict(SMALL_SPEC, profiles_file=str(profiles), arms=["original"],
                                            backends=["x"])))
            cases.append((["overhead", "--config", str(spec)], repr(key)))
        # an extraction report of the wrong shape names its key
        for i, (report, named) in enumerate([({"nodes": 4, "edges": 3}, "'edges'"),
                                             ({"nodes": "4", "edges": []}, "'nodes'"),
                                             ([], "")]):
            path = tmp_path / f"report{i}.json"
            path.write_text(json.dumps(report))
            cases.append((["adversary", "merge", str(path)], named))
        for argv, named in cases:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("splitcut: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert named in err

    def test_run_exits_1_when_a_row_completes_no_seed(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"graph": "cycle(11)", "arms": ["original"],
                                      "backends": ["hw1", "hw2"], "seeds": [0], "iterations": 2}))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "(0 seeds)" in captured.out
        assert captured.err.startswith("FAILED cell original p=1 seed=0: ")

    def test_unplannable_first_seed_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        from splitcut import harness

        cells = []

        def no_optimize(*args, **knobs):
            cells.append(args)
            raise RuntimeError("a cell ran")

        monkeypatch.setattr(harness, "optimize", no_optimize)
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": "big", "seed": 5},
                                        {"name": "small", "coupling": [[0, 1], [1, 2], [2, 3]], "seed": 6}]))
        specs = [({"graph": "cycle4", "arms": ["original", "split"], "edges_per_flavor": 4, "seeds": [0],
                   "iterations": 4}, "edges_per_flavor must be in [1, 3] for this graph"),
                 # the split's second backend cannot route graph6; this used to be found
                 # only after every original cell had run, and their results were lost
                 ({"graph": "graph6", "arms": ["original", "split"], "seeds": [0, 1, 2],
                   "backends": ["big", "small"], "profiles_file": str(profiles)},
                  "coupling map has 4 qubits, circuit needs 6")]
        for i, (spec, error) in enumerate(specs):
            config = tmp_path / f"spec{i}.json"
            config.write_text(json.dumps(spec))
            out = tmp_path / f"out{i}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"splitcut: {error}\n"
            assert cells == [] and captured.out == "" and not out.exists()

    def test_out_that_is_a_file_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # the output directory used to be created after every cell had run
        from splitcut import harness

        cells = []

        def no_optimize(*args, **knobs):
            cells.append(args)
            raise RuntimeError("a cell ran")

        monkeypatch.setattr(harness, "optimize", no_optimize)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(SMALL_SPEC))
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("splitcut: ") and captured.err.count("\n") == 1
        assert cells == [] and captured.out == ""

    @pytest.mark.parametrize("graph", ["cycle4", "one_edge"])
    def test_original_only_spec_plans_no_split(self, tmp_path, capsys, graph):
        # one backend, or a graph with no split at all, is enough for the original arm
        if graph == "one_edge":
            graph = str(tmp_path / "one_edge.graph")
            Path(graph).write_text(graph_to_text(Graph.make(3, [(0, 1)])))
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"graph": graph, "arms": ["original"], "backends": ["ideal1"],
                                      "seeds": [0], "iterations": 4, "shots": 64}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "(1 seeds)" in capsys.readouterr().out
        written = json.loads((out / "overhead.json").read_text())
        assert written["baseline"] is None
        assert [e["relative_cost"] for e in written["arms"]] == [None]
        assert written["arms"][0]["total_shot_evaluations"] == 9
        assert main(["overhead", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["baseline"] is None

    def test_run_command_overrides_p(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(dict(
            SMALL_SPEC, arms=["split"], seeds=[0], iterations=4, shots=128,
        )))
        assert main(["run", "--config", str(config), "--p", "1,2"]) == 0
        printed = capsys.readouterr().out
        assert "p=1" in printed and "p=2" in printed
