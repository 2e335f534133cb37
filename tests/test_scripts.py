import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_imports_and_has_main():
    # imported, not run: a script that imports a deleted public name fails here
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    saved = list(sys.path)
    try:
        for path in paths:
            assert callable(getattr(_load(path), "main", None)), f"{path.name} has no main()"
    finally:
        sys.path[:] = saved


def test_adversary_demo_recovers_the_graph_by_collusion(capsys):
    # run, not only imported, as are the two scripts below that take under a
    # second; bench_snapshot.py takes a quarter of an hour and is only imported
    _load(SCRIPTS / "adversary_demo.py").main()
    assert "full graph recovered: True" in capsys.readouterr().out


def test_landscape_study_reproduces_readme_criterion_3_table(capsys):
    _load(SCRIPTS / "landscape_study.py").main()
    out = capsys.readouterr().out
    printed = {name: (a, b, gap) for name, a, b, gap in re.findall(
        r"^== (\S+):.*A\(original\)=(\S+)$(?s:.*?)^   gaps:.*B\(mean over edges\)=(\S+)  A-B=(\S+)$",
        out, flags=re.M)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| (\w+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", readme, flags=re.M)
    assert len(table) == 5 and set(printed) == {name for name, *_ in table}
    for name, *cells in table:  # the script's A, B and A - B at the digits the table prints
        assert [f"{float(v):.{len(c.split('.')[1])}f}" for v, c in zip(printed[name], cells)] == cells, name


def test_run_trends_quick_completes_every_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_trends.py", "--quick", "--out", str(tmp_path)])
    assert _load(SCRIPTS / "run_trends.py").main() == 0
    assert "(0 failed cells)" in capsys.readouterr().out


def test_every_splitcut_name_perfbench_and_the_scripts_import_exists():
    # read, not imported: an import inside a function runs only when the
    # bench or script does, so a deleted name would pass the test above
    paths = sorted(ROOT.glob("perfbench/*.py")) + sorted(SCRIPTS.glob("*.py"))
    imported = [(path.name, node.module, alias.name)
                for path in paths
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("splitcut.")
                for alias in node.names]
    assert {module for _, module, _ in imported} >= {"splitcut.circuit", "splitcut.harness"}
    missing = [(file, f"{module}.{name}") for file, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
