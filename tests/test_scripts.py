import ast
import importlib.util
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
    # run, not only imported: it takes milliseconds, the other scripts seconds to minutes
    _load(SCRIPTS / "adversary_demo.py").main()
    assert "full graph recovered: True" in capsys.readouterr().out


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
