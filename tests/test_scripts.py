import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
