import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_every_script_imports_and_has_main():
    # imported, not run: a script that imports a deleted public name fails here
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    saved = list(sys.path)
    try:
        for path in paths:
            spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert callable(getattr(module, "main", None)), f"{path.name} has no main()"
    finally:
        sys.path[:] = saved
