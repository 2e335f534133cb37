"""README's examples stay in step with the code: every CLI line parses, the
JSON spec loads, and the wire-format example extracts its edge."""
import json
import re
import shlex
from pathlib import Path

from splitcut.adversary import extract_graph
from splitcut.cli import build_parser
from splitcut.harness import ExperimentSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def test_every_cli_line_parses():
    lines = [shlex.split(line, comments=True) for lang, body in BLOCKS if lang == "sh"
             for line in body.splitlines() if line.startswith("splitcut ")]
    assert len(lines) >= 8
    for argv in lines:
        build_parser().parse_args(argv[1:])  # argparse exits on a line it rejects


def test_json_spec_loads():
    [spec] = [body for lang, body in BLOCKS if lang == "json"]
    assert ExperimentSpec.from_dict(json.loads(spec)).graph == "cycle4"


def test_wire_format_example_extracts_its_edge():
    [text] = [body for lang, body in BLOCKS if lang == "" and body.startswith("qubits ")]
    assert extract_graph(text).recovered_graph.edges == ((0, 1),)
