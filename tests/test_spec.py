"""SPEC.md: its quoted sections stay as frozen, and its conformance table names real tests."""

import ast
import hashlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = (ROOT / "SPEC.md").read_text(encoding="utf-8")

# SHA-256 of each quoted block, blank lines around it stripped, keyed by its lines in the
# v0 description `fee53cf:PAPER.md`, which each block matched line for line when pinned
QUOTED = {("7", "43"): "d88f0a45f3499b726c6b9e362501ba954b56d99069447affbd02772e7de9e768",
          ("54", "87"): "9343d7e54ea0fa5ce39d2252d67ffeee7f186be3336d4dc2d7f8133fa533152a"}


def test_quoted_sections_are_as_frozen():
    blocks = re.findall(r"<!-- verbatim from fee53cf:PAPER\.md, lines (\d+)-(\d+)[^>]*?-->\n"
                        r"(.*?)(?=\n<!-- verbatim|\n## Conformance)", SPEC, re.S)
    assert {(a, b): hashlib.sha256(text.strip("\n").encode()).hexdigest()
            for a, b, text in blocks} == QUOTED


def test_every_test_the_conformance_table_names_exists():
    table = [line for line in SPEC[SPEC.index("\n## Conformance"):].splitlines()
             if line.startswith("|")][2:]  # the body, below the header and its rule
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")] for line in table]
    assert len(rows) >= 5 and all(len(row) == 3 for row in rows), rows
    named = [m for row in rows for m in re.findall(r"`(tests/\w+\.py)::(\w+)`", row[2])]
    assert named, "the table names no test"
    for path, name in named:
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, \
            f"SPEC.md names {path}::{name}, which does not exist"
