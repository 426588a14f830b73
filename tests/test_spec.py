"""SPEC.md and README.md point at what exists.

SPEC.md's quoted sections stay as frozen, and its conformance table names real
tests. README.md, the user manual, names the code that holds each rule, and
every package name, test and file it cites must exist, so a rename cannot leave
either document pointing at nothing.
"""

import ast
import hashlib
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = (ROOT / "SPEC.md").read_text(encoding="utf-8")
README = (ROOT / "README.md").read_text(encoding="utf-8")

# SHA-256 of each quoted block, blank lines around it stripped, keyed by its lines in the
# v0 description `fee53cf:PAPER.md`, which each block matched line for line when pinned
QUOTED = {("7", "43"): "d88f0a45f3499b726c6b9e362501ba954b56d99069447affbd02772e7de9e768",
          ("54", "87"): "9343d7e54ea0fa5ce39d2252d67ffeee7f186be3336d4dc2d7f8133fa533152a"}

TEST_ID = r"`(tests/\w+\.py)::(\w+)"  # a test id, up to any parameter brackets


def _functions(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


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
    named = [m for row in rows for m in re.findall(TEST_ID, row[2])]
    assert named, "the table names no test"
    for path, name in named:
        assert name in _functions(path), f"SPEC.md names {path}::{name}, which does not exist"


def test_every_name_the_readme_cites_exists():
    # every dotted name in backquotes (`module.function`, `Class.method`, `locatesim.module`)
    # is a package name, unless it is a file or a stdlib name
    modules = {path.stem: importlib.import_module(f"locatesim.{path.stem}")
               for path in (ROOT / "src" / "locatesim").glob("*.py") if path.stem != "__init__"}
    heads = {name: obj for module in modules.values() for name, obj in vars(module).items()
             if getattr(obj, "__module__", None) == module.__name__} | modules
    dotted = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README))
    files = {name for name in dotted if re.search(r"\.(csv|gp|png|py|md|json)$", name)}
    stdlib = {name for name in dotted if name.split(".")[0] in sys.stdlib_module_names}
    cited = sorted(dotted - files - stdlib)
    assert len(cited) >= 10, cited
    for name in cited:
        head, *rest = name.removeprefix("locatesim.").split(".")
        obj = heads.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        assert obj is not None, f"README.md cites `{name}`, which the package lacks"
    tests = re.findall(TEST_ID, README)
    assert tests, "README.md names no test"
    for path, name in tests:
        assert name in _functions(path), f"README.md names {path}::{name}, which does not exist"
    for path in re.findall(r"`((?:src|tests|scripts|perfbench)/[\w./]*)", README):
        assert (ROOT / path).exists(), f"README.md names {path}, which does not exist"
