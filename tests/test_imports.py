"""Every imported name is used: a stdlib `ast` scan, no linter needed."""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos", "bench")


def unused_imports(source):
    """Names a module imports but never reads, in import order.

    A name counts as read when it appears as an identifier anywhere in the
    module; `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nimport numpy as np\n"
              "from a import b, c as d\nnp.sum(os, b)\n")
    assert unused_imports(source) == ["math", "d"]


@pytest.mark.parametrize("path", sorted(
    p.relative_to(REPO).as_posix()
    for top in SCANNED for p in (REPO / top).rglob("*.py")))
def test_no_unused_imports(path):
    source = (REPO / path).read_text(encoding="utf-8")
    assert unused_imports(source) == []
