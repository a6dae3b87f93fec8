"""Every imported name and every private module-level name in the
package is used, a private name stays in the module that defines it,
every tolerance comparison fails on NaN, no package module imports
warnings, and only the entry point imports gc or calls os._exit: stdlib
`ast` scans, no linter needed."""

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


def private_imports(source, package="chronos"):
    """Private names a module imports from a module of the package.

    Relative imports and absolute ones under the package count; a dunder
    name such as __version__ is exempt.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == package):
            module = (node.module or "").split(".")
            found += [part for part in module if private(part)]
            found += [a.name for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == package
                      and any(private(p) for p in a.name.split("."))]
    return found


def test_scan_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .linalg import _fix_phase, kron\n"
              "from chronos.axes import _grid as g\n"
              "from numpy import _core\n"
              "from . import _x, __version__\n"
              "from ._hidden import y\n"
              "import chronos._y, os._z\n")
    assert private_imports(source) == ["_fix_phase", "_grid", "_x",
                                       "_hidden", "chronos._y"]


@pytest.mark.parametrize("path", sorted(
    p.relative_to(REPO).as_posix()
    for p in (REPO / "src" / "chronos").glob("*.py")))
def test_private_names_stay_with_their_owner(path):
    # e.g. linalg._fix_phase and constraints._state_matrix are used only
    # where they are defined
    source = (REPO / path).read_text(encoding="utf-8")
    assert private_imports(source) == []


def unread_private_names(sources):
    """Module-level private names that sources define and none reads.

    A name is read when it is loaded as an identifier or as an attribute
    anywhere in any of the sources; dunder names are exempt.
    """
    trees = [ast.parse(source) for source in sources]
    read = set()
    defined = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, ast.Assign):
                defined += [t.id for t in node.targets
                            if isinstance(t, ast.Name)]
    return [name for name in defined if name.startswith("_")
            and not name.endswith("__") and name not in read]


def test_scan_finds_unread_private_names():
    sources = ["_a = 1\n_b = 2\n__all__ = []\ndef _f():\n    return _a\n",
               "class _C:\n    pass\nx = y._C\n"]
    assert unread_private_names(sources) == ["_b", "_f"]


def test_no_unread_private_names():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((REPO / "src" / "chronos").glob("*.py"))]
    assert unread_private_names(sources) == []


def traced_names(source):
    """The dotted names in a tracer's TARGETS table, split at the dots."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            for entry in node.value.elts:
                names.update(entry.elts[2].value.split("."))
    return names


def unread_public_names(defining, reading, also_read=()):
    """Public functions, classes and methods that the defining sources
    define and that no reading source loads as a name or an attribute.
    """
    read = set(also_read)
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for source in defining:
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defined += [n.name for n in [node] + members
                        if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return [name for name in defined
            if not name.startswith("_") and name not in read]


def test_scan_finds_unread_public_names():
    defining = ["class A:\n    def m(self):\n        pass\n"
                "    def _p(self):\n        pass\n"
                "def f():\n    return g()\ndef g():\n    pass\n"]
    reading = defining + ["x.A\n"]
    assert unread_public_names(defining, reading) == ["m", "f"]
    assert unread_public_names(defining, reading, {"m"}) == ["f"]
    tracer = ("TARGETS = (\n    ('a.b', 'a', 'C.d', None),\n"
              "    ('a.e', 'a', 'e', _dim),\n)\n")
    assert traced_names(tracer) == {"C", "d", "e"}


def test_no_unread_public_names():
    # every public name in the package is reached from the package, the
    # demos or the benchmark, which also wraps its TARGETS by name
    package = [p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "chronos").glob("*.py"))]
    users = package + [p.read_text(encoding="utf-8")
                       for top in ("demos", "bench")
                       for p in sorted((REPO / top).rglob("*.py"))]
    tracer = (REPO / "bench" / "tracer.py").read_text(encoding="utf-8")
    assert unread_public_names(package, users, traced_names(tracer)) == []


def loose_tolerance_comparisons(source):
    """Lines of comparisons against a tolerance not written x <= TOL.

    A tolerance is a name ending in _TOL, _ATOL or _RTOL, or an attribute
    ending in _tol, anywhere in an operand.  Written x <= TOL, a refusal
    reads `not x <= TOL`, which a NaN x fails; `x > TOL` lets NaN pass.
    """
    def tolerance(operand):
        return any(isinstance(n, ast.Name)
                   and n.id.endswith(("_TOL", "_ATOL", "_RTOL"))
                   or isinstance(n, ast.Attribute) and n.attr.endswith("_tol")
                   for n in ast.walk(operand))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(tolerance(left) or tolerance(right)
                   and not isinstance(op, ast.LtE)
                   for op, left, right in zip(node.ops, operands,
                                              operands[1:])):
                found.append(node.lineno)
    return found


def test_scan_finds_loose_tolerance_comparisons():
    source = ("if not gap <= EQUIVALENCE_TOL:\n    pass\n"
              "if gap > EQUIVALENCE_TOL:\n    pass\n"
              "if miss > LATTICE_RTOL * max(1.0, e):\n    pass\n"
              "ok = NORM_ATOL >= drift\n"
              "ok = 0 < x <= sc.constraint_tol\n"
              "ok = x < sc.eigen_tol\n"
              "ok = x > tol and y > TOLERANCE and z > TOL\n")
    assert loose_tolerance_comparisons(source) == [3, 5, 7, 9]


@pytest.mark.parametrize("path", sorted(
    p.relative_to(REPO).as_posix()
    for p in (REPO / "src" / "chronos").glob("*.py")))
def test_tolerance_comparisons_fail_on_nan(path):
    source = (REPO / path).read_text(encoding="utf-8")
    assert loose_tolerance_comparisons(source) == []


def stdlib_imports(source, module):
    """Lines that import the stdlib module `module`, in either form."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(a.name == module for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.module == module and not node.level]


def test_scan_finds_warnings_imports():
    source = ("import os, warnings as w\nimport numpy as np\n"
              "from warnings import warn\nfrom .warnings import x\n")
    assert stdlib_imports(source, "warnings") == [1, 3]


def test_scan_finds_gc_imports():
    source = ("import gc\nimport gcd, os\nfrom gc import freeze\n"
              "from . import gc\nimport sys, gc as collector\n")
    assert stdlib_imports(source, "gc") == [1, 3, 5]


def os_exits(source):
    """Lines that read `os._exit` or import `_exit` from os."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_exit"
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and not node.level and any(a.name == "_exit" for a in node.names))


def test_scan_finds_os_exits():
    source = ("import os\nos._exit(0)\nsys._exit(0)\nfrom os import _exit\n"
              "from .os import _exit\nx = os.exit, os._exit\n")
    assert os_exits(source) == [2, 4, 6]


SOURCES = sorted(p.relative_to(REPO).as_posix()
                 for p in (REPO / "src" / "chronos").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES)
def test_package_issues_no_warnings(path):
    # the package reports through exceptions, exit codes and its CSV only
    source = (REPO / path).read_text(encoding="utf-8")
    assert stdlib_imports(source, "warnings") == []


@pytest.mark.parametrize("path", SOURCES)
def test_only_the_entry_point_imports_gc(path):
    # the collector and the end of the process are the process's: the entry
    # point turns the collector off and ends with os._exit, and no library
    # module may change the collector or skip a caller's teardown
    source = (REPO / path).read_text(encoding="utf-8")
    found = stdlib_imports(source, "gc"), os_exits(source)
    if path == "src/chronos/__main__.py":
        assert [len(lines) for lines in found] == [1, 1]
    else:
        assert found == ([], [])
