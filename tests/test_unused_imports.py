"""Every module of the package uses every name it imports, checked with
``ast`` in place of a linter. ``__init__.py`` is exempt: it re-exports, and
its ``__all__`` must list exactly the names it imports. An import kept on
purpose says so with ``# noqa: F401`` on its last line, as flake8 would read
it, and is kept only as a binding that perfbench/selftest.py's BINDINGS
names."""

import ast
from pathlib import Path

import pytest

import nodalflow

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalflow"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SELFTEST = PACKAGE.parents[1] / "perfbench" / "selftest.py"


def imports(source: str) -> list[tuple[str, bool]]:
    """(name, kept) for each name bound by the imports of ``source``, kept
    being whether the import is marked ``# noqa: F401``. ``from
    __future__`` imports bind nothing and are skipped."""
    tree, lines = ast.parse(source), source.splitlines()
    return [
        (alias.asname or alias.name.split(".")[0], "# noqa: F401" in lines[node.end_lineno - 1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]


def unused_imports(source: str) -> list[str]:
    """Names bound by the unmarked imports of ``source`` that no name in it
    reads."""
    read = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name, kept in imports(source) if not kept and name not in read]


def benchmark_bindings() -> set[str]:
    """perfbench/selftest.py's BINDINGS, the package names the benchmark's
    tracer must find, evaluated from its source without importing it."""
    tree = ast.parse(SELFTEST.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"])
    return set(eval(compile(ast.Expression(value), str(SELFTEST), "eval")))


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\nimport scipy.linalg\nfrom numpy import array as arr, zeros\n"
        "from math import pi  # noqa: F401  (kept on purpose)\n"
        "def f(x: zeros) -> int:\n    return scipy.linalg.eigh(sys.argv)\n"
    )
    assert unused_imports(source) == ["os", "arr"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_kept_import_is_a_benchmark_binding(module):
    # An import marked noqa is kept only for the benchmark's tracer, so it
    # must name a binding the tracer patches; any other is dead code.
    kept = {f"nodalflow.{module[:-3]}.{name}"
            for name, marked in imports((PACKAGE / module).read_text()) if marked}
    assert kept - benchmark_bindings() == set()


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(nodalflow.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in nodalflow.__all__:
        assert hasattr(nodalflow, name), name
