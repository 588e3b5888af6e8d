"""Every module of the package uses every name it imports, checked with
``ast`` in place of a linter. ``__init__.py`` is exempt: it re-exports, and
its ``__all__`` must list exactly the names it imports. An import kept on
purpose says so with ``# noqa: F401`` on its last line, as flake8 would read
it."""

import ast
from pathlib import Path

import pytest

import nodalflow

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalflow"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no name in it reads.
    ``from __future__`` imports bind nothing and are skipped, and so are
    imports marked ``# noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        if "# noqa: F401" not in lines[node.end_lineno - 1]
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


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
