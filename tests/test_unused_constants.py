"""Every module-level UPPER_CASE constant of the package is read by code in
the package, checked with ``ast``: by name, or as an attribute of a module.
Importing a constant is not reading it, so a re-export in ``__init__.py``
does not count, and neither does a read in the tests: a constant that only
tests read configures nothing the package runs."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalflow"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def constants(source: str) -> list[str]:
    """The UPPER_CASE names that the module-level assignments of ``source``
    bind."""
    found = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return found


def reads(source: str) -> set[str]:
    """The names that ``source`` reads, and the attributes it names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unread_constants(sources: dict[str, str]) -> list[str]:
    """``module.NAME`` for each constant of the modules in ``sources`` (name
    to source) that no module reads."""
    read = set().union(*map(reads, sources.values()))
    return [f"{module}.{name}" for module, source in sources.items()
            for name in constants(source) if name not in read]


def test_unread_constants_finds_what_no_code_reads():
    sources = {
        "a": "LIMIT = 3\nTOL: float = 1e-8\nSHARED = 2\n_PRIVATE = 1\nlower = 0\n"
             "def f(x):\n    UNUSED_LOCAL = 5\n    return x < LIMIT\n",
        "b": "from .a import TOL\nimport a\nSPAN = a.SHARED\n",
    }
    assert unread_constants(sources) == ["a.TOL", "a._PRIVATE", "b.SPAN"]


def test_package_reads_every_constant():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources) == []
