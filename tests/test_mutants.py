"""The mutant table in tests/_mutants.py stays applicable: each mutant's old
text occurs exactly once in src/nodalflow, in the file it names, and each
test id it lists names a test function of an existing test file. Running
the mutants is ``python tests/_mutants.py``, not part of this suite."""

import ast
from pathlib import Path

import pytest

from _mutants import MUTANTS, PACKAGE, ROOT

SOURCES = {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once_in_src(mutant):
    counts = {name: text.count(mutant.old) for name, text in SOURCES.items()}
    assert {name: c for name, c in counts.items() if c} == {mutant.file: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_kill_ids_name_test_functions(mutant):
    assert mutant.kills
    for test_id in mutant.kills:
        path, _, name = test_id.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.partition("[")[0] in tests, test_id
