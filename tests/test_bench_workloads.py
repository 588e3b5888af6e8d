"""The benchmark's workloads run against the package as it is.

``perfbench/workloads.py`` builds each workload from the package's public
names and checks every output against an oracle. This test imports it in
process, builds every workload at toy size and runs each operation and its
check, so a change to the package that the benchmark would trip on (a
renamed function, keyword or record field) fails the test suite instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nodalflow.cli  # noqa: F401  (imports every module the workloads use)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture
def workloads():
    """perfbench/workloads.py as a module; sys.path and sys.modules are
    left as they were found."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    try:
        # Registered while it runs: its dataclasses look their module up.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            del sys.modules[name]


def test_every_workload_runs_and_checks_at_toy_size(workloads, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert list(workloads.WORKLOADS) == [w["name"] for w in declared]
    for name, build in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        ops = build(3, work, tiny=True)
        assert ops, name
        for op in ops:
            digest = op.check(op.run())
            assert len(digest) == 64 and int(digest, 16) >= 0, (name, op.key)


@pytest.mark.parametrize("seed", [1, 2])
def test_er_scan_counts_the_domains_at_full_size(workloads, tmp_path, seed):
    # er-scan's own check compares every printed nu with the strong domain
    # count, on its full-size graphs, relabelled by the seed: a count that
    # departs from it fails here before the benchmark sees it.
    ops = workloads.er_scan(seed, tmp_path, tiny=False)
    assert [op.rows for op in ops] == [100, 150, 200]
    for op in ops:
        op.check(op.run())
