"""The benchmark's tracer finds every package binding it measures and
reconciles its solve counts.

``perfbench/selftest.py`` makes the same checks before it runs its
workloads; these tests make them on one tiny flow, so a package module that
loses a traced name (say ``dirichlet``'s ``laplacian`` import), or a solve
that bypasses ``eigendecompose`` and so hides from the benchmark, fails the
test suite too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nodalflow.cli  # noqa: F401  (imports every module the tracer patches)
from nodalflow.families import grid
from nodalflow.fileio import save_graph

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "nodalflow" or name.startswith("nodalflow.")
        for attr, value in vars(mod).items()
    }


@pytest.fixture
def selftest():
    """perfbench/selftest.py as a module; every package binding must be
    the same object after the test as before it."""
    saved_path, had_tracer = list(sys.path), "tracer" in sys.modules
    before = _package_bindings()
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        if not had_tracer:
            sys.modules.pop("tracer", None)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_patches_every_benchmark_binding(selftest):
    tracer = selftest.tr.Tracer()
    tracer.install()
    try:
        missing = [b for b in selftest.BINDINGS if b not in tracer.bindings]
    finally:
        tracer.uninstall()
    assert not missing, f"bindings not patched: {missing}"


def test_tracer_counts_every_solve_of_a_vertex_flow(selftest, tmp_path):
    path = tmp_path / "grid.json"
    save_graph(path, grid(4, 3))
    argv = ["flow", "--method", "vertex", "--graph", str(path), "--k", "5",
            "--steps", "20", "--out", str(tmp_path / "vertex")]
    tracer = selftest.tr.Tracer()
    tracer.install()
    try:
        tracer.op = "vertex"
        rc = nodalflow.cli.main(argv)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert rc == 0
    m = tracer.metrics()
    assert m["lapack.eigh.calls"] == m["spectra.eigendecompose.calls"] > 0, m
    assert m["spectra.bisect_solves"] > 0, m
