"""The benchmark's tracer finds every package binding it measures.

``perfbench/selftest.py`` makes the same check before it runs its workloads;
this test makes only that check, without a workload, so a package module
that loses a traced name (say ``dirichlet``'s ``laplacian`` import) fails
the test suite too.
"""

import importlib.util
import sys
from pathlib import Path

import nodalflow.cli  # noqa: F401  (imports every module the tracer patches)

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "nodalflow" or name.startswith("nodalflow.")
        for attr, value in vars(mod).items()
    }


def test_tracer_patches_every_benchmark_binding():
    saved_path, had_tracer = list(sys.path), "tracer" in sys.modules
    before = _package_bindings()
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(selftest)
        tracer = selftest.tr.Tracer()
        tracer.install()
        try:
            missing = [b for b in selftest.BINDINGS if b not in tracer.bindings]
        finally:
            tracer.uninstall()
    finally:
        sys.path[:] = saved_path
        if not had_tracer:
            sys.modules.pop("tracer", None)
    assert not missing, f"bindings not patched: {missing}"
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
