"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that the
last output line has the result format, that every metric BENCHMARK.json
names is emitted with its unit, that the tracer patches every binding of
the traced functions and reconciles its eigh and eigendecompose counts, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402

BINDINGS = (
    [f"nodalflow.{m}.eigendecompose"
     for m in ("spectra", "edge_flow", "vertex_flow", "dirichlet", "cli")]
    + [f"nodalflow.{m}.laplacian" for m in (
        "graph_core", "edge_flow", "vertex_flow", "dirichlet", "nodal", "families", "cli")]
    + [f"nodalflow.{m}.track_branches" for m in ("spectra", "edge_flow", "vertex_flow")]
    + ["nodalflow.spectra.scipy"]
)


def run(*args, cwd=ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_result(workload: str, trace: int, declared: list[dict]) -> dict:
    rc, res = run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    where = f"{workload} trace={trace}"
    assert rc == 0 and res is not None, f"{where}: exit {rc}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(res)}"
    assert res["correct"] is True and res["failed"] == 0, f"{where}: {res}"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
    assert list(res["metrics"]) == [m["name"] for m in declared], f"{where}: metric names"
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), where
        assert math.isfinite(value), f"{where}: {m['name']} = {value}"
    return {name: got["value"] for name, got in res["metrics"].items()}


def check_bindings() -> None:
    import workloads as wl

    work = HERE / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    ops = wl.grid_vertex(3, work, tiny=True)
    tracer = tr.Tracer()
    tracer.install()
    try:
        missing = [b for b in BINDINGS if b not in tracer.bindings]
        assert not missing, f"bindings not patched: {missing}"
        for op in ops:
            tracer.op = op.key
            op.run()
        tracer.op = None
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["lapack.eigh.calls"] == m["spectra.eigendecompose.calls"] > 0, m
    assert m["spectra.bisect_solves"] > 0, m


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    rc, res = run("--workload", "er-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and res is None, f"ran without package source: exit {rc}, {res}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == tr.metric_units(), "BENCHMARK.json per_layer differs from tracer.py"
    check_bindings()
    for w in bench["workloads"]:
        check_result(w["name"], 0, bench["end_to_end"])
        layers = check_result(w["name"], 1, bench["per_layer"])
        assert layers["lapack.eigh.calls"] == layers["spectra.eigendecompose.calls"] > 0
        if w["name"] == "grid15-edge":
            assert layers["spectra.bisect_solves"] == 0
        if w["name"] == "grid-vertex":
            assert layers["spectra.bisect_solves"] > 0
        print(f"ok {w['name']}")
    check_bare_directory()
    print("ok self-test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
