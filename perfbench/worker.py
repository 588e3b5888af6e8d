"""One workload run in a fresh interpreter; prints one JSON line.

``--mode setup`` only imports the package and builds the workload, so the
parent can time set-up. ``--mode measure`` with ``--trace 0`` repeats whole
passes over the operations in a closed loop for ``--seconds`` and reports
end-to-end figures; with ``--trace 1`` it runs one pass in which each operation runs
untraced and then traced, and reports per-layer figures.
"""

from __future__ import annotations

import os

# BLAS, OpenMP and the flows' own pool all get one thread; this must happen
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NODALFLOW_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _call(op, failures, tracer=None):
    """Time one operation, then check it outside the timing. Returns the
    seconds it took and its output digest, or None when it failed."""
    if tracer is not None:
        tracer.op = op.key
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed one
        out = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    if isinstance(out, Exception):
        traceback.print_exception(out, file=sys.stderr)
        failures.append(f"{op.key}: {type(out).__name__}: {out}")
        return dt, None
    try:
        return dt, op.check(out)
    except wl.CheckFailed as exc:
        failures.append(str(exc))
        return dt, None


def timed(ops, seconds: float) -> dict:
    """Repeat whole passes over the operations while the next pass should
    still end within ``seconds``; the first pass always runs.

    The machine's speed drifts by tens of percent over seconds, so each
    operation is credited with its fastest repeat: ops_per_s is the rows of
    one pass over the sum of those times, op_p50_ms their median per row.
    op_p90_ms is taken over every repeat."""
    best, raw_ms, digests, failures = {}, [], {}, []
    attempted, failed, passes = 0, 0, 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        passes += 1
        for op in ops:
            dt, out_digest = _call(op, failures)
            attempted += op.rows
            if out_digest is not None and digests.setdefault(op.key, out_digest) != out_digest:
                failures.append(f"{op.key}: output digest changed between repeats")
                out_digest = None
            if out_digest is None:
                failed += op.rows
                continue
            best[op.key] = min(dt, best.get(op.key, dt))
            # A scan call of n rows gives each row the call's time / n.
            raw_ms.extend([dt * 1e3 / op.rows] * op.rows)
    rows = {op.key: op.rows for op in ops}
    best_ms = [best[k] * 1e3 / rows[k] for k in best for _ in range(rows[k])]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops_per_s": len(best_ms) / sum(best.values()) if best else None,
        "op_p50_ms": statistics.median(best_ms) if best else None,
        "op_p90_ms": statistics.quantiles(raw_ms, n=10)[8] if len(raw_ms) >= 100 else None,
        "samples": len(raw_ms),
        "passes": passes,
        "digest": wl.digest(*(d.encode() for d in digests.values())),
    }


def traced(workload: str, ops, work: Path) -> dict:
    """One pass in which every operation runs untraced and then traced, so
    that drift in machine speed falls on both sides of the overhead."""
    failures, plain, seen = [], [], []
    untraced_s = traced_s = 0.0
    tracer = tr.Tracer()
    for op in ops:
        dt, out_digest = _call(op, failures)
        untraced_s += dt
        plain.append(out_digest)
        tracer.install()
        try:
            dt, out_digest = _call(op, failures, tracer)
        finally:
            tracer.uninstall()
        traced_s += dt
        seen.append(out_digest)
    if seen != plain:
        failures.append("traced and untraced outputs differ")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if metrics["lapack.eigh.calls"] != metrics["spectra.eigendecompose.calls"]:
        failures.append(
            f"lapack.eigh.calls {metrics['lapack.eigh.calls']} != "
            f"spectra.eigendecompose.calls {metrics['spectra.eigendecompose.calls']}"
        )
    wl.check_trace(workload, metrics)
    tracer.write(work / "spans.csv")
    return {
        "attempted": 2 * sum(op.rows for op in ops),
        "failed": sum(op.rows for op, d in zip(ops + ops, plain + seen) if d is None),
        "failures": failures,
        "metrics": metrics,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "digest": wl.digest(*(d.encode() for d in plain if d is not None)),
    }


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = wl.WORKLOADS[args.workload](args.seed, work, args.size == "tiny")
        if args.mode == "setup":
            return 0
        if args.trace:
            result = traced(args.workload, ops, work)
        else:
            result = timed(ops, args.seconds)
    except wl.PropertyLost as exc:
        print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 3
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
