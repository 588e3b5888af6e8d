"""nodalflow benchmark.

    python3 perfbench/run.py --workload grid15-edge --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/selftest.py

Run from the root of a source checkout: the package is imported from
``src/``. Each workload runs in a fresh interpreter, so its peak memory and
set-up time are its own. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a separate traced pass (see ``tracer.py`` for which end-to-end metric
each layer should move, and on which workload).

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. Workload
outputs, span files and output digests go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "nodalflow"
OUT = HERE / "out"
SETUP_SAMPLES = 5
# Every run of one workload, set-up samples included, ends within this.
RUN_LIMIT_S = 170


def _worker(args, mode: str, work: Path, deadline: float) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--mode", mode,
        "--work", str(work),
    ]
    # run() kills the child and waits for it when the timeout expires.
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _same_as_before(args, output_digest: str) -> bool:
    """Outputs of one seed must not change between runs of the same package
    and benchmark code, traced or not: the first run records the digest,
    later ones compare."""
    path = OUT / "digests" / f"{args.workload}-{args.size}-{args.seed}-{_source_hash()}"
    if path.exists():
        return path.read_text() == output_digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(output_digest)
    return True


def run_workload(args, declared: dict) -> dict:
    work = OUT / args.workload
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            if _worker(args, "setup", work, deadline).returncode != 0:
                raise SystemExit(f"{args.workload}: set-up failed")
            setup.append(time.perf_counter() - t0)
    proc = _worker(args, "measure", work, deadline)
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["attempted"] == res["failed"]:
        raise SystemExit(f"{args.workload}: every operation failed: {res['failures'][:3]}")
    for failure in res["failures"]:
        print(f"{args.workload}: FAILED {failure}", file=sys.stderr)
    same = _same_as_before(args, res["digest"])
    if not same:
        print(f"{args.workload}: output digest differs from an earlier run", file=sys.stderr)
    correct = same and not res["failures"] and res["failed"] == 0
    if args.trace:
        values = res["metrics"]
        print(f"{args.workload}: traced {res['traced_s']:.3f} s, untraced "
              f"{res['untraced_s']:.3f} s, {values['trace.spans']} spans")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        p90 = "n/a (<100 ops)" if res["op_p90_ms"] is None else f"{res['op_p90_ms']:.4g} ms"
        print(f"{args.workload} seed {args.seed}: "
              + ", ".join(f"{m['name']} {values[m['name']]:.4g} {m['unit']}"
                          for m in declared["end_to_end"])
              + f", op_p90_ms {p90}, error_rate {res['failed'] / res['attempted']:.4g}"
              f" ({res['failed']}/{res['attempted']} ops, {res['samples']} latency samples,"
              f" {res['passes']} passes)")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}
    print(f"{args.workload}: digest {res['digest'][:16]}, machine {json.dumps(res['machine'])}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at toy size, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a nodalflow checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args, declared)))
        return 0
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        results[name] = run_workload(one, declared)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
