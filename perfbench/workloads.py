"""The benchmark's workloads, built from a seed.

Each workload is a list of operations run by one caller in a closed loop.
An operation's ``run`` is what gets timed; its ``check`` runs afterwards,
outside the timing, compares the output with an independent oracle and
returns a digest of the canonical output. Building the list is the
workload's set-up: graphs, graph files, base spectra and selections.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nodalflow as nf
from nodalflow import cli

class PropertyLost(RuntimeError):
    """The seed produced inputs without the property the workload is for."""


class CheckFailed(RuntimeError):
    """An operation's output disagrees with its oracle."""


@dataclass
class Op:
    key: str
    rows: int  # operations this call counts for: 1, or the rows of a scan
    run: Callable[[], object]
    check: Callable[[object], str]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _relabelled(g: nf.WeightedGraph, seed: int) -> nf.WeightedGraph:
    """The same graph with vertices renamed by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(g.n)
    edges = tuple((int(perm[i]), int(perm[j]), w) for i, j, w in g.edges)
    diag = np.empty(g.n)
    diag[perm] = g.diag_extra
    return nf.WeightedGraph(g.n, edges, tuple(diag))


def _selection(g: nf.WeightedGraph, k: int) -> nf.EigenSelection:
    return nf.select_eigenpair(nf.eigendecompose(nf.laplacian(g)), k)


def grid15_edge(seed: int, work: Path, tiny: bool) -> list[Op]:
    """One default edge flow on a grid whose eigenvector has delta = 0."""
    (a, b), k = ((4, 3), 2) if tiny else ((15, 15), 9)
    key = f"grid{a}x{b} k={k}"
    g = _relabelled(nf.grid(a, b), seed)
    sel = _selection(g, k)
    if not (sel.simple and sel.nowhere_zero):
        raise PropertyLost(f"grid {a}x{b} k={k} is not simple and nowhere-zero")
    nu = nf.nodal_decomposition(g, sel).nu
    if nu != sel.k:
        raise PropertyLost(f"grid {a}x{b} k={k} has delta {sel.k - nu}, not 0")

    def run():
        return nf.run_edge_flow(g, sel, threads=1)

    def check(fr) -> str:
        from_below = sum(
            1 for c in fr.crossings if fr.branch_values[c.branch, 0] < sel.lambda_k
        )
        _require(fr.converged_count == nu, f"{key}: converged {fr.converged_count} != nu {nu}")
        _require(fr.count_identity_ok is True, f"{key}: count identity not ok")
        _require(from_below == sel.k - nu, f"{key}: {from_below} crossings != delta {sel.k - nu}")
        _require(not fr.refinement_exhausted, f"{key}: refinement exhausted")
        crossings = [(c.branch, c.sigma_lo, c.sigma_hi) for c in fr.crossings]
        return digest(
            fr.sigma_grid.tobytes(), fr.branch_values.tobytes(),
            repr((crossings, fr.converged_count)).encode(),
        )

    return [Op(key, 1, run, check)]


def grid_vertex(seed: int, work: Path, tiny: bool) -> list[Op]:
    """One CLI vertex flow with CSV, JSON and SVG output on a grid."""
    (a, b), k, steps = ((4, 3), 5, 20) if tiny else ((10, 10), 20, 200)
    g = _relabelled(nf.grid(a, b), seed)
    sel = _selection(g, k)
    if not (sel.simple and sel.nowhere_zero):
        raise PropertyLost(f"grid {a}x{b} k={k} is not simple and nowhere-zero")
    path = work / "grid.json"
    nf.save_graph(path, g)
    prefix = work / "vertex"
    argv = ["flow", "--method", "vertex", "--graph", str(path), "--k", str(k),
            "--steps", str(steps), "--out", str(prefix), "--svg"]
    oracle = {}

    def run():
        return cli.main(argv)

    def check(rc) -> str:
        _require(rc == 0, f"vertex flow exited {rc}")
        files = [Path(f"{prefix}{ext}").read_bytes() for ext in (".csv", ".json", ".svg")]
        summary = json.loads(files[1])
        if "nu" not in oracle:
            oracle["nu"] = nf.nodal_decomposition(g, sel).nu
        _require(summary["nu"] == oracle["nu"], f"nu {summary['nu']} != {oracle['nu']}")
        _require(summary["converged_count"] == oracle["nu"], "converged count != nu")
        _require(not summary["flags"]["refinement_exhausted"], "refinement exhausted")
        if len(summary["crossings"]) < 2:
            raise PropertyLost(f"vertex flow has {len(summary['crossings'])} crossings, not > 1")
        return digest(*files)

    return [Op(f"grid{a}x{b} k={k}", 1, run, check)]


def er_scan(seed: int, work: Path, tiny: bool) -> list[Op]:
    """One CLI scan with a scatter plot per connected ER graph, relabelled
    by the seed so that every seed does the same work."""
    ns, p = ((12, 16), 0.5) if tiny else ((100, 150, 200), 0.1)
    ops = []
    for n in ns:
        g = _relabelled(nf.generate_connected_er(n, p, n).graph, seed)
        spectrum = nf.eigendecompose(nf.laplacian(g))
        sels = [nf.select_eigenpair(spectrum, k) for k in range(1, n + 1)]
        if not all(s.nowhere_zero for s in sels):
            raise PropertyLost(f"ER n={n}: a row has zero entries, so skips nodal_count_direct")
        path = work / f"er{n}.json"
        nf.save_graph(path, g)
        ops.append(_scan_op(g, sels, path, work / f"er{n}.svg"))
    return ops


def _scan_op(g, sels, path: Path, plot: Path) -> Op:
    argv = ["scan", "--graph", str(path), "--plot", str(plot)]
    oracle = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check(result) -> str:
        rc, text = result
        _require(rc == 0, f"scan n={g.n} exited {rc}")
        if not oracle:
            oracle.extend(nf.nodal_decomposition(g, s).nu for s in sels)
        rows = text.splitlines()[1:]
        _require(len(rows) == g.n, f"scan n={g.n} printed {len(rows)} rows")
        for row, nu in zip(rows, oracle):
            k, _, row_nu, _, _, nowhere_zero, _ = row.split(",")
            _require(nowhere_zero == "true", f"scan n={g.n} k={k} left nodal_count_direct")
            _require(int(row_nu) == nu, f"scan n={g.n} k={k}: nu {row_nu} != {nu}")
        return digest(text.encode(), plot.read_bytes())

    return Op(f"scan n={g.n}", g.n, run, check)


WORKLOADS = {
    "grid-vertex": grid_vertex,
    "grid15-edge": grid15_edge,
    "er-scan": er_scan,
}


def check_trace(workload: str, metrics: dict) -> None:
    """Properties of a workload that only the traced run can see."""
    if workload == "grid15-edge" and metrics["spectra.bisect_solves"] != 0:
        raise PropertyLost(f"grid15-edge ran {metrics['spectra.bisect_solves']} bisection solves")
