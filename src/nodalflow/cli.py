"""Command-line interface.

Exit codes: 0 success, 2 bad input or a failed flow certificate, 3
assumption violations (output still produced where computable), 4 partial
result (branch tracking hit its refinement floor; files written, flagged).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio, svg
from .dirichlet import d_connected_components, dirichlet_problem, dirichlet_spectrum
from .edge_flow import nodal_count_direct, run_edge_flow
from .errors import AssumptionViolated, NodalFlowError
from .families import FamilySpec, generate
from .graph_core import WeightedGraph, laplacian
from .nodal import select_eigenpair, strong_domains_allowing_zeros, zero_vertices
from .spectra import eigendecompose, multiplicity_of
from .vertex_flow import limit_graph, run_vertex_flow, subdivide

_FAMILY_ALIASES = {"er": "erdos_renyi"}


def _count_sign_edges_tolerant(g: WeightedGraph, psi: np.ndarray) -> int:
    """Sign-change edges among vertices with nonzero entries; for a
    nowhere-zero psi, len(sign_change_edges(g, psi))."""
    zset = set(zero_vertices(psi))
    return sum(
        1 for i, j, _ in g.edges
        if i not in zset and j not in zset and psi[i] * psi[j] < 0
    )


def _row_for_k(g: WeightedGraph, spectrum, k: int) -> dict:
    """One scan/nodal row. Rows violating an assumption still carry a
    count: degenerate rows use the multiplicity identity, zero-vertex rows
    the zero-tolerant combinatorial count."""
    sel = select_eigenpair(spectrum, k)
    if sel.nowhere_zero:
        nu = nodal_count_direct(g, sel, allow_degenerate=True).nu
    else:
        nu = len(strong_domains_allowing_zeros(g, sel.psi)[0])
    return {
        "k": sel.k,
        "requested_k": k,
        "lambda_k": sel.lambda_k,
        "nu": nu,
        "deficiency": sel.k - nu,
        "n_sign_change_edges": _count_sign_edges_tolerant(g, sel.psi),
        "simple": sel.simple,
        "nowhere_zero": sel.nowhere_zero,
    }


def _cmd_generate(args) -> int:
    kind = _FAMILY_ALIASES.get(args.family, args.family)
    try:
        params = tuple(float(x) for x in args.params.split(","))
    except ValueError:
        print(f"cannot parse --params {args.params!r}", file=sys.stderr)
        return 2
    spec = FamilySpec(kind=kind, params=params, seed=args.seed)
    g = generate(spec)
    meta = {"family": kind, "params": list(params)}
    if args.seed is not None:
        meta["seed"] = args.seed
    fileio.save_graph(args.output, g, meta)
    return 0


def _cmd_nodal(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    spectrum = eigendecompose(laplacian(g))
    row = _row_for_k(g, spectrum, args.k)
    del row["requested_k"]
    print(fileio.canonical_json(row))
    return 0 if row["simple"] and row["nowhere_zero"] else 3


def _cmd_flow(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    spectrum = eigendecompose(laplacian(g))
    sel = select_eigenpair(spectrum, args.k)
    if not sel.nowhere_zero:
        print(
            f"eigenvector {args.k} has zero entries at {zero_vertices(sel.psi)}; "
            "the flow is undefined (perturb first)",
            file=sys.stderr,
        )
        return 3
    if args.method == "edge":
        fr = run_edge_flow(g, sel, steps=args.steps, allow_degenerate=True)
        log_x = False
    else:
        fr = run_vertex_flow(
            g, sel, sigma_max=args.sigma_max, steps=args.steps, allow_degenerate=True
        )
        log_x = True
    nu = fr.converged_count
    flags = {
        "simple": sel.simple,
        "nowhere_zero": sel.nowhere_zero,
        "refinement_exhausted": fr.refinement_exhausted,
        "warnings": list(fr.warnings),
    }
    summary = fileio.flow_summary(
        fr, sel.k, sel.lambda_k, nu, sel.k - nu, flags=flags
    )
    fileio.write_text(f"{args.out}.csv", fileio.branch_table_csv(fr))
    fileio.write_text(f"{args.out}.json", fileio.canonical_json(summary) + "\n")
    if args.svg:
        title = f"{args.method} flow, k={sel.k}"
        fileio.write_text(
            f"{args.out}.svg", svg.branch_chart_svg(fr, log_x=log_x, title=title)
        )
    if fr.refinement_exhausted:
        return 4
    return 0 if sel.simple else 3


def _cmd_scan(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    spectrum = eigendecompose(laplacian(g))
    rows = [_row_for_k(g, spectrum, k) for k in range(1, g.n + 1)]
    print("k,lambda_k,nu,deficiency,simple,nowhere_zero,group")
    for row in rows:
        print(
            f"{row['requested_k']},{fileio.format_float(row['lambda_k'])},"
            f"{row['nu']},{row['deficiency']},"
            f"{str(row['simple']).lower()},{str(row['nowhere_zero']).lower()},"
            f"{row['k']}"
        )
    if args.plot:
        plot_rows = [
            {"k": r["requested_k"], "nu": r["nu"], "simple": r["simple"],
             "nowhere_zero": r["nowhere_zero"]}
            for r in rows
        ]
        fileio.write_text(args.plot, svg.scan_scatter_svg(plot_rows))
    return 0


def _cmd_dirichlet(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    spectrum = eigendecompose(laplacian(g))
    sel = select_eigenpair(spectrum, args.k)
    if not sel.nowhere_zero:
        print(
            f"eigenvector {args.k} has zero entries at {zero_vertices(sel.psi)}; "
            "sign classes are undefined",
            file=sys.stderr,
        )
        return 3
    sg = subdivide(g, sel)
    lim = limit_graph(sg)
    base = tuple(range(sg.n_base))
    dp = dirichlet_problem(lim, base)
    dspec = dirichlet_spectrum(dp)
    out = {
        "k": sel.k,
        "lambda_k": sel.lambda_k,
        "d_connected_components": len(d_connected_components(lim, base)),
        "dirichlet_eigenvalues": [float(v) for v in dspec.eigenvalues],
        "multiplicity_of_lambda_k": multiplicity_of(dspec, sel.lambda_k),
        "simple": sel.simple,
        "nowhere_zero": sel.nowhere_zero,
    }
    print(fileio.canonical_json(out))
    return 0 if sel.simple else 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nodalflow",
        description="Spectral flows for graph Laplacians: nodal domain "
        "counts and nodal deficiency.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph file for a named family")
    p.add_argument("--family", required=True,
                   help="complete | cycle | petersen | interval | grid | erdos_renyi")
    p.add_argument("--params", required=True,
                   help="comma-separated numbers, e.g. 7,3 or 20,0.5")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for erdos_renyi (connectivity enforced by retry)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("nodal", help="nodal counts for one eigenpair")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="1-based eigenvalue index")
    p.set_defaults(func=_cmd_nodal)

    p = sub.add_parser("flow", help="run one spectral flow and write branch files")
    p.add_argument("--method", choices=("edge", "vertex"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma-max", type=float, default=1e4,
                   help="vertex flow endpoint (ignored for edge)")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", required=True, help="prefix for .csv/.json (and .svg)")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("scan", help="nodal counts for every k")
    p.add_argument("--graph", required=True)
    p.add_argument("--plot", default=None, help="write a scatter SVG here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("dirichlet", help="Dirichlet limit data for one eigenpair")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_dirichlet)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssumptionViolated as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (NodalFlowError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
