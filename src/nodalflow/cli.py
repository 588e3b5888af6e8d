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
from .edge_flow import build_perturbation, flow_matrix, limit_multiplicity
from .edge_flow import nodal_count_direct, run_edge_flow
from .errors import AssumptionViolated, NodalFlowError
from .families import generate
from .graph_core import LaplacianMatrix, WeightedGraph, laplacian
from .nodal import EigenSelection, edge_signs, select_eigenpair, strong_domains_allowing_zeros
from .nodal import zero_vertices
from .spectra import eigendecompose
from .vertex_flow import run_vertex_flow

_FAMILY_ALIASES = {"er": "erdos_renyi"}


def _count_for_k(g: WeightedGraph, spectrum, k: int) -> tuple[EigenSelection, int]:
    """The selection at k from the spectrum of g's Laplacian and its strong
    nodal domain count. Selections violating an assumption still get a
    count: degenerate ones by the multiplicity identity, zero-vertex ones
    by the zero-tolerant combinatorial count."""
    sel = select_eigenpair(spectrum, k)
    if sel.nowhere_zero:
        return sel, nodal_count_direct(g, sel, allow_degenerate=True)
    return sel, len(strong_domains_allowing_zeros(g, sel.psi)[0])


def _nowhere_zero_selection(args, undefined: str) -> tuple[WeightedGraph, EigenSelection | None]:
    """The graph at --graph and its selection at --k, or (g, None) once the
    zero entries are reported, with what they leave ``undefined``."""
    g, _ = fileio.load_graph(args.graph)
    sel = select_eigenpair(eigendecompose(laplacian(g)), args.k)
    if sel.nowhere_zero:
        return g, sel
    print(
        f"eigenvector {args.k} has zero entries at {zero_vertices(sel.psi)}; {undefined}",
        file=sys.stderr,
    )
    return g, None


def _cmd_generate(args) -> int:
    kind = _FAMILY_ALIASES.get(args.family, args.family)
    try:
        params = tuple(float(x) for x in args.params.split(","))
    except ValueError:
        print(f"cannot parse --params {args.params!r}", file=sys.stderr)
        return 2
    g = generate(kind, params, args.seed)
    meta = {"family": kind, "params": list(params)}
    if args.seed is not None:
        meta["seed"] = args.seed
    fileio.save_graph(args.output, g, meta)
    return 0


def _cmd_nodal(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    sel, nu = _count_for_k(g, eigendecompose(laplacian(g)), args.k)
    row = {
        "k": sel.k,
        "lambda_k": sel.lambda_k,
        "nu": nu,
        "deficiency": sel.k - nu,
        "n_sign_change_edges": int(np.count_nonzero(edge_signs(g, sel.psi) < 0)),
        "simple": sel.simple,
        "nowhere_zero": sel.nowhere_zero,
    }
    print(fileio.canonical_json(row))
    return 0 if sel.simple and sel.nowhere_zero else 3


def _cmd_flow(args) -> int:
    g, sel = _nowhere_zero_selection(args, "the flow is undefined (perturb first)")
    if sel is None:
        return 3
    if args.method == "edge":
        fr = run_edge_flow(g, sel, steps=args.steps, allow_degenerate=True)
        log_x = False
    else:
        fr = run_vertex_flow(g, sel, steps=args.steps, allow_degenerate=True)
        log_x = True
    flags = {
        "simple": sel.simple,
        "nowhere_zero": sel.nowhere_zero,
        "refinement_exhausted": fr.refinement_exhausted,
        "warnings": list(fr.warnings),
    }
    summary = fileio.flow_summary(fr, sel.k, flags)
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
    counts = [_count_for_k(g, spectrum, k) for k in range(1, g.n + 1)]
    print("k,lambda_k,nu,deficiency,simple,nowhere_zero,group")
    for sel, nu in counts:
        print(
            f"{sel.requested_k},{fileio.format_float(sel.lambda_k)},"
            f"{nu},{sel.k - nu},"
            f"{str(sel.simple).lower()},{str(sel.nowhere_zero).lower()},"
            f"{sel.k}"
        )
    if args.plot:
        plot_rows = [
            {"k": sel.requested_k, "nu": nu, "simple": sel.simple,
             "nowhere_zero": sel.nowhere_zero}
            for sel, nu in counts
        ]
        fileio.write_text(args.plot, svg.scan_scatter_svg(plot_rows))
    return 0


def _cmd_dirichlet(args) -> int:
    g, sel = _nowhere_zero_selection(args, "sign classes are undefined")
    if sel is None:
        return 3
    # The Dirichlet limit on the base vertices is L + P, the Laplacian of the
    # sign-preserving graph, whose components, the D-connected ones, are
    # psi's strong nodal domains. It is block diagonal over psi's sign
    # classes (limit_multiplicity), so its spectrum is that of the blocks;
    # lambda_k's multiplicity is the count nodal prints as nu.
    M = flow_matrix(build_perturbation(g, sel), 1.0).matrix
    blocks = (M[np.ix_(S, S)] for S in (sel.psi > 0, sel.psi < 0) if S.any())
    values = [eigendecompose(LaplacianMatrix(b), vectors=False).eigenvalues for b in blocks]
    domains, _ = strong_domains_allowing_zeros(g, sel.psi)
    out = {
        "k": sel.k,
        "lambda_k": sel.lambda_k,
        "d_connected_components": len(domains),
        "dirichlet_eigenvalues": np.sort(np.concatenate(values)).tolist(),
        "multiplicity_of_lambda_k": limit_multiplicity(g, sel),
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
