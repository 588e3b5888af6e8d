"""Edge-based spectral flow: L_sigma = L + sigma * P.

P is assembled from one rank-1 PSD block per sign-change edge; the selected
eigenvector psi spans its kernel, so the branch through (0, lambda_k) stays
constant while every other branch is non-decreasing in sigma. At sigma = 1
the multiplicity of lambda_k equals the strong nodal domain count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph_core import LaplacianMatrix, WeightedGraph, freeze_arrays, laplacian
from .nodal import EigenSelection, sign_change_edges
from .spectra import (
    FD_STEP,
    FlowResult,
    derivative_residual,
    eigendecompose,
    multiplicity_of,
    track_branches,
)


@dataclass(frozen=True)
class EdgePerturbation:
    """Per-edge blocks (i, j, w, q_ij, q_ji), the assembled matrix P and
    the graph Laplacian L, the two fixed terms of the flow L + sigma * P.

    q_ij = -psi_i / psi_j is positive exactly because (i, j) is a
    sign-change edge; q_ij * q_ji = 1, so each block is PSD of rank 1 with
    kernel spanned by (psi_i, psi_j).
    """

    blocks: tuple[tuple[int, int, float, float, float], ...]
    matrix: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "matrix", "laplacian")


def build_perturbation(g: WeightedGraph, sel: EigenSelection) -> EdgePerturbation:
    """Assemble P from the sign-change edges of the selected eigenvector,
    and L from g."""
    psi = sel.psi
    blocks = []
    P = np.zeros((g.n, g.n))
    for i, j, w in sign_change_edges(g, psi):
        q_ij = -psi[i] / psi[j]
        q_ji = -psi[j] / psi[i]
        blocks.append((i, j, w, float(q_ij), float(q_ji)))
        P[i, i] += w * q_ji
        P[j, j] += w * q_ij
        P[i, j] += w
        P[j, i] += w
    return EdgePerturbation(tuple(blocks), P, laplacian(g).matrix)


def flow_matrix(pert: EdgePerturbation, sigma: float) -> LaplacianMatrix:
    """L + sigma * P for sigma in [0, 1]."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma={sigma} outside [0, 1]")
    return LaplacianMatrix(pert.laplacian + sigma * pert.matrix)


def sign_preserving_graph(g: WeightedGraph, pert: EdgePerturbation) -> WeightedGraph:
    """The graph with sign-change edges removed and their weight folded into
    the diagonal as self loops of weight (1 + q_ji) w at i and (1 + q_ij) w
    at j. Its Laplacian equals the flow matrix at sigma = 1."""
    pm = {(i, j) for i, j, _, _, _ in pert.blocks}
    kept = tuple(e for e in g.edges if (e[0], e[1]) not in pm)
    diag = list(g.diag_extra)
    for i, j, w, q_ij, q_ji in pert.blocks:
        diag[i] += (1.0 + q_ji) * w
        diag[j] += (1.0 + q_ij) * w
    return WeightedGraph(g.n, kept, tuple(diag))


@dataclass(frozen=True)
class DirectCount:
    """Strong nodal domain count read off the sigma = 1 matrix.

    deficiency is None when lambda_k is degenerate: the count itself is
    still the multiplicity identity's nu, but the deficiency interpretation
    requires a simple eigenvalue.
    """

    k: int
    lambda_k: float
    nu: int
    deficiency: int | None
    degenerate_warning: bool


def nodal_count_direct(
    g: WeightedGraph, sel: EigenSelection, *, allow_degenerate: bool = False
) -> DirectCount:
    """nu(psi) = multiplicity of lambda_k in spec(L + P), no sweep needed."""
    sel.check_assumptions(allow_degenerate)
    spec1 = eigendecompose(flow_matrix(build_perturbation(g, sel), 1.0))
    nu = multiplicity_of(spec1, sel.lambda_k)
    return DirectCount(
        k=sel.k,
        lambda_k=sel.lambda_k,
        nu=nu,
        deficiency=(sel.k - nu) if sel.simple else None,
        degenerate_warning=not sel.simple,
    )


def run_edge_flow(
    g: WeightedGraph,
    sel: EigenSelection,
    *,
    steps: int = 200,
    allow_degenerate: bool = False,
    threads: int | None = None,
) -> FlowResult:
    """Track all branches of L + sigma * P over sigma in [0, 1].

    converged_count is read off the last grid point, sigma = 1 exactly,
    where lambda_k is the lowest eigenvalue, so it is lambda_k's
    multiplicity there. The branch count identity converged + crossings = k
    is certified (EigenSelection.certify), crossings being those of the
    branches that start below lambda_k. ``threads`` is accepted and
    ignored: every sigma is solved in the calling thread.
    """
    warnings = sel.check_assumptions(allow_degenerate)
    pert = build_perturbation(g, sel)
    fr = track_branches(
        lambda s: flow_matrix(pert, s), np.linspace(0.0, 1.0, steps), sel.lambda_k
    )
    nu = fr.converged_count
    identity_ok = (nu + len(fr.crossings)) == sel.k
    warnings += sel.certify(
        identity_ok,
        f"count identity failed: converged {nu} + crossings {len(fr.crossings)}"
        f" != k {sel.k}",
    )
    return replace(fr, warnings=fr.warnings + warnings, count_identity_ok=identity_ok)


def derivative_identity_check(pert: EdgePerturbation, sigma: float, u: np.ndarray) -> float:
    """Relative residual between the finite-difference branch slope of
    L + sigma * P at a simple eigenvalue and the per-edge closed form
    sum w * (sqrt(q_ji) u_i + sqrt(q_ij) u_j)^2.

    u must be (close to) an eigenvector of L + sigma * P;
    DegenerateEigenvalue is raised when its eigenvalue is not simple there.
    """
    if sigma - FD_STEP < 0 or sigma + FD_STEP > 1:
        raise ValueError(f"a central difference needs sigma in [{FD_STEP}, 1 - {FD_STEP}]")

    def closed_form(u: np.ndarray) -> float:
        return sum(
            w * (np.sqrt(q_ji) * u[i] + np.sqrt(q_ij) * u[j]) ** 2
            for i, j, w, q_ij, q_ji in pert.blocks
        )

    return derivative_residual(lambda s: flow_matrix(pert, s), sigma, u, closed_form)
