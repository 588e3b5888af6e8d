"""Edge-based spectral flow: L_sigma = L + sigma * P.

P is assembled from one rank-1 PSD block per sign-change edge; the selected
eigenvector psi spans its kernel, so the branch through (0, lambda_k) stays
constant while every other branch is non-decreasing in sigma. At sigma = 1
the multiplicity of lambda_k equals the strong nodal domain count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ZeroVertex
from .graph_core import LaplacianMatrix, WeightedGraph, edge_matrix, freeze_arrays, laplacian
from .nodal import EigenSelection, sign_change_mask, zero_vertices
from .spectra import (
    FD_STEP,
    FlowResult,
    _count_nonpositive,
    derivative_residual,
    group_tolerance,
    track_branches,
)
from .spectra import eigendecompose  # noqa: F401  (a binding perfbench/selftest.py traces)


@dataclass(frozen=True)
class EdgePerturbation:
    """psi's sign-change edges i < j with weight w, in edge order, their
    ratios, and L (laplacian), the graph's own Laplacian. The record keeps
    only these arrays; the fixed terms derived from them, P (matrix) and
    the vertex flow's ghost half-edges (half_weights), are computed when
    read. Both flows end at L + P, flow_matrix(pert, 1.0).

    q_ij = -psi_i / psi_j is positive exactly because the edge changes sign;
    q_ij * q_ji = 1, so each edge's block of P is PSD of rank 1 with kernel
    spanned by (psi_i, psi_j): P = C C^T, C's column p being sqrt(w) (sqrt(q_ji)
    e_i + sqrt(q_ij) e_j). The half-weights are the same columns scaled,
    H = C diag(c), H's column p holding edge p's half-weights h_i at i and
    h_j at j, and c_p = sqrt(w) (sqrt(q_ji) + sqrt(q_ij)), so c_p^2 = h_i + h_j.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    q_ij: np.ndarray
    q_ji: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "i", "j", "w", "q_ij", "q_ji", "laplacian")

    @cached_property
    def matrix(self) -> np.ndarray:
        """P, read-only and assembled on first read: w at (i, j) and (j, i),
        and on the diagonal w q_ji at i and w q_ij at j (edge_matrix)."""
        w = self.w
        P = edge_matrix(len(self.laplacian), self.i, self.j, w, w * self.q_ji, w * self.q_ij, 0.0)
        P.setflags(write=False)
        return P

    @property
    def half_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """w (1 + q_ji) at i and w (1 + q_ij) at j: sign_preserving_graph's
        self loops and the vertex flow's ghost half-edges."""
        return self.w * (1.0 + self.q_ji), self.w * (1.0 + self.q_ij)


def build_perturbation(g: WeightedGraph, sel: EigenSelection) -> EdgePerturbation:
    """Select the sign-change edges of the selected eigenvector and compute
    their ratios; L is g's own Laplacian. Nothing n x n is built: P is
    assembled only where a flow reads it (EdgePerturbation.matrix)."""
    psi = sel.psi
    cut = sign_change_mask(g, psi)
    i, j, w = (a[cut] for a in g.edge_arrays)
    return EdgePerturbation(i, j, w, -psi[i] / psi[j], -psi[j] / psi[i], laplacian(g).matrix)


def check_steps(steps: int) -> None:
    """A flow grid of ``steps`` points reaches the flow's end (sigma = 1, or
    the vertex flow's end) only for steps >= 2; ValueError otherwise."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")


def flow_matrix(pert: EdgePerturbation, sigma: float) -> LaplacianMatrix:
    """L + sigma * P for sigma in [0, 1]."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma={sigma} outside [0, 1]")
    return LaplacianMatrix(pert.laplacian + sigma * pert.matrix)


def limit_multiplicity(g: WeightedGraph, sel: EigenSelection) -> int:
    """Multiplicity of lambda_k in L + P, where both flows end (the vertex
    flow's Dirichlet limit on the base), P being built from sel: its
    eigenvalues within tol = group_tolerance(lambda_k) of lambda_k, counted
    by inertia with no eigensolve; ZeroVertex unless psi is nowhere zero.
    The package's only count of nu in the limit: scan, nodal, dirichlet and
    the vertex certificate read it.

    L + P is block diagonal over psi's sign classes: a sign-change edge's
    entry is -w + w = 0, and every other edge joins one class. On a class
    S, with D = diag(|psi_S|), L + P's block B has D (B - lambda_k) D =
    L_psi, the Laplacian of S's sign-preserving edges with weights
    w |psi_i psi_j| (the ground-state transform): lambda_k, diag_extra, P
    and every ratio of psi's entries cancel, as B psi_S = lambda_k psi_S.
    By Sylvester's law, B's eigenvalues <= lambda_k + tol are those of
    L_psi - tol D^2 <= 0, and none lies below lambda_k - tol; L_psi's
    kernel holds one vector per strong nodal domain in S, so the count is
    never below the domain count.

    Both classes' L_psi - tol D^2 are assembled into one buffer of p^2 + q^2
    doubles, p and q the class sizes: the positive class's p x p block, then
    the negative class's q x q block, each row-major with the vertices in
    their order within the class. Every diagonal entry sums its edge terms
    in edge order, i before j, as the class's own matrix assembled alone
    would. Each block is exactly symmetric, so its transpose is the same
    matrix in Fortran order, and _count_nonpositive factors it in place.
    """
    if not sel.nowhere_zero:
        raise ZeroVertex(zero_vertices(sel.psi))
    psi, (i, j, w) = sel.psi, g.edge_arrays
    product = psi.take(i) * psi.take(j)
    kept = np.flatnonzero(product > 0)
    i, j, w = i.take(kept), j.take(kept), w.take(kept) * product.take(kept)
    negative, tol = psi < 0, group_tolerance(sel.lambda_k)
    q = np.count_nonzero(negative)
    p = g.n - q
    order = np.argsort(negative, kind="stable")  # the positive class first
    loc = np.argsort(order) - p * negative  # each vertex's index in its class
    start = np.where(negative, p * p + q * loc, p * loc)  # its row in the buffer
    buf = np.zeros(p * p + q * q)
    buf[start.take(i) + loc.take(j)] = buf[start.take(j) + loc.take(i)] = -w
    ends = np.bincount(np.column_stack((i, j)).ravel(), np.repeat(w, 2), g.n)
    buf[start + loc] = ends + -tol * psi**2
    blocks = (buf[: p * p].reshape(p, p).T, buf[p * p :].reshape(q, q).T)
    return sum(_count_nonpositive(B) for B in blocks if len(B))


def sign_preserving_graph(g: WeightedGraph, pert: EdgePerturbation) -> WeightedGraph:
    """The graph with sign-change edges removed and their weight folded into
    the diagonal as the self loops pert.half_weights, added in edge order.
    Its Laplacian equals the flow matrix at sigma = 1."""
    i, j, _ = g.edge_arrays
    cut = np.isin(i * g.n + j, pert.i * g.n + pert.j)
    diag = np.array(g.diag_extra)
    np.add.at(diag, np.column_stack((pert.i, pert.j)), np.column_stack(pert.half_weights))
    return WeightedGraph(g.n, tuple(g.edges[e] for e in np.flatnonzero(~cut)), tuple(diag))


def nodal_count_direct(
    g: WeightedGraph, sel: EigenSelection, *, allow_degenerate: bool = False
) -> int:
    """nu(psi) = multiplicity of lambda_k in spec(L + P), no sweep needed.

    Counted by inertia on the ground-state Laplacian (limit_multiplicity):
    one factorization per sign class, no eigensolve, no EdgePerturbation.
    The deficiency is sel.k - nu, the nodal deficiency when lambda_k is
    simple; a degenerate lambda_k is counted only with allow_degenerate
    (EigenSelection.check_assumptions).
    """
    sel.check_assumptions(allow_degenerate)
    return limit_multiplicity(g, sel)


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
    multiplicity there. The certificate (count_identity_ok,
    EigenSelection.certify) asks for the branch count identity converged +
    crossings = k, crossings being those of the branches that start below
    lambda_k, and for the flow's ends, read off the grid values: exactly
    k - 1 eigenvalues below lambda_k - tol at sigma = 0 and none at
    sigma = 1 (tol its group tolerance), so a flow that stops short of the
    sigma = 1 matrix fails it. ``threads`` is accepted and ignored: every
    sigma is solved in the calling thread. The grid is ``steps`` >= 2 evenly
    spaced points on [0, 1].
    """
    check_steps(steps)
    warnings = sel.check_assumptions(allow_degenerate)
    pert = build_perturbation(g, sel)
    fr = track_branches(
        lambda s: flow_matrix(pert, s), np.linspace(0.0, 1.0, steps), sel.lambda_k
    )
    nu = fr.converged_count
    below = fr.branch_values < sel.lambda_k - group_tolerance(sel.lambda_k)
    at_0, at_1 = int(np.sum(below[:, 0])), int(np.sum(below[:, -1]))
    identity_ok = nu + len(fr.crossings) == sel.k and at_0 == sel.k - 1 and at_1 == 0
    warnings += sel.certify(
        identity_ok,
        f"edge certificate failed: converged {nu} + crossings {len(fr.crossings)}"
        f" vs k {sel.k}, below lambda_k {at_0} at sigma=0 vs k - 1 = {sel.k - 1}"
        f" and {at_1} at sigma=1 vs 0",
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
        w, q_ij, q_ji = pert.w, pert.q_ij, pert.q_ji
        return float(np.sum(w * (np.sqrt(q_ji) * u[pert.i] + np.sqrt(q_ij) * u[pert.j]) ** 2))

    return derivative_residual(lambda s: flow_matrix(pert, s), sigma, u, closed_form)
