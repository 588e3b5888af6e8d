"""Vertex-based spectral flow on the eigenvector subdivision graph.

Every sign-change edge (i, j) is subdivided by a ghost vertex; edge weights
are reorganized as a function of sigma so that the bilinear form

    B_sigma(u, v) = <u, L_sub(sigma) v> + sigma * <u, v>_ghosts

has the extended eigenvector as a sigma-independent eigenvector at lambda_k.
Its matrix is the edge flow's L + s P, s = sigma / (1 + sigma), bordered by
one ghost row and column per sign-change edge, in the edge flow record's
order, which keeps every matrix and output bit-reproducible.

The crossing bisection counts the eigenvalues of B(sigma) at or below t on
a smaller matrix with psi deflated, and not on B(sigma) itself
(ghost_schur_count): the (|G| + mu)-square reduced matrix, mu sign-change
edges and G lambda_k's multiplicity group in L's spectrum, where that is
smaller than n, and otherwise the n x n ghost Schur complement over the
base vertices, the edge flow's matrix reweighted per edge. Where the
smaller matrix is not defined it counts B(sigma) by inertia, as
track_branches does. On the reduced matrix it also gives the bisection
seeds, the roots of one quadratic eigenproblem, so that a crossing costs
two counts.

Every function here reads the edge flow's record (EdgePerturbation) of the
sign-change edges as it is: edge p's ghost is vertex n + p, n =
len(pert.laplacian), and only graph_at and restrict_eigenvector, which build
or check graphs, also take the base graph.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np
from scipy.linalg import LinAlgError, eig

from .edge_flow import EdgePerturbation, build_perturbation, check_steps, flow_matrix
from .edge_flow import limit_multiplicity, sign_preserving_graph
from .errors import NotAComponent
from .graph_core import LaplacianMatrix, WeightedGraph, edge_matrix
from .graph_core import laplacian  # noqa: F401  (a binding perfbench/selftest.py traces)
from .nodal import EigenSelection, strong_domains_allowing_zeros
from .spectra import COUNT_TOL_REL, FD_STEP, FlowResult, _count_below, derivative_residual
from .spectra import Spectrum, eigendecompose, group_tolerance, track_branches


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma={sigma} must be nonnegative and finite")


def graph_at(g: WeightedGraph, pert: EdgePerturbation, sigma: float) -> WeightedGraph:
    """The subdivision of g along pert's edges, weighted at flow parameter
    sigma >= 0 finite.

    Sign-change edges keep weight w / (1 + sigma); their ghost half-edges
    carry sigma / (1 + sigma) of their full weight. At sigma = 0 the ghost
    edges vanish (zero weight means absence) and g is recovered on the
    first g.n vertices. Edge p's ghost is vertex g.n + p, with no diagonal.
    The edges come as g's edges off pert (sign_preserving_graph's), then
    pert's edges, then the ghost half-edges at the i ends, then at the j
    ends, each in pert's order.
    """
    _check_sigma(sigma)
    s, n_ghost = sigma / (1.0 + sigma), len(pert.w)
    ends = [(pert.i, pert.j, pert.w / (1.0 + sigma))]
    if s > 0:
        ghosts = g.n + np.arange(n_ghost)
        at_i, at_j = pert.half_weights
        ends += [(pert.i, ghosts, s * at_i), (pert.j, ghosts, s * at_j)]
    edges = tuple(e for i, j, w in ends for e in zip(i.tolist(), j.tolist(), w.tolist()))
    kept = sign_preserving_graph(g, pert).edges
    return WeightedGraph(g.n + n_ghost, kept + edges, tuple(g.diag_extra) + (0.0,) * n_ghost)


def bilinear_matrix(pert: EdgePerturbation, sigma: float) -> LaplacianMatrix:
    """Matrix of B_sigma, sigma >= 0 finite: [[L + s P, -s H], [-s H^T,
    s diag(h) + sigma I]] with s = sigma / (1 + sigma), H's column p the
    half-weights at i and j, and h its column sums. The base block is
    flow_matrix(pert, s), the ghost block diagonal. This is the Laplacian
    of graph_at(g, pert, sigma) plus the ghost mass, PSD for every sigma."""
    _check_sigma(sigma)
    s, n = sigma / (1.0 + sigma), len(pert.laplacian)
    at_i, at_j = pert.half_weights
    ghosts = n + np.arange(len(pert.w))
    M = np.zeros((n + len(pert.w),) * 2)
    M[:n, :n] = flow_matrix(pert, s).matrix
    M[pert.i, ghosts] = M[ghosts, pert.i] = -s * at_i
    M[pert.j, ghosts] = M[ghosts, pert.j] = -s * at_j
    M[ghosts, ghosts] = s * (at_i + at_j) + sigma
    return LaplacianMatrix(M)


def ghost_schur_count(pert: EdgePerturbation, psi: np.ndarray):
    """count(sigma, t): the number of eigenvalues of B(sigma) at or below
    t > lambda_k, psi being the selected eigenvector, for track_branches'
    crossing bisection. Off its fallback, every count is one values-only
    eigensolve of the smaller of two matrices, chosen by their sizes alone.

    B(sigma) - t has the diagonal ghost block with entries d = s c^2 + sigma
    - t, c^2 = h_i + h_j, so by Haynsworth's inertia additivity the count is
    #{d < 0} plus the count of eigenvalues <= 0 of the n x n Schur complement
    S = L + s P - t I - s^2 H diag(1/d) H^T on the n base vertices (notation of
    bilinear_matrix). As H = C diag(c) and P = C C^T (EdgePerturbation), S is
    the edge flow's matrix reweighted per edge, L + C diag(omega) C^T - t I
    with omega = s (sigma - t) / d: one edge_matrix call added to L, whose
    norm stays bounded as sigma grows, unlike B's. Extended by zeros, psi is
    an eigenvector of B(sigma) at lambda_k, so S psi = (lambda_k - t) psi
    exactly, a rounding error away from zero: it is deflated by adding
    (1 + |t|) psi psi^T / |psi|^2, which lifts it above zero, and counted as
    1. Where some |d| is within COUNT_TOL_REL * max(1, |t|, sigma) of zero the
    split is not trusted and B(sigma) itself is counted by inertia
    (_count_below).

    Where |G| + mu < n, mu the number of sign-change edges and G lambda_k's
    multiplicity group in L's spectrum (read after one solve of L with
    vectors, made only where mu + 1 < n), the count solves the reduced
    matrix M(sigma, t) of size |G| + mu instead (_reduced_count); the S
    count above runs everywhere else. The count's attribute seeds is, on
    the reduced path, the callable t -> the sigmas where M(sigma, t) is
    singular (_pencil_roots), for track_branches' seeds, and None on the S
    path.
    """
    n, mu = len(pert.laplacian), len(pert.w)
    psi = np.asarray(psi, dtype=float)
    if mu + 1 < n:  # |G| >= 1, so M can be the smaller only here
        spectrum = eigendecompose(pert.laplacian)
        group = spectrum.group_of(int(np.argmax(np.abs(spectrum.eigenvectors.T @ psi))))
        if len(group) + mu < n:
            return _reduced_count(pert, psi, spectrum, group)
    c2 = np.add(*pert.half_weights)
    unit_psi = np.outer(psi, psi) / (psi @ psi)

    def count(sigma: float, t: float) -> int:
        s = sigma / (1.0 + sigma)
        d = s * c2 + sigma - t
        if np.any(np.abs(d) <= COUNT_TOL_REL * max(1.0, abs(t), sigma)):
            return _count_below(bilinear_matrix(pert, sigma).matrix, t)
        ww = s * (sigma - t) / d * pert.w
        S = pert.laplacian + (1.0 + abs(t)) * unit_psi
        S += edge_matrix(n, pert.i, pert.j, ww, ww * pert.q_ji, ww * pert.q_ij, -t)
        below = np.sum(eigendecompose(S, vectors=False).eigenvalues <= 0.0)
        return int(np.sum(d < 0) + below) + 1

    count.seeds = None
    return count


def _reduced_count(
    pert: EdgePerturbation, psi: np.ndarray, spectrum: Spectrum, group: tuple[int, ...]
):
    """ghost_schur_count's count on the reduced matrix M, from L's spectrum
    L = Q Lambda Q^T and lambda_k's multiplicity group G in it.

    B(sigma) - t is the Schur complement of the block -I/s in the bordered
    matrix [[L - t, 0, C], [0, (sigma - t) I, -diag(c)], [C^T, -diag(c),
    -I/s]] (rows: base, ghosts, edges); eliminating (sigma - t) I there
    instead leaves N = [[L - t, C], [C^T, -diag(1/omega)]], the bordered
    form of S, with 1/omega_p = 1 + 1/sigma + c_p^2 / (sigma - t). So by
    Haynsworth, for sigma > 0 and sigma != t, B(sigma) has as many
    eigenvalues <= t as N has <= 0, less mu [sigma > t]; no d enters, and a
    ghost pivot d = 0 is just 1/omega_p = 0. In Q's basis, with Z = Q^T C,
    psi is deflated as in S within the G block, g = Q_G^T psi / |psi|
    (Q_F^T psi is a rounding error and is dropped; C^T psi = 0), and the
    diagonal block of the other positions F is eliminated too:

        count = 1 + #{lambda_F < t} + #{eigenvalues <= 0 of M} - mu [sigma > t]
        M = [[diag(lambda_G - t) + (1 + |t|) g g^T, Z_G], [Z_G^T, -K_F(t) - diag(1/omega)]]

    K_F(t) = Z_F^T diag(1 / (lambda_F - t)) Z_F, made exactly symmetric, and
    with it M less its sigma term diag(0, 1/omega), is built once per
    distinct t. At sigma = 0, within COUNT_TOL_REL * max(1, |t|, sigma) of
    sigma = t, and at a t within COUNT_TOL_REL * max(1, |t|) of some
    lambda_F, B(sigma) itself is counted by inertia (_count_below).

    count.seeds(t) is the ascending real roots sigma > 0 of det M(sigma, t)
    = 0 (_pencil_roots), where an eigenvalue of B(sigma) is t: computed on
    first read per t from the same sigma-free part, and empty where t is
    near some lambda_F.
    """
    lam, Q = spectrum.eigenvalues, spectrum.eigenvectors
    mu, G = len(pert.w), list(group)
    m = len(G)
    off_g = np.ones(len(lam), dtype=bool)
    off_g[G] = False
    lam_g, lam_f = lam[G], lam[off_g]
    root_w = np.sqrt(pert.w)
    Zt = (root_w * np.sqrt(pert.q_ji))[:, None] * Q[pert.i]  # Z^T = C^T Q, a row per edge
    Zt += (root_w * np.sqrt(pert.q_ij))[:, None] * Q[pert.j]
    zt_g, zt_f = Zt[:, G], Zt[:, off_g]
    g = Q[:, G].T @ psi / np.linalg.norm(psi)
    c2 = np.add(*pert.half_weights)
    on_g, on_edges = np.arange(m), np.arange(m, m + mu)  # M's diagonal, by block

    @cache  # once per distinct t
    def reduced_terms(t: float):
        """(M less its sigma term, #{lambda_F < t}), or None near some lambda_F."""
        if np.any(np.abs(lam_f - t) <= COUNT_TOL_REL * max(1.0, abs(t))):
            return None
        K = (zt_f / (lam_f - t)) @ zt_f.T
        M = np.empty((m + mu, m + mu))
        M[:m, :m] = (1.0 + abs(t)) * np.outer(g, g)
        M[on_g, on_g] += lam_g - t
        M[:m, m:] = zt_g.T
        M[m:, :m] = zt_g
        M[m:, m:] = -0.5 * (K + K.T)
        return M, int(np.sum(lam_f < t))

    def count(sigma: float, t: float) -> int:
        near_t = abs(sigma - t) <= COUNT_TOL_REL * max(1.0, abs(t), sigma)
        if sigma == 0.0 or near_t or reduced_terms(t) is None:
            return _count_below(bilinear_matrix(pert, sigma).matrix, t)
        M, below_f = reduced_terms(t)
        M = M.copy()
        M[on_edges, on_edges] -= 1.0 + 1.0 / sigma + c2 / (sigma - t)
        below = np.sum(eigendecompose(M, vectors=False).eigenvalues <= 0.0)
        return 1 + below_f + int(below) - mu * (sigma > t)

    @cache
    def seeds(t: float) -> np.ndarray:
        terms = reduced_terms(t)
        return np.empty(0) if terms is None else _pencil_roots(terms[0], m, c2, t)

    count.seeds = seeds
    return count


def _pencil_roots(M: np.ndarray, m: int, c2: np.ndarray, t: float) -> np.ndarray:
    """The real sigma > 0, ascending, where the reduced matrix M(sigma, t) =
    M - diag(0, 1/omega) of _reduced_count is singular, from M its part
    without sigma (its first m rows the G block): the crossings of t.

    Its edge rows times sigma (sigma - t) are quadratic in sigma, and the G
    rows do not depend on it, so det M(sigma, t) = 0 is the quadratic
    eigenproblem (sigma^2 A2 + sigma A1 + A0) v = 0 with, on the edge rows,
    A2 = M - I, A1 = -t M - diag(1 - t + c^2) and A0 = t I, and on the G
    rows A2 = A1 = 0 and A0 = M. Where |G| = 1 its edge block is sigma^2 (I
    + K) + sigma (diag(c^2) + (1 - t) I - t K) - t I, negated, with K =
    K_F(t). It is solved by one generalized eigensolve of its companion
    linearization, of size 2 (m + mu); the G rows add infinite eigenvalues.
    A root is kept where its imaginary part is within 1e-8 of its size.
    Where the eigensolve fails there are no roots, and every step bisects.
    """
    n = len(M)
    eye, edges = np.eye(n), slice(m, n)
    A2, A1, A0 = np.zeros((n, n)), np.zeros((n, n)), M.copy()
    A2[edges] = M[edges] - eye[edges]
    A1[edges] = -t * M[edges]
    A1[edges, edges] -= np.diag(1.0 - t + c2)
    A0[edges] = t * eye[edges]
    zero = np.zeros((n, n))
    try:
        roots = eig(
            np.block([[zero, eye], [-A0, -A1]]), np.block([[eye, zero], [zero, A2]]), right=False
        )
    except LinAlgError:  # QZ did not converge: no seeds, and the steps bisect
        return np.empty(0)
    roots = roots[np.isfinite(roots)]
    real = roots.real[(np.abs(roots.imag) <= 1e-8 * np.abs(roots)) & (roots.real > 0.0)]
    return np.sort(real)


def extension_coefficients(pert: EdgePerturbation) -> tuple[np.ndarray, np.ndarray]:
    """Arrays a_ij = 1 / (1 + q_ij) and a_ji = 1 / (1 + q_ji) over the
    sign-change edges, in edge order; a_ij + a_ji = 1 on every edge."""
    return 1.0 / (1.0 + pert.q_ij), 1.0 / (1.0 + pert.q_ji)


def extend(pert: EdgePerturbation, u: np.ndarray) -> np.ndarray:
    """Extend a base vector to the subdivision along pert's edges: ghost
    entry a_ij u_i + a_ji u_j. The selected eigenvector extends by zeros."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(pert.laplacian),):
        raise ValueError(f"expected base vector of length {len(pert.laplacian)}")
    a_ij, a_ji = extension_coefficients(pert)
    return np.concatenate((u, a_ij * u[pert.i] + a_ji * u[pert.j]))


def restrict_eigenvector(
    g: WeightedGraph, pert: EdgePerturbation, psi: np.ndarray, component
) -> np.ndarray:
    """Restrict a base eigenvector to one strong nodal domain, zero-extended
    over the rest of the subdivision of g along pert (ghosts included).

    ``component`` must be one of psi's strong nodal domains (the components
    of g minus pert's edges); otherwise NotAComponent is raised.
    The result satisfies the Dirichlet eigenvalue equation at psi's
    Rayleigh quotient on the component's interior rows.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (g.n,):
        raise ValueError(f"expected base vector of length {g.n}")
    comp = tuple(sorted(int(v) for v in component))
    if comp not in strong_domains_allowing_zeros(g, psi)[0]:
        raise NotAComponent(f"{comp} is not a D-connected component")
    out = np.zeros(g.n + len(pert.w))
    idx = np.array(comp, dtype=int)
    out[idx] = psi[idx]
    return out


def _classify_origins(fr: FlowResult, n_base: int) -> tuple[str, ...]:
    """Label each branch by where it started: 'ghost' for the zero-cluster
    branches that are not L's kernel, 'spectrum' otherwise.

    The sigma = 0 zero eigenspace is spanned by L's kernel plus one
    coordinate per ghost, and the analytic branch vectors mix these
    directions, so the kernel continuation is not readable from support
    alone. The kernel label goes to the cluster branch whose start vector
    best matches the constant vector on the base, chosen among the
    branches that end above the reference value plus its group tolerance:
    the limits that survive at lambda_k exist only because ghosts were
    inserted, so they are ghost-attributed."""
    start_vals = fr.branch_values[:, 0]
    tol0 = group_tolerance(0.0)
    zero_cluster = [b for b in range(fr.n_branches) if abs(start_vals[b]) <= tol0]
    top = fr.reference_value + group_tolerance(fr.reference_value)
    const = np.zeros(fr.start_vectors.shape[0])
    const[:n_base] = 1.0 / np.sqrt(n_base)
    origins = ["spectrum"] * fr.n_branches
    if zero_cluster:
        overlaps = {
            b: abs(float(fr.start_vectors[:, b] @ const)) for b in zero_cluster
        }
        pool = [b for b in zero_cluster if fr.branch_values[b, -1] > top] or zero_cluster
        kernel_branch = max(pool, key=lambda b: overlaps[b])
        for b in zero_cluster:
            if b != kernel_branch:
                origins[b] = "ghost"
    return tuple(origins)


# Where the vertex flow may end, in order (see run_vertex_flow).
SIGMA_ENDS = (1e4, 1e5, 1e6)


def run_vertex_flow(
    g: WeightedGraph,
    sel: EigenSelection,
    *,
    steps: int = 200,
    allow_degenerate: bool = False,
) -> FlowResult:
    """Track all branches of B_sigma from sigma = 0 toward the Dirichlet
    limit.

    The grid is [0] followed by ``steps`` >= 2 log-spaced points from 1e-3
    to the end (one point would stop the flow at 1e-3). Branches never
    decrease and lambda_k is the lowest eigenvalue of the sigma = infinity
    Dirichlet problem, of multiplicity nu_D (limit_multiplicity: L + P,
    where both flows end, counted by inertia on psi's ground-state
    Laplacians, one factorization per sign class and no eigensolve). The
    end is the first of SIGMA_ENDS where ghost_schur_count finds at most
    nu_D eigenvalues at or below lambda_k plus its group tolerance, else
    the last; converged_count counts the branches at or below lambda_k
    there. The certificate (count_identity_ok, EigenSelection.certify) asks
    that it equal nu_D and that converged + crossings = k + ghosts (the k
    lowest of L and one zero per ghost start at or below lambda_k, and each
    crosses it or converges to it); a branch bound higher but not past
    lambda_k at the last end fails it. branch_origins labels every branch
    'ghost' or 'spectrum'. The count that picks the end and the crossing
    bisection's are one ghost_schur_count, built once per flow: on the
    reduced matrix where that is smaller than n, after one solve of L, and
    else on the ghost Schur complement. On the reduced matrix its seeds go
    to track_branches too: the crossings of t, read once per flow at the
    first step with a fall, so the bisection counts only the two ends of
    each crossing cell wherever they hold every fall of a step.
    """
    check_steps(steps)
    warnings = sel.check_assumptions(allow_degenerate)
    pert = build_perturbation(g, sel)
    nu_d = limit_multiplicity(g, sel)
    count = ghost_schur_count(pert, sel.psi)
    top = sel.lambda_k + group_tolerance(sel.lambda_k)
    end = next((s for s in SIGMA_ENDS if count(s, top) <= nu_d), SIGMA_ENDS[-1])
    grid = np.concatenate([[0.0], np.logspace(-3.0, np.log10(end), steps)])
    fr = track_branches(
        lambda s: bilinear_matrix(pert, s), grid, sel.lambda_k, count=count, seeds=count.seeds
    )
    nu, total = fr.converged_count, fr.converged_count + len(fr.crossings)
    ok = nu == nu_d and total == sel.k + len(pert.w)
    warnings += sel.certify(
        ok,
        f"vertex certificate failed: converged {nu} vs Dirichlet multiplicity {nu_d},"
        f" converged + crossings {total} vs k + ghosts {sel.k + len(pert.w)}",
    )
    return replace(
        fr,
        branch_origins=_classify_origins(fr, g.n),
        warnings=fr.warnings + warnings,
        count_identity_ok=ok,
    )


def check_edge_equivalence(
    g: WeightedGraph,
    sel: EigenSelection,
    sigma: float,
    trials: int = 100,
    seed: int = 20240,
) -> float:
    """Compare B_sigma on extended vectors against <u, L v> plus the scaled
    edge-perturbation blocks, over random pairs (u, v).

    Returns the maximum deviation divided by max(1, |lhs|), directly
    comparable to the 1e-10 contract.
    """
    p = build_perturbation(g, sel)
    B = bilinear_matrix(p, sigma).matrix
    a_ij, a_ji = extension_coefficients(p)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        lhs = float(extend(p, u) @ B @ extend(p, v))
        ui, uj, vi, vj = u[p.i], u[p.j], v[p.i], v[p.j]
        # <u, P_ij v> for the rank-1 block of each sign-change edge.
        pij = p.w * (p.q_ji * ui * vi + ui * vj + uj * vi + p.q_ij * uj * vj)
        rhs = float(u @ p.laplacian @ v) + sigma * float(np.sum(a_ij * a_ji / p.w * pij))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def derivative_identity_check(pert: EdgePerturbation, sigma: float, u: np.ndarray) -> float:
    """Relative residual between the finite-difference branch slope at a
    simple eigenvalue and the closed-form derivative (sign-change edge sum
    plus ghost mass).

    u must be (close to) an eigenvector of B_sigma; DegenerateEigenvalue is
    raised when its eigenvalue is not simple there.
    """
    if sigma - FD_STEP < 0:
        raise ValueError(f"a central difference needs sigma >= {FD_STEP}")

    def closed_form(u: np.ndarray) -> float:
        gh = u[len(pert.laplacian):]
        term = gh + pert.q_ji * gh - pert.q_ji * u[pert.i] - u[pert.j]
        slope = (pert.w / (1.0 + sigma) ** 2) * pert.q_ij * term * term
        return float(np.sum(slope) + np.sum(gh**2))

    return derivative_residual(lambda s: bilinear_matrix(pert, s), sigma, u, closed_form)
