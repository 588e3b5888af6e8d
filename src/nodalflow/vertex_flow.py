"""Vertex-based spectral flow on the eigenvector subdivision graph.

Every sign-change edge (i, j) is subdivided by a ghost vertex; edge weights
are reorganized as a function of sigma so that the bilinear form

    B_sigma(u, v) = <u, L_sub(sigma) v> + sigma * <u, v>_ghosts

has the extended eigenvector as a sigma-independent eigenvector at lambda_k.
Ghost vertices are appended after the base vertices in ascending
lexicographic order of their edges, which keeps every matrix and output
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import d_connected_components, dirichlet_problem
from .errors import NotAComponent
from .graph_core import Edge, LaplacianMatrix, WeightedGraph, freeze_arrays, laplacian
from .nodal import EigenSelection, sign_change_edges
from .spectra import (
    FD_STEP,
    FlowResult,
    derivative_residual,
    eigendecompose,
    group_tolerance,
    multiplicity_of,
    track_branches,
)


@dataclass(frozen=True)
class SubdivisionGraph:
    """Base graph plus one ghost vertex per sign-change edge.

    sign_edges[p] = (i, j, w) gets ghost vertex n_base + p; q[p] holds
    (q_ij, q_ji) with q_ij = -psi_i / psi_j. kept_edges are the other base
    edges; ghost_edges are the half-edges (i, ghost, w (1 + q_ji)) and
    (j, ghost, w (1 + q_ij)) at full weight. The flow matrix is a fixed
    combination of three Laplacians on all n_total vertices: ``kept``
    (kept edges plus the base diagonal), ``cut`` (sign-change edges) and
    ``ghost`` (ghost half-edges).
    """

    base: WeightedGraph
    sign_edges: tuple[Edge, ...]
    q: tuple[tuple[float, float], ...]
    kept_edges: tuple[Edge, ...]
    ghost_edges: tuple[Edge, ...]
    kept: np.ndarray
    cut: np.ndarray
    ghost: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "kept", "cut", "ghost")

    @property
    def n_base(self) -> int:
        return self.base.n

    @property
    def n_ghost(self) -> int:
        return len(self.sign_edges)

    @property
    def n_total(self) -> int:
        return self.base.n + len(self.sign_edges)

    @property
    def diag_extra(self) -> tuple[float, ...]:
        return tuple(self.base.diag_extra) + (0.0,) * self.n_ghost

    def ghost_index(self, position: int) -> int:
        return self.base.n + position


def subdivide(g: WeightedGraph, sel: EigenSelection) -> SubdivisionGraph:
    """Build the subdivision of g along sel.psi's sign-change edges."""
    psi = sel.psi
    edges = sign_change_edges(g, psi)
    q = tuple((float(-psi[i] / psi[j]), float(-psi[j] / psi[i])) for i, j, _ in edges)
    pm = {(i, j) for i, j, _ in edges}
    kept_edges = tuple(e for e in g.edges if (e[0], e[1]) not in pm)
    ghost_edges = []
    for p, ((i, j, w), (q_ij, q_ji)) in enumerate(zip(edges, q)):
        ghost_edges.append((i, g.n + p, w * (1.0 + q_ji)))
        ghost_edges.append((j, g.n + p, w * (1.0 + q_ij)))
    n_total = g.n + len(edges)
    diag = tuple(g.diag_extra) + (0.0,) * len(edges)
    return SubdivisionGraph(
        base=g,
        sign_edges=edges,
        q=q,
        kept_edges=kept_edges,
        ghost_edges=tuple(ghost_edges),
        kept=laplacian(WeightedGraph(n_total, kept_edges, diag)).matrix,
        cut=laplacian(WeightedGraph(n_total, edges)).matrix,
        ghost=laplacian(WeightedGraph(n_total, tuple(ghost_edges))).matrix,
    )


def graph_at(sg: SubdivisionGraph, sigma: float) -> WeightedGraph:
    """The weighted subdivision graph at flow parameter sigma >= 0.

    Sign-change edges keep weight w / (1 + sigma); their ghost half-edges
    carry sigma / (1 + sigma) of their full weight. At sigma = 0 the ghost
    edges vanish (zero weight means absence) and the base graph is
    recovered on the first n_base vertices.
    """
    if sigma < 0:
        raise ValueError(f"sigma={sigma} must be nonnegative")
    s = sigma / (1.0 + sigma)
    edges = sg.kept_edges + tuple((i, j, w / (1.0 + sigma)) for i, j, w in sg.sign_edges)
    if s > 0:
        edges += tuple((i, gh, s * w) for i, gh, w in sg.ghost_edges)
    return WeightedGraph(sg.n_total, edges, sg.diag_extra)


def limit_graph(sg: SubdivisionGraph) -> WeightedGraph:
    """The sigma -> infinity subdivision graph: sign-change edges are gone
    and the ghost half-edges carry their full weight w * (1 + q)."""
    return WeightedGraph(sg.n_total, sg.kept_edges + sg.ghost_edges, sg.diag_extra)


def bilinear_matrix(sg: SubdivisionGraph, sigma: float) -> LaplacianMatrix:
    """Matrix of B_sigma: kept + cut / (1 + sigma) + (sigma / (1 + sigma))
    ghost, plus sigma on the ghost diagonal. This is the Laplacian of
    graph_at(sg, sigma) plus the ghost mass, PSD for every sigma >= 0."""
    if sigma < 0:
        raise ValueError(f"sigma={sigma} must be nonnegative")
    M = sg.kept + sg.cut / (1.0 + sigma)
    M += (sigma / (1.0 + sigma)) * sg.ghost
    ghosts = np.arange(sg.n_base, sg.n_total)
    M[ghosts, ghosts] += sigma
    return LaplacianMatrix(M)


def extension_coefficients(sg: SubdivisionGraph) -> tuple[tuple[float, float], ...]:
    """(a_ij, a_ji) per sign-change edge with a_ij = 1 / (1 + q_ij); the
    pair sums to 1."""
    return tuple(
        (1.0 / (1.0 + q_ij), 1.0 / (1.0 + q_ji)) for q_ij, q_ji in sg.q
    )


def extend(sg: SubdivisionGraph, u: np.ndarray) -> np.ndarray:
    """Extend a base vector to the subdivision: ghost entry a_ij u_i +
    a_ji u_j. The selected eigenvector extends by zeros."""
    u = np.asarray(u, dtype=float)
    if u.shape != (sg.n_base,):
        raise ValueError(f"expected base vector of length {sg.n_base}")
    out = np.zeros(sg.n_total)
    out[: sg.n_base] = u
    coeffs = extension_coefficients(sg)
    for p, (i, j, _) in enumerate(sg.sign_edges):
        a_ij, a_ji = coeffs[p]
        out[sg.ghost_index(p)] = a_ij * u[i] + a_ji * u[j]
    return out


def restrict_eigenvector(
    sg: SubdivisionGraph, psi: np.ndarray, component
) -> np.ndarray:
    """Restrict a base eigenvector to one strong nodal domain, zero-extended
    over the rest of the subdivision (ghosts included).

    ``component`` must be one of the D-connected components of the base
    vertex set inside the sigma = infinity subdivision graph (these are
    exactly the strong nodal domains); otherwise NotAComponent is raised.
    The result satisfies the Dirichlet eigenvalue equation at psi's
    Rayleigh quotient on the component's interior rows.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (sg.n_base,):
        raise ValueError(f"expected base vector of length {sg.n_base}")
    comp = tuple(sorted(int(v) for v in component))
    lim = limit_graph(sg)
    comps = d_connected_components(lim, tuple(range(sg.n_base)))
    if comp not in comps:
        raise NotAComponent(f"{comp} is not a D-connected component")
    out = np.zeros(sg.n_total)
    idx = np.array(comp, dtype=int)
    out[idx] = psi[idx]
    return out


def _vertex_grid(sigma_max: float, steps: int) -> np.ndarray:
    return np.concatenate(
        [[0.0], np.logspace(-3.0, np.log10(sigma_max), steps)]
    )


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


def run_vertex_flow(
    g: WeightedGraph,
    sel: EigenSelection,
    *,
    sigma_max: float = 1e4,
    steps: int = 200,
    allow_degenerate: bool = False,
) -> FlowResult:
    """Track all branches of B_sigma from sigma = 0 toward the Dirichlet
    limit.

    The grid is [0] followed by ``steps`` log-spaced points on
    [1e-3, sigma_max], so sigma_max must be finite and > 1e-3. Branches
    never decrease and lambda_k is the lowest eigenvalue of the sigma =
    infinity Dirichlet problem, of multiplicity nu, so converged_count
    counts the branches still at or below lambda_k at sigma_max. The
    certificate (count_identity_ok, EigenSelection.certify) asks that it
    equal the exact Dirichlet multiplicity and that converged + crossings
    = k + n_ghost (the k lowest of L and one zero per ghost start at or
    below lambda_k, and each crosses it or converges to it); a sigma_max
    too small for the branches bound higher to pass lambda_k fails it.
    branch_origins labels every branch 'ghost' or 'spectrum'.
    """
    if not 1e-3 < sigma_max < np.inf:
        raise ValueError(f"sigma_max must be finite and > 1e-3, got {sigma_max}")
    warnings = sel.check_assumptions(allow_degenerate)
    sg = subdivide(g, sel)
    grid = _vertex_grid(sigma_max, steps)
    fr = track_branches(lambda s: bilinear_matrix(sg, s), grid, sel.lambda_k)
    dp = dirichlet_problem(limit_graph(sg), tuple(range(sg.n_base)))
    nu_d = multiplicity_of(eigendecompose(dp.matrix), sel.lambda_k)
    nu, total = fr.converged_count, fr.converged_count + len(fr.crossings)
    ok = nu == nu_d and total == sel.k + sg.n_ghost
    warnings += sel.certify(
        ok,
        f"vertex certificate failed: converged {nu} vs Dirichlet multiplicity {nu_d},"
        f" converged + crossings {total} vs k + ghosts {sel.k + sg.n_ghost}",
    )
    return replace(
        fr,
        branch_origins=_classify_origins(fr, sg.n_base),
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
    sg = subdivide(g, sel)
    B = bilinear_matrix(sg, sigma).matrix
    L = laplacian(g).matrix
    coeffs = extension_coefficients(sg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        ut, vt = extend(sg, u), extend(sg, v)
        lhs = float(ut @ B @ vt)
        rhs = float(u @ L @ v)
        for p, (i, j, w) in enumerate(sg.sign_edges):
            q_ij, q_ji = sg.q[p]
            a_ij, a_ji = coeffs[p]
            # <u, P_ij v> for the rank-1 block of the edge-based flow.
            pij = w * (q_ji * u[i] * v[i] + u[i] * v[j] + u[j] * v[i] + q_ij * u[j] * v[j])
            rhs += sigma * (a_ij * a_ji / w) * pij
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def derivative_identity_check(sg: SubdivisionGraph, sigma: float, u: np.ndarray) -> float:
    """Relative residual between the finite-difference branch slope at a
    simple eigenvalue and the closed-form derivative (sign-change edge sum
    plus ghost mass).

    u must be (close to) an eigenvector of B_sigma; DegenerateEigenvalue is
    raised when its eigenvalue is not simple there.
    """
    if sigma - FD_STEP < 0:
        raise ValueError(f"a central difference needs sigma >= {FD_STEP}")

    def closed_form(u: np.ndarray) -> float:
        s2 = (1.0 + sigma) ** 2
        pred = 0.0
        for p, (i, j, w) in enumerate(sg.sign_edges):
            q_ij, q_ji = sg.q[p]
            gh = sg.ghost_index(p)
            term = u[gh] + q_ji * u[gh] - q_ji * u[i] - u[j]
            pred += (w / s2) * q_ij * term * term
        return pred + float(np.sum(u[sg.n_base:] ** 2))

    return derivative_residual(lambda s: bilinear_matrix(sg, s), sigma, u, closed_form)
