"""Dense symmetric eigendecomposition and eigenvalue branch tracking.

Branches of a non-decreasing one-parameter matrix family sigma -> M(sigma)
are followed across a grid by maximum-weight bipartite matching on
eigenvector overlaps. Intervals where the best matching is ambiguous
(overlap below ``OVERLAP_MIN``) or not monotone are bisected adaptively down
to a minimum step; degenerate eigenvalue clusters are matched as whole
subspaces and re-aligned by orthogonal Procrustes so branch vectors stay
continuous through them. Crossings of a reference value are bracketed by
bisection on the number of eigenvalues at or below it, which needs no
eigenvectors. Branch labels do not depend on which basis of a degenerate
eigenspace the solver returns.

Every step's assignment is solved in the package (linear_sum_assignment),
so no command loads scipy.optimize. The solver starts from the overlaps'
row maxima and searches only from rows whose maxima share a column.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, cmp_to_key

import numpy as np
import scipy.linalg

from .errors import DegenerateEigenvalue, EigFailure
from .graph_core import LaplacianMatrix, freeze_arrays

# Relative tolerance for clustering eigenvalues into multiplicity groups.
GROUP_TOL_REL = 1e-8
# Minimum eigenvector overlap for an unambiguous branch match.
OVERLAP_MIN = 0.5
# Relative margin above the reference value of the threshold t whose upward
# passages are the crossings (keeps branches that only reach it out).
COUNT_TOL_REL = 1e-12
# Width in sigma to which every crossing bracket is narrowed by bisection.
BRACKET_WIDTH = 1e-6
# Step of the central differences that check closed-form branch slopes.
FD_STEP = 1e-5
# Entries smaller than this are skipped by the sign-normalization convention.
SIGN_TOL = 1e-12


def group_tolerance(value):
    """GROUP_TOL_REL * max(1, |value|): the gap within which two eigenvalues
    near value belong to one multiplicity group. Works elementwise on
    arrays."""
    return GROUP_TOL_REL * np.maximum(1.0, np.abs(value))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending and orthonormal eigenvector columns.

    ``groups``, the indices clustered into multiplicity groups, is computed
    on first read, so solves whose groups nobody reads never cluster."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "eigenvalues", "eigenvectors")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return _cluster(self.eigenvalues)

    def group_of(self, index: int) -> tuple[int, ...]:
        """The group holding index, by bisection on the groups' first indices."""
        if not 0 <= index < self.n:
            raise IndexError(index)
        return self.groups[bisect_right(self.groups, index, key=lambda g: g[0]) - 1]


def _as_matrix(M) -> np.ndarray:
    if isinstance(M, LaplacianMatrix):
        return M.matrix
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    if np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return A


def _sign_normalize(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry larger than SIGN_TOL in absolute
    value is positive."""
    first = np.argmax(np.abs(vecs) > SIGN_TOL, axis=0)
    lead = vecs[first, np.arange(vecs.shape[1])]
    return np.where(lead < -SIGN_TOL, -vecs, vecs)


def _cluster(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Runs of ascending vals in which each value is within the group
    tolerance of the one before it."""
    cuts = np.flatnonzero(np.diff(vals) > group_tolerance(vals[1:])) + 1
    return tuple(tuple(range(i, j)) for i, j in zip([0, *cuts], [*cuts, len(vals)]))


def eigendecompose(M, *, vectors: bool = True, driver: str | None = None) -> Spectrum:
    """Eigendecomposition of a dense symmetric matrix.

    Eigenvalues come back ascending; eigenvectors are orthonormal columns
    with a deterministic sign convention. With ``vectors=False`` only the
    eigenvalues are computed, several times faster, and eigenvectors is an
    n x 0 array: for callers that read only values (counts, multiplicities).

    ``driver`` goes to ``scipy.linalg.eigh`` (None: its default, ``evr``).
    track_branches passes ``"evd"`` (divide and conquer, several times
    faster with eigenvectors), which can return another basis of a
    degenerate eigenspace; callers that read one vector of such a space
    keep the default.
    """
    A = _as_matrix(M)
    try:
        out = scipy.linalg.eigh(A, eigvals_only=not vectors, driver=driver)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailure(str(exc)) from exc
    if not vectors:
        return Spectrum(out, np.empty((len(out), 0)))
    vals, vecs = out
    return Spectrum(vals, _sign_normalize(vecs))


def _count_below(A: np.ndarray, t: float) -> int:
    """Number of eigenvalues of the symmetric A at or below t: those of
    A - tI at or below 0, counted by _count_nonpositive on a Fortran-order
    copy of A shifted by t, so A itself is left as it is. Every count of a
    flow's matrix at a bisection point goes through it."""
    n = len(A)
    shifted = np.array(A, dtype=float, order="F")
    shifted.flat[:: n + 1] -= t
    return _count_nonpositive(shifted)


def _count_nonpositive(A: np.ndarray) -> int:
    """Number of eigenvalues of the symmetric A at or below 0, by Sylvester's
    law of inertia: the nonpositive eigenvalues of D in A = L D L^T, the
    Bunch-Kaufman factorization LAPACK dsytrf writes over A itself, with no
    eigensolve and no copy. A must be a Fortran-order float array that the
    caller owns, as it is overwritten; every count is read here but the
    vertex flow's (vertex_flow.ghost_schur_count), which solves the values
    of a reduced matrix or of the ghost Schur complement. A 1 x 1 pivot
    counts by its sign, an exact zero one as a zero eigenvalue; a 2 x 2
    pivot is indefinite by the pivoting rule, so it holds exactly one
    negative eigenvalue."""
    # A workspace of 64 columns lets dsytrf factor in blocks, not by columns.
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lwork=64 * len(A), overwrite_a=1)
    one = ipiv > 0  # the two rows of a 2 x 2 pivot hold negative ipiv
    return int(np.count_nonzero(np.diagonal(ldu)[one] <= 0) + np.count_nonzero(~one) // 2)


@dataclass(frozen=True)
class BranchCrossing:
    """One upward crossing of the reference value by a branch that starts
    below it, bracketed in sigma by a cell across which the number of
    eigenvalues at or below the reference falls."""

    branch: int
    sigma_lo: float
    sigma_hi: float


@dataclass(frozen=True)
class FlowResult:
    """Tracked eigenvalue branches of a matrix family over a sigma grid.

    branch_values[b, t] is branch b at sigma_grid[t]. The branch index b
    is the eigenvalue position at the first grid point; the positions of a
    degenerate cluster there go to its branches in the order of their value
    paths, compared at the first grid point where two differ by more than
    the group tolerance. start_vectors[:, b] is branch b's eigenvector at
    the first grid point, with degenerate clusters rotated into alignment
    with where their branches go.
    """

    sigma_grid: np.ndarray
    branch_values: np.ndarray
    start_vectors: np.ndarray
    reference_value: float
    crossings: tuple[BranchCrossing, ...]
    converged_count: int
    refinement_exhausted: bool = False
    branch_origins: tuple[str, ...] | None = None
    warnings: tuple[str, ...] = ()
    count_identity_ok: bool | None = None

    def __post_init__(self):
        freeze_arrays(self, "sigma_grid", "branch_values", "start_vectors")

    @property
    def n_branches(self) -> int:
        return self.branch_values.shape[0]


class _Node:
    """Mutable per-grid-point record used while walking the grid: the
    spectrum and its eigenvectors as matching has rotated them, which are
    the spectrum's own read-only array until a rotation copies them."""

    __slots__ = ("sigma", "spec", "vecs")

    def __init__(self, sigma: float, spec: Spectrum):
        self.sigma = sigma
        self.spec = spec
        self.vecs = spec.eigenvectors


def _procrustes(Vb_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||Vb_block R - target||_F."""
    M = Vb_block.T @ target
    U, _, Vt = scipy.linalg.svd(M)
    return U @ Vt


def linear_sum_assignment(cost: np.ndarray):
    """The assignment of the rows of the square matrix ``cost`` to distinct
    columns with the least total cost, as (rows, cols) like
    scipy.optimize.linear_sum_assignment: rows is 0..n-1, cols[i] row i's.

    Shortest augmenting paths (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016; scipy's solver uses them too),
    warm-started: a row whose cheapest column is no other row's cheapest
    starts matched to it, with dual u = its minimum and v = 0, feasible for
    any real cost. Each other row is added by a Dijkstra search from it on
    the reduced costs cost - u - v, one step per scanned column, then the
    duals of the scanned rows and columns move and the path is flipped. So
    wherever the row minima lie in distinct columns, cols is exactly them
    (ties go to the first index, as in np.argmin), with no search.
    """
    n = len(cost)
    col4row = np.argmin(cost, axis=1)
    single = np.bincount(col4row, minlength=n)[col4row] == 1  # the one claim on its column
    u = np.where(single, cost[np.arange(n), col4row], 0.0)
    v = np.zeros(n)
    col4row[~single] = -1
    row4col = np.full(n, -1)
    row4col[col4row[single]] = np.flatnonzero(single)
    for cur in np.flatnonzero(~single):
        dist, path = np.full(n, np.inf), np.zeros(n, dtype=int)
        row_scanned, col_scanned = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        i, low = cur, 0.0
        while True:
            row_scanned[i] = True
            reach = low + cost[i] - u[i] - v
            closer = ~col_scanned & (reach < dist)
            dist[closer] = reach[closer]
            path[closer] = i
            open_dist = np.where(col_scanned, np.inf, dist)
            low = open_dist.min()
            ties = np.flatnonzero(open_dist == low)
            free = ties[row4col[ties] < 0]
            j = free[0] if free.size else ties[0]  # a free column ends the path
            col_scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        row_scanned[cur] = False
        u[cur] += low
        u[row_scanned] += low - dist[col4row[row_scanned]]
        v[col_scanned] -= low - dist[col_scanned]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n), col4row


def _match_step(a: _Node, b: _Node, first: bool):
    """Match branches between adjacent nodes.

    Returns (ok, perm). perm[i] is the column of b continuing column i of
    a: the maximum-weight assignment on the overlaps |a.vecs.T @ b.vecs|,
    by linear_sum_assignment. The solver starts from the row maxima and
    searches only from rows whose maxima share a column, so a step whose
    maxima are a permutation costs one pass over the overlaps.
    Degenerate clusters are compared as subspaces; equal-size full block
    maps get the arriving basis rotated into alignment. On success, b.vecs
    (and a.vecs when first) may be replaced by rotated copies.
    """
    O = np.abs(a.vecs.T @ b.vecs)
    rows, perm = linear_sum_assignment(-O)

    rotations = []  # (Hb, target matrix)
    checked_blocks = set()
    for i in rows[O[rows, perm] < OVERLAP_MIN]:
        Ga, Hb = a.spec.group_of(i), b.spec.group_of(perm[i])
        if len(Ga) == 1 and len(Hb) == 1:
            return False, perm
        if (Ga, Hb) in checked_blocks:
            continue
        checked_blocks.add((Ga, Hb))
        # perm is injective, so this is: Ga maps into Hb, or onto all of it.
        images = {int(perm[g]) for g in Ga}
        if not (images <= set(Hb) or set(Hb) <= images):
            return False, perm
        if scipy.linalg.svdvals(a.vecs[:, Ga].T @ b.vecs[:, Hb])[-1] < OVERLAP_MIN:
            return False, perm
        if len(Ga) == len(Hb):
            # Columns of the target ordered to match Hb's column order.
            rotations.append((Hb, a.vecs[:, sorted(Ga, key=lambda g: perm[g])]))

    if rotations:
        b.vecs = b.vecs.copy()
    for Hb, target in rotations:
        b.vecs[:, Hb] = b.vecs[:, Hb] @ _procrustes(b.vecs[:, Hb], target)

    if first:
        # The starting basis inside a degenerate cluster is solver-arbitrary;
        # align it retroactively with where the branches actually go.
        a.vecs = a.vecs.copy()
        for Ga in a.spec.groups:
            if len(Ga) > 1:
                R = _procrustes(a.vecs[:, Ga], b.vecs[:, perm[list(Ga)]])
                a.vecs[:, Ga] = a.vecs[:, Ga] @ R
    return True, perm


def _locate_branch(spec: Spectrum, v: np.ndarray) -> int:
    return int(np.argmax(np.abs(spec.eigenvectors.T @ v)))


def derivative_residual(family, sigma: float, u, closed_form) -> float:
    """Relative residual between the central-difference slope (step FD_STEP)
    at sigma of the branch of ``family`` whose eigenvector best matches u
    and ``closed_form(v)``, v being that branch's eigenvector at sigma.

    DegenerateEigenvalue is raised when the matched eigenvalue is not
    simple, since the branch slope is then undefined.
    """
    spec = eigendecompose(family(sigma))
    j = _locate_branch(spec, np.asarray(u, dtype=float))
    if len(spec.group_of(j)) != 1:
        raise DegenerateEigenvalue(
            f"eigenvalue {spec.eigenvalues[j]:.12g} at sigma={sigma:g} is degenerate"
        )
    v = spec.eigenvectors[:, j]

    def branch_value(s: float) -> float:
        sp = eigendecompose(family(s))
        return float(sp.eigenvalues[_locate_branch(sp, v)])

    fd = (branch_value(sigma + FD_STEP) - branch_value(sigma - FD_STEP)) / (2.0 * FD_STEP)
    pred = closed_form(v)
    return abs(fd - pred) / max(1.0, abs(fd), abs(pred))


def _path_order(u: np.ndarray, v: np.ndarray) -> int:
    """-1, 0 or 1 as the value path u is below, level with or above v at the
    first grid point where they differ by more than the group tolerance."""
    far = np.flatnonzero(np.abs(u - v) > group_tolerance(np.maximum(abs(u), abs(v))))
    return int(np.sign(u[far[0]] - v[far[0]])) if far.size else 0


def _falls(count, lo, hi, n_lo, n_hi, t):
    """Cells of width <= BRACKET_WIDTH, in sigma order, one per unit fall of
    the number of eigenvalues <= t over [lo, hi], found by bisecting on that
    count; n_lo and n_hi are the counts at the ends. Each midpoint reads
    count(mid, t) once: by default one factorization (see track_branches)."""
    if n_lo <= n_hi:
        return []
    if hi - lo <= BRACKET_WIDTH:
        return [(lo, hi)] * (n_lo - n_hi)
    mid = 0.5 * (lo + hi)
    n_mid = count(mid, t)
    return _falls(count, lo, mid, n_lo, n_mid, t) + _falls(count, mid, hi, n_mid, n_hi, t)


def track_branches(flow_matrix, sigma_grid, reference_value: float, *, count=None) -> FlowResult:
    """Track all eigenvalue branches of a non-decreasing family
    ``flow_matrix(sigma)`` over a grid.

    Parameters
    ----------
    flow_matrix : callable sigma -> LaplacianMatrix (or ndarray) whose
        eigenvalues do not decrease in sigma
    sigma_grid : finite, strictly increasing grid; refined adaptively where
        needed
    reference_value : lambda_k; converged_count counts the final branch
        values at or below it plus its group tolerance
    count : callable (sigma, t) -> the number of eigenvalues of
        flow_matrix(sigma) at or below t, which the crossing bisection
        reads; None factors flow_matrix(sigma) once by _count_below, with no
        eigensolve. A flow with its own exact count passes it (the vertex
        flow counts on its ghost Schur complement).

    A matched step where some branch value drops, or falls from above
    t = lambda_k + COUNT_TOL_REL * max(1, |lambda_k|, max |eigenvalue at the
    first point|) to <= t, is an unresolved avoided crossing (the
    eigenvectors exchanged across the step) and the interval is refined
    like a matching failure. In a step a -> b, the branches that go from
    <= t to > t are the risers. Since the family is monotone, the number
    of eigenvalues <= t falls by exactly one at each rise, so [a, b] is
    bisected on that count into one BRACKET_WIDTH cell per unit fall, and
    the cells go to the risers in the order of their linearly interpolated
    crossings of t (at the refinement floor, where a step may be accepted
    with a fall, the risers left without a cell are not recorded). Only
    branches that start below 2 lambda_k - t are recorded as crossings.

    The grid is walked once, one eigensolve with eigenvectors per point in
    the calling thread, by the ``evd`` driver; the bisection reads only
    ``count``, once per midpoint, which needs no eigenvectors. Degenerate
    clusters at the first point are labelled by value path (see
    FlowResult), so labels and crossings do not depend on the basis the
    solver returned.
    Refinement floors out at 1e-6 * max(min(1, span), sigma), so log-spaced
    grids stay refinable near the origin; an interval at the floor that
    still fails sets refinement_exhausted instead.
    """
    sigmas = [float(s) for s in sigma_grid]
    if len(sigmas) < 2 or not (np.isfinite(sigmas).all() and (np.diff(sigmas) > 0).all()):
        raise ValueError("sigma grid must be finite and strictly increasing with >= 2 points")
    span = sigmas[-1] - sigmas[0]
    if count is None:
        def count(sigma: float, t: float) -> int:
            return _count_below(_as_matrix(flow_matrix(sigma)), t)

    def evaluate(sigma: float) -> _Node:
        return _Node(sigma, eigendecompose(flow_matrix(sigma), driver="evd"))

    nodes = map(evaluate, sigmas)
    a = next(nodes)
    start_vals = a.spec.eigenvalues
    start_groups = [g for g in a.spec.groups if len(g) > 1]
    t = reference_value + COUNT_TOL_REL * max(
        1.0, abs(reference_value), float(np.max(np.abs(start_vals)))
    )
    grid, values, crossings = [a.sigma], [start_vals], []
    below = start_vals < 2 * reference_value - t  # branches whose crossings count
    cols = np.arange(len(start_vals))
    pending: list[_Node] = []  # refinement midpoints, nearest to a on top
    start_vectors = None
    refinement_exhausted = False
    while (b := pending.pop() if pending else next(nodes, None)) is not None:
        ok, perm = _match_step(a, b, start_vectors is None)
        va, vb = values[-1], b.spec.eigenvalues[perm[cols]]  # per branch, at a and at b
        if ok:
            scale = max(1.0, abs(reference_value), float(np.max(np.abs(va))))
            ok = float(np.min(vb - va)) >= -1e-11 * scale and not np.any((va > t) & (vb <= t))
        floor = 1e-6 * max(min(1.0, span), abs(a.sigma))
        if not ok and (b.sigma - a.sigma) > 2 * floor:
            pending += [b, evaluate(0.5 * (a.sigma + b.sigma))]
            continue
        refinement_exhausted |= not ok
        if start_vectors is None:
            start_vectors = a.vecs
        risers = np.flatnonzero((va <= t) & (vb > t))
        at = (t - va[risers]) / (vb[risers] - va[risers])
        cells = _falls(count, a.sigma, b.sigma, np.sum(va <= t), np.sum(vb <= t), t)
        for br, (lo, hi) in zip(risers[np.argsort(at, kind="stable")], cells):
            if below[br]:
                crossings.append(BranchCrossing(int(br), float(lo), float(hi)))
        cols = perm[cols]
        grid.append(b.sigma)
        values.append(vb)
        a = b

    branch_values = np.stack(values, axis=1)
    # Which branch of a degenerate start cluster gets which label depends on
    # the basis the solver returned; order each cluster by value path.
    by_path = cmp_to_key(lambda b, c: _path_order(branch_values[b], branch_values[c]))
    order = np.arange(len(branch_values))
    for g in start_groups:
        order[list(g)] = sorted(g, key=by_path)
    label = np.argsort(order)
    branch_values, start_vectors = branch_values[order], start_vectors[:, order]
    crossings = [BranchCrossing(int(label[c.branch]), c.sigma_lo, c.sigma_hi) for c in crossings]
    top = reference_value + group_tolerance(reference_value)
    converged = int(np.sum(branch_values[:, -1] <= top))

    return FlowResult(
        sigma_grid=np.array(grid),
        branch_values=branch_values,
        start_vectors=start_vectors,
        reference_value=float(reference_value),
        crossings=tuple(sorted(crossings, key=lambda c: (c.branch, c.sigma_lo))),
        converged_count=converged,
        refinement_exhausted=refinement_exhausted,
    )
