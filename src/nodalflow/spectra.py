"""Dense symmetric eigendecomposition and eigenvalue branch tracking.

Branches of a non-decreasing one-parameter matrix family sigma -> M(sigma)
are followed across a grid by maximum-weight bipartite matching on
eigenvector overlaps. Intervals where the best matching is ambiguous
(overlap below ``OVERLAP_MIN``) or not monotone are bisected adaptively down
to a minimum step; degenerate eigenvalue clusters are matched as whole
subspaces and re-aligned by orthogonal Procrustes so branch vectors stay
continuous through them. Crossings of a reference value are bracketed by
bisection on the number of eigenvalues at or below it, which needs no
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

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


def group_tolerance(value: float) -> float:
    return GROUP_TOL_REL * max(1.0, abs(value))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending, orthonormal eigenvector columns, and indices
    clustered into multiplicity groups."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        freeze_arrays(self, "eigenvalues", "eigenvectors")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def group_of(self, index: int) -> tuple[int, ...]:
        for g in self.groups:
            if index in g:
                return g
        raise IndexError(index)


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
    groups = []
    cur = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= group_tolerance(vals[i]):
            cur.append(i)
        else:
            groups.append(tuple(cur))
            cur = [i]
    groups.append(tuple(cur))
    return tuple(groups)


def eigendecompose(M) -> Spectrum:
    """Full eigendecomposition of a dense symmetric matrix.

    Eigenvalues come back ascending; eigenvectors are orthonormal columns
    with a deterministic sign convention.
    """
    A = _as_matrix(M)
    try:
        vals, vecs = scipy.linalg.eigh(A)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailure(str(exc)) from exc
    vecs = _sign_normalize(vecs)
    return Spectrum(vals, vecs, _cluster(vals))


def multiplicity_of(spectrum: Spectrum, value: float) -> int:
    """Number of eigenvalues within the relative group tolerance of value."""
    return int(np.sum(np.abs(spectrum.eigenvalues - value) <= group_tolerance(value)))


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
    is the eigenvalue position at the first grid point, and
    start_vectors[:, b] is branch b's eigenvector there, with degenerate
    clusters rotated into alignment with where their branches go.
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
    """Mutable per-grid-point record used while walking the grid."""

    __slots__ = ("sigma", "vals", "vecs", "groups", "group_of")

    def __init__(self, sigma: float, spec: Spectrum):
        self.sigma = sigma
        self.vals = spec.eigenvalues
        self.vecs = spec.eigenvectors.copy()
        self.groups = spec.groups
        self.group_of = {i: g for g in spec.groups for i in g}


def _procrustes(Vb_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||Vb_block R - target||_F."""
    M = Vb_block.T @ target
    U, _, Vt = scipy.linalg.svd(M)
    return U @ Vt


def _match_step(a: _Node, b: _Node, first: bool):
    """Match branches between adjacent nodes.

    Returns (ok, perm). perm[i] is the column of b continuing column i of
    a. Degenerate clusters are compared as subspaces; equal-size full block
    maps get the arriving basis rotated into alignment. On success, b.vecs
    (and a.vecs when first) may be updated in place.
    """
    O = np.abs(a.vecs.T @ b.vecs)
    rows, cols = linear_sum_assignment(-O)
    perm = np.empty(len(rows), dtype=int)
    perm[rows] = cols

    rotations = []  # (Hb sorted tuple, target matrix)
    checked_blocks = set()
    for i in range(len(perm)):
        if O[i, perm[i]] >= OVERLAP_MIN:
            continue
        Ga = a.group_of[i]
        Hb = b.group_of[perm[i]]
        if len(Ga) == 1 and len(Hb) == 1:
            return False, perm
        key = (Ga, Hb)
        if key in checked_blocks:
            continue
        checked_blocks.add(key)
        images = {int(perm[g]) for g in Ga}
        if len(Ga) <= len(Hb):
            if not images <= set(Hb):
                return False, perm
        else:
            preimages = {g for g in Ga if perm[g] in set(Hb)}
            if len(preimages) < len(Hb):
                return False, perm
        A = a.vecs[:, list(Ga)].T @ b.vecs[:, list(Hb)]
        s = scipy.linalg.svdvals(A)
        k = min(len(Ga), len(Hb))
        if s[k - 1] < OVERLAP_MIN:
            return False, perm
        if len(Ga) == len(Hb) and images == set(Hb):
            # Columns of the target ordered to match Hb's column order.
            order = sorted(range(len(Ga)), key=lambda t: perm[Ga[t]])
            target = a.vecs[:, [Ga[t] for t in order]]
            rotations.append((tuple(sorted(Hb)), target))

    for Hb, target in rotations:
        cols_b = list(Hb)
        R = _procrustes(b.vecs[:, cols_b], target)
        b.vecs[:, cols_b] = b.vecs[:, cols_b] @ R

    if first:
        # The starting basis inside a degenerate cluster is solver-arbitrary;
        # align it retroactively with where the branches actually go.
        for Ga in a.groups:
            if len(Ga) == 1:
                continue
            cols_a = list(Ga)
            target = b.vecs[:, [int(perm[g]) for g in cols_a]]
            R = _procrustes(a.vecs[:, cols_a], target)
            a.vecs[:, cols_a] = a.vecs[:, cols_a] @ R
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


def _falls(flow, lo, hi, n_lo, n_hi, t):
    """Cells of width <= BRACKET_WIDTH, in sigma order, one per unit fall of
    the number of eigenvalues <= t over [lo, hi], found by bisecting on that
    count; n_lo and n_hi are the counts at the ends."""
    if n_lo <= n_hi:
        return []
    if hi - lo <= BRACKET_WIDTH:
        return [(lo, hi)] * (n_lo - n_hi)
    mid = 0.5 * (lo + hi)
    n_mid = int(np.sum(eigendecompose(flow(mid)).eigenvalues <= t))
    return _falls(flow, lo, mid, n_lo, n_mid, t) + _falls(flow, mid, hi, n_mid, n_hi, t)


def track_branches(flow_matrix, sigma_grid, reference_value: float) -> FlowResult:
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

    The grid is walked once, one eigensolve per point in the calling
    thread. Refinement floors out at 1e-6 * max(min(1, span), sigma), so
    log-spaced grids stay refinable near the origin; an interval at the
    floor that still fails sets refinement_exhausted instead.
    """
    sigmas = [float(s) for s in sigma_grid]
    if len(sigmas) < 2 or not (np.isfinite(sigmas).all() and (np.diff(sigmas) > 0).all()):
        raise ValueError("sigma grid must be finite and strictly increasing with >= 2 points")
    span = sigmas[-1] - sigmas[0]

    def evaluate(sigma: float) -> _Node:
        return _Node(sigma, eigendecompose(flow_matrix(sigma)))

    nodes = map(evaluate, sigmas)
    a = next(nodes)
    t = reference_value + COUNT_TOL_REL * max(
        1.0, abs(reference_value), float(np.max(np.abs(a.vals)))
    )
    grid, values, crossings = [a.sigma], [a.vals], []
    below = a.vals < 2 * reference_value - t  # branches whose crossings count
    cols = np.arange(len(a.vals))
    pending: list[_Node] = []  # refinement midpoints, nearest to a on top
    start_vectors = None
    refinement_exhausted = False
    while (b := pending.pop() if pending else next(nodes, None)) is not None:
        ok, perm = _match_step(a, b, start_vectors is None)
        va, vb = values[-1], b.vals[perm[cols]]  # per branch, at a and at b
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
        cells = _falls(flow_matrix, a.sigma, b.sigma, np.sum(va <= t), np.sum(vb <= t), t)
        for br, (lo, hi) in zip(risers[np.argsort(at, kind="stable")], cells):
            if below[br]:
                crossings.append(BranchCrossing(int(br), float(lo), float(hi)))
        cols = perm[cols]
        grid.append(b.sigma)
        values.append(vb)
        a = b

    branch_values = np.stack(values, axis=1)
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
