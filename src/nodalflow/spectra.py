"""Dense symmetric eigendecomposition and eigenvalue branch tracking.

Branches of a one-parameter matrix family sigma -> M(sigma) are followed
across a grid by maximum-weight bipartite matching on eigenvector overlaps.
Intervals where the best matching is ambiguous (overlap below ``OVERLAP_MIN``)
are bisected adaptively down to a minimum step; degenerate eigenvalue
clusters are matched as whole subspaces and re-aligned by orthogonal
Procrustes so branch vectors stay continuous through them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateEigenvalue, EigFailure
from .graph_core import LaplacianMatrix

# Relative tolerance for clustering eigenvalues into multiplicity groups.
GROUP_TOL_REL = 1e-8
# Minimum eigenvector overlap for an unambiguous branch match.
OVERLAP_MIN = 0.5
# Relative margin required on both sides of a reference value before a sign
# change counts as a crossing (keeps tangencies out).
CROSS_TOL_REL = 1e-7
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
        for name in ("eigenvalues", "eigenvectors"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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
    """One strict transversal crossing of the reference value, bracketed in
    sigma."""

    branch: int
    sigma_lo: float
    sigma_hi: float
    reference: float


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
        for name in ("sigma_grid", "branch_values", "start_vectors"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_branches(self) -> int:
        return self.branch_values.shape[0]


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get("NODALFLOW_THREADS", "0")
        try:
            threads = int(raw)
        except ValueError:
            threads = 1
    if threads == 0:
        threads = min(os.cpu_count() or 1, 8)
    return max(1, threads)


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


def _match_step(a: _Node, b: _Node, overlap_min: float, first: bool):
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
        if O[i, perm[i]] >= overlap_min:
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
        if s[k - 1] < overlap_min:
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

    # Sign-align the continuation for smooth branch vectors.
    for i in range(len(perm)):
        if a.vecs[:, i] @ b.vecs[:, perm[i]] < 0:
            b.vecs[:, perm[i]] = -b.vecs[:, perm[i]]
    return True, perm


def _locate_branch(spec: Spectrum, v: np.ndarray) -> int:
    return int(np.argmax(np.abs(spec.eigenvectors.T @ v)))


def derivative_residual(family, sigma: float, u, h: float, closed_form) -> float:
    """Relative residual between the central-difference slope at sigma of
    the branch of ``family`` whose eigenvector best matches u and
    ``closed_form(v)``, v being that branch's eigenvector at sigma.

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

    fd = (branch_value(sigma + h) - branch_value(sigma - h)) / (2.0 * h)
    pred = closed_form(v)
    return abs(fd - pred) / max(1.0, abs(fd), abs(pred))


def _bracket_crossing(flow, lo, hi, v_lo, sign_lo, reference, width):
    """Narrow a crossing bracket by bisection, following the branch by
    eigenvector continuation from the left end."""
    v = v_lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        spec = eigendecompose(flow(mid))
        j = _locate_branch(spec, v)
        d = spec.eigenvalues[j] - reference
        if d != 0.0 and (d > 0) != (sign_lo > 0):
            hi = mid
        else:
            lo = mid
            if d != 0.0:
                v = spec.eigenvectors[:, j]
    return lo, hi


def track_branches(
    flow_matrix,
    sigma_grid,
    reference_value: float,
    *,
    overlap_min: float = OVERLAP_MIN,
    converged_tol: float | None = None,
    bracket_width: float | None = None,
    threads: int | None = None,
    expect_monotone: bool = False,
) -> FlowResult:
    """Track all eigenvalue branches of ``flow_matrix(sigma)`` over a grid.

    Parameters
    ----------
    flow_matrix : callable sigma -> LaplacianMatrix (or ndarray)
    sigma_grid : strictly increasing grid; refined adaptively where needed
    reference_value : horizontal line whose crossings are detected
    overlap_min : minimum eigenvector overlap for an unambiguous match
    converged_tol : tolerance for counting branches at the reference value
        at the final sigma (default: relative group tolerance)
    bracket_width : when set, each crossing bracket is narrowed to this
        width by bisection
    threads : with more than one, a thread pool of this size solves grid
        points at most ``threads`` ahead of the walk (None reads
        NODALFLOW_THREADS; 0 means auto)
    expect_monotone : when the family is known non-decreasing, a matched
        step where some branch value drops is treated as an unresolved
        avoided crossing (the eigenvectors exchanged across the step) and
        the interval is refined like a matching failure

    The grid is walked once; a crossing is bracketed as soon as the walk
    passes it. Refinement floors out at 1e-6 * max(min(1, span), sigma),
    so log-spaced grids stay refinable near the origin; an interval at the
    floor that still fails sets refinement_exhausted instead.
    """
    sigmas = [float(s) for s in sigma_grid]
    if len(sigmas) < 2 or any(s1 >= s2 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigma grid must be strictly increasing with >= 2 points")
    span = sigmas[-1] - sigmas[0]
    nthreads = _resolve_threads(threads)

    def evaluate(sigma: float) -> _Node:
        return _Node(sigma, eigendecompose(flow_matrix(sigma)))

    def solved():
        if nthreads > 1 and len(sigmas) > 8:
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                for i in range(0, len(sigmas), nthreads):
                    yield from pool.map(evaluate, sigmas[i : i + nthreads])
        else:
            yield from map(evaluate, sigmas)

    nodes = solved()
    a = next(nodes)
    cross_tol = CROSS_TOL_REL * max(1.0, abs(reference_value))
    # Each branch's offset from the reference, sigma and vector at its last
    # point clear of the reference (offset 0 until it has one). Pairing clear
    # points brackets even a crossing that lands on a grid point.
    last_d = np.zeros(len(a.vals))
    last_sigma = np.empty(len(a.vals))
    last_vec = np.empty((len(a.vals), a.vecs.shape[0]))
    grid, values, crossings = [], [], []

    def record(node: _Node, cols: np.ndarray) -> None:
        grid.append(node.sigma)
        values.append(node.vals[cols])
        d = values[-1] - reference_value
        clear = np.abs(d) > cross_tol
        for br in np.flatnonzero(clear & (last_d * d < 0)):
            lo, hi = last_sigma[br], node.sigma
            if bracket_width is not None and hi - lo > bracket_width:
                lo, hi = _bracket_crossing(
                    flow_matrix, lo, hi, last_vec[br], np.sign(last_d[br]),
                    reference_value, bracket_width,
                )
            crossings.append(BranchCrossing(int(br), float(lo), float(hi), reference_value))
        last_d[clear] = d[clear]
        last_sigma[clear] = node.sigma
        last_vec[clear] = node.vecs[:, cols[clear]].T

    cols = np.arange(len(a.vals))
    pending: list[_Node] = []  # refinement midpoints, nearest to a on top
    start_vectors = None
    refinement_exhausted = False
    while (b := pending.pop() if pending else next(nodes, None)) is not None:
        first = start_vectors is None
        ok, perm = _match_step(a, b, overlap_min, first)
        if ok and expect_monotone:
            scale = max(1.0, abs(reference_value), float(np.max(np.abs(a.vals))))
            ok = float(np.min(b.vals[perm] - a.vals)) >= -1e-11 * scale
        floor = 1e-6 * max(min(1.0, span), abs(a.sigma))
        if not ok and (b.sigma - a.sigma) > 2 * floor:
            pending += [b, evaluate(0.5 * (a.sigma + b.sigma))]
            continue
        if not ok:
            refinement_exhausted = True
        if first:
            start_vectors = a.vecs
            record(a, cols)
        cols = perm[cols]
        record(b, cols)
        a = b

    branch_values = np.stack(values, axis=1)
    tol = converged_tol if converged_tol is not None else group_tolerance(reference_value)
    converged = int(np.sum(np.abs(branch_values[:, -1] - reference_value) <= tol))

    return FlowResult(
        sigma_grid=np.array(grid),
        branch_values=branch_values,
        start_vectors=start_vectors,
        reference_value=float(reference_value),
        crossings=tuple(sorted(crossings, key=lambda c: (c.branch, c.sigma_lo))),
        converged_count=converged,
        refinement_exhausted=refinement_exhausted,
    )
