"""Independent reference implementations used to cross-check the package.

Nothing here is shared with the package's code paths: nodal counts use
union-find over the raw edge list, components use scipy's sparse graph
search, eigenvalue counts use inertia instead of branch tracking (in double
precision, or at 40 digits with mpmath), and multiplicity groups use a plain
loop.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def count(self, members) -> int:
        return len({self.find(x) for x in members})


def flood_fill_nodal_count(n: int, edges, psi) -> int:
    """Strong nodal domain count by union-find over same-sign edges.

    Requires psi to be nowhere zero; vertices joined when they share an
    edge and a strict sign.
    """
    psi = np.asarray(psi, dtype=float)
    if np.any(psi == 0.0):
        raise ValueError("flood-fill oracle needs a nowhere-zero vector")
    uf = _UnionFind(n)
    for i, j, _w in edges:
        if psi[i] * psi[j] > 0:
            uf.union(i, j)
    return uf.count(range(n))


def flood_fill_weak_count(n: int, edges, psi) -> int:
    """Weak nodal domain count: vertices joined when psi_i * psi_j >= 0."""
    psi = np.asarray(psi, dtype=float)
    uf = _UnionFind(n)
    for i, j, _w in edges:
        if psi[i] * psi[j] >= 0:
            uf.union(i, j)
    return uf.count(range(n))


def components_by_csgraph(n: int, edges, vertices=None) -> tuple[tuple[int, ...], ...]:
    """graph_core.components as it was before it labelled the components
    itself: scipy's connected_components on a COO adjacency, for the graph
    on ``vertices`` (default: all of 0..n-1) joined by ``edges`` (tuples
    starting i, j), each sorted and ordered by smallest member. Edges must
    join listed vertices."""
    ij = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
    _, labels = _csgraph_components(adj, directed=False)
    comps: dict[int, list[int]] = {}
    for v in range(n) if vertices is None else sorted(vertices):
        comps.setdefault(int(labels[v]), []).append(int(v))
    return tuple(tuple(c) for c in comps.values())


def dense_laplacian(n: int, edges) -> np.ndarray:
    """L = D - A straight from the edge list."""
    L = np.zeros((n, n))
    for i, j, w in edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def erdos_renyi_by_pair(n: int, p: float, seed: int) -> tuple:
    """The edges of families.erdos_renyi(n, p, seed) drawn one pair at a
    time: each pair i < j, in ascending order, takes one uniform from a
    PCG64 generator with the given seed and is an edge of weight 1.0 when
    the uniform is below p."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return tuple(edges)


def chain_cluster(vals) -> tuple[tuple[int, ...], ...]:
    """Multiplicity groups of ascending vals by a loop: i joins the group of
    i - 1 when vals[i] - vals[i - 1] <= 1e-8 * max(1, |vals[i]|)."""
    groups, cur = [], [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= 1e-8 * max(1.0, abs(vals[i])):
            cur.append(i)
        else:
            groups.append(tuple(cur))
            cur = [i]
    groups.append(tuple(cur))
    return tuple(groups)


def count_below_by_ghost_schur(B, n_base: int, t: float) -> int:
    """Number of eigenvalues of the symmetric B below t, for a B whose block
    past the first n_base coordinates is diagonal (the vertex flow's ghosts).

    By Haynsworth's inertia additivity it is the number of negative entries
    of d = diag(ghost block) - t plus the number of negative eigenvalues of
    the Schur complement S = B_bb - t I - B_bg diag(1/d) B_gb, whose scale
    does not grow with the ghost diagonal but grows like 1 / |d| near a
    ghost pivot. eigvalsh's rounding grows with the scale of what it solves,
    so the count is read off S or off B - t I, whichever has the smaller
    largest entry.
    """
    B = np.asarray(B, dtype=float)
    d = np.diag(B)[n_base:] - t
    if not np.all(d):
        raise ValueError("t is a ghost diagonal entry")
    B_bg = B[:n_base, n_base:]
    S = B[:n_base, :n_base] - t * np.eye(n_base) - (B_bg / d) @ B_bg.T
    shifted = B - t * np.eye(len(B))
    if np.max(np.abs(S)) > np.max(np.abs(shifted)):
        return int(np.sum(np.linalg.eigvalsh(shifted) < 0))
    return int(np.sum(d < 0) + np.sum(np.linalg.eigvalsh(S) < 0))


def count_below_mp(M, t: float, dps: int = 40) -> int:
    """Number of eigenvalues of the symmetric float matrix M below t, read
    at dps digits off M as built: every entry and t are taken exactly, M - t I
    is formed at dps digits and reduced by symmetric Gaussian elimination
    without pivoting, and each pivot's sign is one eigenvalue's (Sylvester's
    law). Where a pivot is within 1e-30 of the largest entry of M - t I the
    rest of the elimination is not trusted: the remaining block, whose
    inertia completes the count (Haynsworth), is solved by mpmath's eigsy at
    the same precision."""
    M = np.asarray(M, dtype=float)
    n = len(M)
    with mpmath.workdps(dps):
        A = [[mpmath.mpf(x) for x in row] for row in M.tolist()]
        for r in range(n):
            A[r][r] -= mpmath.mpf(float(t))
        tiny = mpmath.mpf(10) ** -30 * max((abs(x) for row in A for x in row), default=0)
        below = 0
        for k in range(n):
            pivot = A[k][k]
            if abs(pivot) <= tiny:
                rest = mpmath.eigsy(mpmath.matrix([row[k:] for row in A[k:]]), eigvals_only=True)
                return below + sum(1 for r in range(rest.rows) if rest[r] < 0)
            below += pivot < 0
            for r in range(k + 1, n):
                f = A[r][k] / pivot
                for c in range(k + 1, n):
                    A[r][c] -= f * A[k][c]
        return below


def ghost_schur_by_scatter(pert, psi, sigma: float, t: float) -> np.ndarray:
    """The ghost Schur complement at (sigma, t) in the form
    vertex_flow.ghost_schur_count solved before it reweighted the edge
    flow's matrix (ghost_schur_by_reweighting), S = L + s P - t I
    - s^2 H diag(1/d) H^T with psi deflated, scattered by hand as the count
    built it before it called graph_core.edge_matrix: the off-diagonal
    term at (i, j), copied to (j, i), and the end terms summed per vertex
    in edge order, i before j."""
    from nodalflow.edge_flow import flow_matrix

    n = len(pert.laplacian)
    at_i, at_j = pert.half_weights
    psi = np.asarray(psi, dtype=float)
    unit_psi = np.outer(psi, psi) / (psi @ psi)
    ends = np.column_stack((pert.i, pert.j)).ravel()
    s = sigma / (1.0 + sigma)
    d = s * (at_i + at_j) + sigma - t
    c = s * s / d
    S = flow_matrix(pert, s).matrix + (1.0 + abs(t)) * unit_psi
    S[pert.i, pert.j] -= c * at_i * at_j
    S[pert.j, pert.i] = S[pert.i, pert.j]
    on_diag = np.column_stack((c * at_i * at_i, c * at_j * at_j)).ravel()
    S[np.diag_indices(n)] -= t + np.bincount(ends, on_diag, n)
    return S


def ghost_schur_by_reweighting(pert, psi, sigma: float, t: float) -> np.ndarray:
    """The matrix vertex_flow.ghost_schur_count(pert, psi) solves at
    (sigma, t) off its ghost-pivot fallback, built as the edge flow's matrix
    reweighted per edge, S = L + (1 + |t|) psi psi^T / |psi|^2 + E, by a loop
    over the edges: edge p, with s = sigma / (1 + sigma), half-weights
    h_i = w (1 + q_ji) and h_j = w (1 + q_ij), d = s (h_i + h_j) + sigma - t
    and omega = s (sigma - t) / d, puts omega w at (i, j) and (j, i) of E and
    adds omega w q_ji to i's and omega w q_ij to j's end sum, i's first; E's
    diagonal is each vertex's end sum less t."""
    n = len(pert.laplacian)
    psi = np.asarray(psi, dtype=float)
    s = sigma / (1.0 + sigma)
    E, ends = np.zeros((n, n)), [0.0] * n
    for i, j, w, q_ij, q_ji in zip(pert.i.tolist(), pert.j.tolist(), pert.w.tolist(),
                                   pert.q_ij.tolist(), pert.q_ji.tolist()):
        d = s * (w * (1.0 + q_ji) + w * (1.0 + q_ij)) + sigma - t
        ww = s * (sigma - t) / d * w
        E[i, j] = E[j, i] = ww
        ends[i] += ww * q_ji
        ends[j] += ww * q_ij
    E[np.diag_indices(n)] = [e + -t for e in ends]
    return pert.laplacian + (1.0 + abs(t)) * (np.outer(psi, psi) / (psi @ psi)) + E


def limit_graph(n: int, edges, psi, diag=()) -> tuple[int, tuple, tuple]:
    """The sigma -> infinity subdivision along psi's sign-change edges, as
    the arguments (vertex count, edges, diagonal) of a WeightedGraph.

    Each edge (i, j, w) with psi_i psi_j < 0 is deleted, and a ghost vertex,
    numbered from n in edge order, is joined to i with weight
    w (1 - psi_j / psi_i) and to j with weight w (1 - psi_i / psi_j). Edges
    and diag are those of the base graph (diag empty for none).
    """
    psi = np.asarray(psi, dtype=float)
    kept, ghost_edges = [], []
    for i, j, w in edges:
        if psi[i] * psi[j] < 0:
            ghost = n + len(ghost_edges) // 2
            ghost_edges += [(i, ghost, w * (1.0 - psi[j] / psi[i])),
                            (j, ghost, w * (1.0 - psi[i] / psi[j]))]
        else:
            kept.append((i, j, w))
    n_ghost = len(ghost_edges) // 2
    diag = tuple(float(d) for d in diag) or (0.0,) * n
    return n + n_ghost, tuple(kept) + tuple(ghost_edges), diag + (0.0,) * n_ghost


def sign_class_blocks(n: int, edges, psi, tol: float) -> list[np.ndarray]:
    """L_psi - tol D^2 of each non-empty sign class of psi, the positive
    class first, each assembled on its class alone by a loop over the
    edges in edge order: an edge (i, j, w) inside the class puts
    -w |psi_i psi_j| at (i, j) and (j, i) and adds w |psi_i psi_j| to both
    diagonal entries, i's first; then -tol psi_i^2 is added at each i."""
    psi = np.asarray(psi, dtype=float)
    blocks = []
    for members in (np.flatnonzero(psi > 0), np.flatnonzero(psi < 0)):
        if not len(members):
            continue
        index = {int(v): r for r, v in enumerate(members)}
        B, ends = np.zeros((len(members), len(members))), np.zeros(len(members))
        for i, j, w in edges:
            if i in index and j in index:
                a, b, x = index[i], index[j], w * abs(psi[i] * psi[j])
                B[a, b] = B[b, a] = -x
                ends[a] += x
                ends[b] += x
        B[np.diag_indices(len(members))] = ends + -tol * psi[members] ** 2
        blocks.append(B)
    return blocks


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def branch_table_csv_by_value(fr) -> str:
    """The branch table CSV with one format call per value: header
    sigma,branch_0,...; one row per grid point, every value printed by
    format(float(x), ".17g")."""
    B = fr.n_branches
    header = "sigma," + ",".join(f"branch_{b}" for b in range(B))
    rows = [header]
    for t, s in enumerate(fr.sigma_grid):
        vals = ",".join(_format_float(fr.branch_values[b, t]) for b in range(B))
        rows.append(f"{_format_float(s)},{vals}")
    return "\n".join(rows) + "\n"


def branch_chart_svg_by_value(fr, *, log_x: bool = False, title: str = "") -> str:
    """The branch chart SVG with every polyline point mapped by scalar
    closures and formatted one coordinate pair at a time. The frame, axes,
    y-range and palette are the package's own (nodalflow.svg), so a
    comparison with svg.branch_chart_svg checks the data mapping and point
    format; y_axis_unguarded checks the y-range."""
    from nodalflow.svg import (
        _H, _MB, _ML, _MR, _MT, _PALETTE, _W, _Canvas, _fmt, _frame, _ticks, _y_axis,
    )

    sigmas = np.asarray(fr.sigma_grid)
    values = np.asarray(fr.branch_values)
    if log_x:
        keep = sigmas > 0
        sigmas, values = sigmas[keep], values[:, keep]
        xs = np.log10(sigmas)
    else:
        xs = sigmas
    xlo, xhi = float(xs[0]), float(xs[-1])
    ylo, yhi, yticks = _y_axis(min(float(values.min()), fr.reference_value),
                               max(float(values.max()), fr.reference_value))

    def to_x(v):
        return _ML + (v - xlo) / (xhi - xlo or 1.0) * (_W - _ML - _MR)

    def to_y(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    canvas = _Canvas(title)
    xfmt = (lambda t: f"1e{t:.0f}") if log_x else _fmt
    _frame(canvas, _ticks(xlo, xhi), yticks, to_x, to_y,
           "log10(sigma)" if log_x else "sigma", "eigenvalue", xfmt=xfmt)

    ry = to_y(fr.reference_value)
    canvas.add(
        f'<line x1="{_ML}" y1="{ry:.2f}" x2="{_W - _MR}" y2="{ry:.2f}" '
        f'stroke="#d62728" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    for b in range(values.shape[0]):
        pts = " ".join(
            f"{to_x(x):.2f},{to_y(v):.2f}" for x, v in zip(xs, values[b])
        )
        color = _PALETTE[b % len(_PALETTE)]
        canvas.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
    return canvas.render()


def ticks_unguarded(lo: float, hi: float, count: int = 5, *, capped: bool = True) -> list[float]:
    """The chart's ticks by the 1-2-5 rule with no guard: ValueError where
    the step underflows (a zero step's logarithm, or no 1-2-5 multiple of
    its decade reaching it) or is lost in rounding at some tick, where the
    loop would never end. The ticks run up to hi plus 1e-12 |hi| or half a
    step, whichever is less; with capped=False up to hi plus 1e-12 |hi|
    alone, the rule before the cap, which on a near-flat range runs many
    range widths past hi."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    steps = [mult * mag for mult in (1, 2, 5, 10) if raw <= mult * mag]
    if not steps:
        raise ValueError("no 1-2-5 step reaches the range")
    step = steps[0]
    ticks, t = [], math.ceil(lo / step) * step
    slack = 1e-12 * abs(hi)
    while t <= hi + (min(slack, step / 2) if capped else slack):
        if t + step == t:
            raise ValueError("a tick does not advance")
        ticks.append(t)
        t += step
    return ticks


def y_axis_unguarded(lo: float, hi: float):
    """(ylo, yhi, ticks): lo and hi padded by 4% of hi - lo (of 1 when they
    are equal) with ticks_unguarded's ticks, or None where that range has
    no width or no ticks."""
    pad = 0.04 * (hi - lo or 1.0)
    ylo, yhi = lo - pad, hi + pad
    try:
        return (ylo, yhi, ticks_unguarded(ylo, yhi)) if yhi > ylo else None
    except ValueError:
        return None
