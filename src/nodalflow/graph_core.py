"""Weighted undirected graphs and their (combinatorial) Laplacians.

Vertices are 0..n-1. Edges are stored canonically: each as (i, j, w) with
i < j, positive weight, sorted lexicographically, no duplicates. Optional
per-vertex diagonal additions (``diag_extra``) model self loops, which add
to the Laplacian diagonal without creating off-diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotConnected

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]
    diag_extra: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        canon = []
        for e in self.edges:
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise ValueError(f"self loop ({i},{i}); use diag_extra instead")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({i},{j}) has weight {w}, not positive and finite")
            canon.append((i, j, w))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a[:2] == b[:2]:
                raise ValueError(f"duplicate edge ({a[0]},{a[1]})")
        object.__setattr__(self, "edges", tuple(canon))
        if self.diag_extra == () or self.diag_extra is None:
            object.__setattr__(self, "diag_extra", (0.0,) * self.n)
        else:
            d = tuple(float(x) for x in self.diag_extra)
            if len(d) != self.n:
                raise ValueError(f"diag_extra has length {len(d)}, expected {self.n}")
            if not all(0 <= x < np.inf for x in d):
                raise ValueError("diag_extra entries must be nonnegative and finite")
            object.__setattr__(self, "diag_extra", d)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoints i, j and weights w of the edges, in edge order, as
        read-only arrays (built once per graph)."""
        e = np.array(self.edges, dtype=float).reshape(-1, 3)
        arrays = (e[:, 0].astype(np.intp), e[:, 1].astype(np.intp), e[:, 2].copy())
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @cached_property
    def _laplacian(self) -> LaplacianMatrix:
        i, j, w = self.edge_arrays
        return LaplacianMatrix(edge_matrix(self.n, i, j, -w, w, w, np.array(self.diag_extra)))


def edge_matrix(n: int, i, j, off, at_i, at_j, diagonal) -> np.ndarray:
    """The n x n symmetric matrix with ``off`` at (i, j) and (j, i) for the
    edges (i, j), and on the diagonal each edge's end terms, at_i at i and
    at_j at j, plus the per-vertex ``diagonal``. End terms are summed in
    edge order, i before j, as a loop over the edges would sum them, so
    every bit of the result is reproducible. A Laplacian has off = -w and
    at_i = at_j = w."""
    M = np.zeros((n, n))
    M[i, j] = M[j, i] = off
    ends = np.bincount(np.column_stack((i, j)).ravel(), np.column_stack((at_i, at_j)).ravel(), n)
    M[np.diag_indices(n)] = ends + diagonal
    return M


def freeze_arrays(record, *names: str) -> None:
    """Store each named field of a frozen dataclass as a read-only array:
    integer arrays stay integer, anything else becomes float."""
    for name in names:
        a = getattr(record, name)
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
            a = np.asarray(a, dtype=float)
        a.setflags(write=False)
        object.__setattr__(record, name, a)


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dense symmetric PSD matrix: a Laplacian or a flow matrix at some
    sigma."""

    matrix: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "matrix")


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """L = D - A plus any diagonal additions, exactly symmetric by
    construction. Assembled on the first call and kept on g, like
    edge_arrays, so every caller of one graph shares one read-only matrix."""
    return g._laplacian


def components(n: int, i, j, vertices=None) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph on ``vertices`` (ascending; default:
    all of 0..n-1) joined by the edges (i[e], j[e]), each sorted and ordered
    by smallest member. Edges must join listed vertices.

    Min-label hooking with pointer jumping, after Shiloach and Vishkin (J.
    Algorithms, 1982): each vertex points at itself (a root) or at a smaller
    vertex. Each round jumps the pointers until every label is a root, then
    hooks the larger root of each edge's two under the smaller (a no-op
    where they are equal). When every edge joins equal labels, each label is
    its component's smallest vertex. A root that neither hooks nor is
    hooked in one round hooks in the next, so a component's roots at least
    halve every two rounds."""
    label = np.arange(n)
    while True:
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]
        a, b = label[i], label[j]
        if np.array_equal(a, b):
            break
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
    v = np.arange(n) if vertices is None else np.asarray(vertices, dtype=np.intp)
    root = label[v]
    order = np.argsort(root, kind="stable")
    members = v[order].tolist()
    if not members:
        return ()
    cuts = (np.flatnonzero(np.diff(root[order])) + 1).tolist()
    return tuple(tuple(members[s:e]) for s, e in zip([0, *cuts], [*cuts, len(members)]))


def connected_components(g: WeightedGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by
    smallest member."""
    i, j, _ = g.edge_arrays
    return components(g.n, i, j)


def is_connected(g: WeightedGraph) -> bool:
    return len(connected_components(g)) == 1


def betti_1(g: WeightedGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    comps = connected_components(g)
    if len(comps) != 1:
        raise NotConnected(f"graph has {len(comps)} components")
    return g.m - g.n + 1
