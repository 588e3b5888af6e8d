"""Weighted undirected graphs and their (combinatorial) Laplacians.

Vertices are 0..n-1. Edges are stored canonically: each as (i, j, w) with
i < j, positive weight, sorted lexicographically, no duplicates. Optional
per-vertex diagonal additions (``diag_extra``) model self loops, which add
to the Laplacian diagonal without creating off-diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components

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
            if not w > 0:
                raise ValueError(f"edge ({i},{j}) has non-positive weight {w}")
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
            if any(x < 0 for x in d):
                raise ValueError("diag_extra entries must be nonnegative")
            object.__setattr__(self, "diag_extra", d)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dense symmetric PSD matrix: a Laplacian or a flow matrix at some
    sigma."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self):
        return self.matrix.shape


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """Assemble L = D - A plus any diagonal additions. Exactly symmetric by
    construction."""
    e = np.array(g.edges, dtype=float).reshape(-1, 3)
    i, j, w = e[:, 0].astype(np.intp), e[:, 1].astype(np.intp), e[:, 2]
    L = np.zeros((g.n, g.n))
    L[i, j] = L[j, i] = -w
    # Degrees are summed in edge order, i before j, as a loop over the edges
    # would sum them, so every bit of the result is reproducible.
    deg = np.bincount(np.column_stack((i, j)).ravel(), np.repeat(w, 2), g.n)
    L[np.diag_indices(g.n)] = deg + np.array(g.diag_extra)
    return LaplacianMatrix(L)


def adjacency_lists(g: WeightedGraph) -> list[list[int]]:
    """Neighbor lists (unweighted view), each sorted ascending."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    for lst in adj:
        lst.sort()
    return adj


def components(n: int, edges, vertices=None) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph on ``vertices`` (default: all of
    0..n-1) joined by ``edges`` (tuples starting i, j), each sorted and
    ordered by smallest member. Edges must join listed vertices."""
    ij = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
    _, labels = _csgraph_components(adj, directed=False)
    comps: dict[int, list[int]] = {}
    for v in range(n) if vertices is None else sorted(vertices):
        comps.setdefault(int(labels[v]), []).append(int(v))
    return tuple(tuple(c) for c in comps.values())


def connected_components(g: WeightedGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by
    smallest member."""
    return components(g.n, g.edges)


def is_connected(g: WeightedGraph) -> bool:
    return len(connected_components(g)) == 1


def betti_1(g: WeightedGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    comps = connected_components(g)
    if len(comps) != 1:
        raise NotConnected(f"graph has {len(comps)} components")
    return g.m - g.n + 1
