"""Named graph families, seeded random graphs, and closed-form oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityExhausted, InvalidFamilyParams
from .graph_core import WeightedGraph, freeze_arrays, is_connected, laplacian


def complete(n: int) -> WeightedGraph:
    """K_n, unit weights."""
    if n < 2:
        raise InvalidFamilyParams(f"complete graph needs n >= 2, got {n}")
    return WeightedGraph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> WeightedGraph:
    """C_n, unit weights."""
    if n < 3:
        raise InvalidFamilyParams(f"cycle needs n >= 3, got {n}")
    return WeightedGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def petersen(n: int, m: int) -> WeightedGraph:
    """Generalized Petersen graph GP(n, m) on 2n vertices.

    Outer vertices 0..n-1 form an n-cycle, spokes join them to inner
    vertices n..2n-1, and inner vertex n+i joins n + (i+m mod n). Requires
    n >= 3 and 1 <= m <= (n-1)//2 so the inner edges form a simple graph.
    """
    if n < 3 or not 1 <= m <= (n - 1) // 2:
        raise InvalidFamilyParams(f"petersen needs n >= 3 and 1 <= m <= (n-1)//2, got ({n},{m})")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, 1.0))
        edges.append((i, n + i, 1.0))
        edges.append((n + i, n + (i + m) % n, 1.0))
    return WeightedGraph(2 * n, tuple(edges))


def interval(n: int) -> WeightedGraph:
    """Path graph I_n, unit weights."""
    if n < 2:
        raise InvalidFamilyParams(f"interval needs n >= 2, got {n}")
    return WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def grid(n: int, m: int) -> WeightedGraph:
    """n-by-m grid graph I_{n,m}; vertex (a, b) has index a*m + b."""
    if n < 2 or m < 2:
        raise InvalidFamilyParams(f"grid needs n, m >= 2, got ({n},{m})")
    edges = []
    for a in range(n):
        for b in range(m):
            v = a * m + b
            if a + 1 < n:
                edges.append((v, v + m, 1.0))
            if b + 1 < m:
                edges.append((v, v + 1, 1.0))
    return WeightedGraph(n * m, tuple(edges))


def erdos_renyi(n: int, p: float, seed: int) -> WeightedGraph:
    """One G(n, p) sample: each pair i < j (ascending order) gets an edge
    with probability p, drawn from a PCG64 generator with the given seed."""
    if n < 2 or not 0.0 < p <= 1.0:
        raise InvalidFamilyParams(f"erdos_renyi needs n >= 2 and 0 < p <= 1, got ({n},{p})")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        row = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
        edges += [(i, j, 1.0) for j in row.tolist()]
    return WeightedGraph(n, tuple(edges))


# How many seeds generate_connected_er tries before it gives up.
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class ConnectedER:
    """A connected G(n, p) sample and the seed that drew it."""

    graph: WeightedGraph
    seed_used: int


def generate_connected_er(n: int, p: float, seed: int) -> ConnectedER:
    """Retry seeds seed, seed+1, ... until a sample is connected."""
    for s in range(seed, seed + MAX_ATTEMPTS):
        g = erdos_renyi(n, p, s)
        if is_connected(g):
            return ConnectedER(graph=g, seed_used=s)
    raise ConnectivityExhausted(
        f"no connected G({n},{p}) within {MAX_ATTEMPTS} attempts from seed {seed}"
    )


# Each family's graph function and parameter count; erdos_renyi also takes a seed.
_FAMILIES = {
    "complete": (complete, 1), "cycle": (cycle, 1), "petersen": (petersen, 2),
    "interval": (interval, 1), "grid": (grid, 2), "erdos_renyi": (None, 2),
}


def _whole(x) -> int:
    """x as an int; InvalidFamilyParams unless it is a finite whole number."""
    if not float(x).is_integer():
        raise InvalidFamilyParams(f"expected a whole number, got {x}")
    return int(x)


def generate(kind: str, params: tuple, seed: int | None = None) -> WeightedGraph:
    """Build the graph of family kind with numeric params; sizes must be
    whole numbers. Erdos-Renyi samples are connectivity-enforced via seed
    retry from seed."""
    if kind not in _FAMILIES:
        raise InvalidFamilyParams(f"unknown family {kind!r}; expected one of {tuple(_FAMILIES)}")
    build, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise InvalidFamilyParams(
            f"{kind} takes {arity} parameter{'s' * (arity > 1)}, got {len(params)}"
        )
    if build is not None:
        return build(*map(_whole, params))
    if seed is None:
        raise InvalidFamilyParams("erdos_renyi needs a seed")
    n, p = params
    return generate_connected_er(_whole(n), float(p), int(seed)).graph


def path_eigenpair(n: int, j: int) -> tuple[float, np.ndarray]:
    """Closed-form eigenpair j (1-based) of the path graph I_n:
    lambda = 2 - 2 cos(pi (j-1) / n), v_i = cos(pi (j-1) (i + 1/2) / n),
    normalized."""
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    mode = j - 1
    lam = 2.0 - 2.0 * np.cos(np.pi * mode / n)
    v = np.cos(np.pi * mode * (np.arange(n) + 0.5) / n)
    return float(lam), v / np.linalg.norm(v)


def cycle_eigenbasis(n: int, j: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form (cos, sin) eigenvector pair of C_n for mode 1 <= j < n/2,
    eigenvalue 2 - 2 cos(2 pi j / n). This fixes a basis of the
    2-dimensional eigenspace by construction instead of leaving the choice
    to the solver."""
    if not 1 <= j < n / 2:
        raise ValueError(f"mode j={j} must satisfy 1 <= j < n/2")
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * j / n)
    t = 2.0 * np.pi * j * np.arange(n) / n
    c, s = np.cos(t), np.sin(t)
    return float(lam), c / np.linalg.norm(c), s / np.linalg.norm(s)


@dataclass(frozen=True)
class GridEigenOracle:
    """Product eigenvector of the grid with its numerically identified
    eigenvalue and which combination rule matched."""

    eigenvalue: float
    eigenvector: np.ndarray
    rule: str
    residual: float

    def __post_init__(self):
        freeze_arrays(self, "eigenvector")


def grid_eigenvector_oracle(n: int, m: int, k1: int, j1: int) -> GridEigenOracle:
    """Product of path eigenvectors (1-based factor indices k1, j1) on the
    n-by-m grid. The eigenvalue is chosen by residual between the candidate
    combination rules (sum and product of the factor eigenvalues) rather
    than trusted from a formula."""
    lam_a, va = path_eigenpair(n, k1)
    lam_b, vb = path_eigenpair(m, j1)
    vec = np.outer(va, vb).reshape(n * m)
    vec = vec / np.linalg.norm(vec)
    L = laplacian(grid(n, m)).matrix
    Lv = L @ vec
    candidates = {"sum": lam_a + lam_b, "product": lam_a * lam_b}
    resid = {rule: float(np.linalg.norm(Lv - lam * vec)) for rule, lam in candidates.items()}
    rule = "sum" if resid["sum"] <= resid["product"] else "product"
    return GridEigenOracle(
        eigenvalue=candidates[rule], eigenvector=vec, rule=rule, residual=resid[rule]
    )
