"""Dirichlet eigenvalue problems on vertex subsets.

For an interior set S the boundary is the set of outside vertices adjacent
to S. The Dirichlet matrix keeps the full-graph degrees (boundary edge
weights included) but deletes the rows and columns of everything outside S,
which is what makes restrictions of global eigenvectors satisfy the
Dirichlet eigenvalue equation on their own domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInterior
from .graph_core import WeightedGraph, components, freeze_arrays, laplacian
from .spectra import SIGN_TOL, Spectrum, eigendecompose


@dataclass(frozen=True)
class DirichletProblem:
    """Interior set and the reduced matrix.

    ``interior`` is sorted ascending; matrix row p corresponds to
    interior[p].
    """

    interior: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "matrix")


def dirichlet_problem(g: WeightedGraph, interior) -> DirichletProblem:
    """Reduce the Laplacian of g to the rows and columns of ``interior``."""
    S = sorted(set(int(v) for v in interior))
    if not S:
        raise EmptyInterior("interior vertex set is empty")
    if S[0] < 0 or S[-1] >= g.n:
        raise ValueError(f"interior vertices out of range for n={g.n}")
    L = laplacian(g).matrix
    idx = np.array(S, dtype=int)
    return DirichletProblem(tuple(S), L[np.ix_(idx, idx)])


def d_connected_components(g: WeightedGraph, interior) -> tuple[tuple[int, ...], ...]:
    """Components of the interior under paths that avoid the boundary,
    i.e. components of the induced subgraph on the interior set."""
    S = set(int(v) for v in interior)
    if not S:
        raise EmptyInterior("interior vertex set is empty")
    inside = [e for e in g.edges if e[0] in S and e[1] in S]
    return components(g.n, inside, S)


def dirichlet_spectrum(dp: DirichletProblem) -> Spectrum:
    """Eigendecomposition of the reduced matrix."""
    return eigendecompose(dp.matrix)


def is_signed(v: np.ndarray, tol: float = SIGN_TOL) -> bool:
    """True when every entry has the same strict sign (up to a global
    flip)."""
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) <= tol):
        return False
    return bool(np.all(v > 0) or np.all(v < 0))


@dataclass(frozen=True)
class ComponentEigenReport:
    """First Dirichlet eigenpair of one D-connected component."""

    component: tuple[int, ...]
    lambda_1: float
    simple: bool
    signed: bool
    eigenvector: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "eigenvector")


def component_first_eigenpairs(
    g: WeightedGraph, interior
) -> tuple[ComponentEigenReport, ...]:
    """First Dirichlet eigenpair per D-connected component of the interior."""
    reports = []
    for comp in d_connected_components(g, interior):
        spec = dirichlet_spectrum(dirichlet_problem(g, comp))
        reports.append(
            ComponentEigenReport(
                component=comp,
                lambda_1=float(spec.eigenvalues[0]),
                simple=len(spec.group_of(0)) == 1,
                signed=is_signed(spec.eigenvectors[:, 0]),
                eigenvector=spec.eigenvectors[:, 0],
            )
        )
    return tuple(reports)
