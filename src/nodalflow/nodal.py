"""Eigenpair selection and nodal domain decompositions.

A strong nodal domain is a connected component of the graph with the
sign-change edges (those where the eigenvector takes opposite signs at the
endpoints) removed. The index k of an eigenpair is always normalized down to
the first position of its multiplicity group, so the nodal deficiency
k - nu is well defined even when the eigenvalue is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, FlowConsistencyError, ZeroVertex
from .graph_core import Edge, WeightedGraph, components, freeze_arrays, laplacian
from .spectra import Spectrum

# Relative threshold under which an eigenvector entry counts as zero.
ZETA_REL = 1e-10


@dataclass(frozen=True)
class EigenSelection:
    """A chosen eigenpair plus the assumption flags the flows care about.

    k is 1-based and normalized to the smallest index of the eigenvalue's
    multiplicity group; psi is the eigenvector at the requested index.
    """

    k: int
    requested_k: int
    lambda_k: float
    psi: np.ndarray
    simple: bool
    nowhere_zero: bool

    def __post_init__(self):
        freeze_arrays(self, "psi")

    def check_assumptions(self, allow_degenerate: bool) -> tuple[str, ...]:
        """Raise AssumptionViolated unless psi is nowhere zero and lambda_k
        simple; a degenerate lambda_k is let through, as a warning, only
        when allow_degenerate is set."""
        if not self.nowhere_zero:
            raise AssumptionViolated("nowhere_zero", "eigenvector has zero entries")
        if not self.simple:
            if not allow_degenerate:
                raise AssumptionViolated(
                    "simple", f"lambda_{self.k} = {self.lambda_k:.12g} is degenerate"
                )
            return ("degenerate_lambda_k",)
        return ()

    def certify(self, ok: bool, msg: str) -> tuple[str, ...]:
        """Raise FlowConsistencyError(msg) when a flow certificate fails for
        a simple lambda_k; for a degenerate one, where the certificate is
        not guaranteed, return msg as a warning instead."""
        if ok:
            return ()
        if self.simple:
            raise FlowConsistencyError(msg)
        return (msg,)


def zero_vertices(psi: np.ndarray) -> tuple[int, ...]:
    """Indices where |psi_i| <= ZETA_REL * max|psi|."""
    psi = np.asarray(psi, dtype=float)
    zeta = ZETA_REL * np.max(np.abs(psi))
    return tuple(int(i) for i in np.flatnonzero(np.abs(psi) <= zeta))


def select_eigenpair(spectrum: Spectrum, k: int) -> EigenSelection:
    """Pick the k-th (1-based) eigenpair and normalize k to the first index
    of its multiplicity group."""
    if not 1 <= k <= spectrum.n:
        raise ValueError(f"k={k} out of range 1..{spectrum.n}")
    group = spectrum.group_of(k - 1)
    psi = spectrum.eigenvectors[:, k - 1]
    return EigenSelection(
        k=group[0] + 1,
        requested_k=k,
        lambda_k=float(spectrum.eigenvalues[k - 1]),
        psi=psi,
        simple=len(group) == 1,
        nowhere_zero=len(zero_vertices(psi)) == 0,
    )


def sign_change_mask(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    """Which of g's edges, in edge order, join strictly opposite signs of
    psi, by edge_signs. Raises ZeroVertex if any entry of psi is
    (relatively) zero, since signs are then ill defined."""
    zeros = zero_vertices(psi)
    if zeros:
        raise ZeroVertex(zeros)
    return _signs_across(g, psi, zeros) < 0


def edge_signs(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    """sign(psi_i) * sign(psi_j) for each of g's edges, in edge order, with
    the entries of zero_vertices counted as 0: 1 inside a sign class, -1
    across a sign change, 0 at a zero vertex."""
    return _signs_across(g, psi, zero_vertices(psi))


def _signs_across(g: WeightedGraph, psi: np.ndarray, zeros) -> np.ndarray:
    # edge_signs for a psi whose zero_vertices are already known.
    signs = np.sign(np.asarray(psi, dtype=float)).astype(int)
    signs[list(zeros)] = 0
    i, j, _ = g.edge_arrays
    return signs[i] * signs[j]


def sign_change_edges(g: WeightedGraph, psi: np.ndarray) -> tuple[Edge, ...]:
    """The edges of sign_change_mask, as edge tuples in edge order."""
    return tuple(g.edges[e] for e in np.flatnonzero(sign_change_mask(g, psi)))


@dataclass(frozen=True)
class NodalDecomposition:
    """Nodal domains of a nowhere-zero eigenvector. Its weak domains (joined
    by edges whose endpoint product is >= 0) are its strong domains, since
    with no zero entry no edge has product 0."""

    strong_domains: tuple[tuple[int, ...], ...]
    sign_change_edges: tuple[Edge, ...]

    @property
    def nu(self) -> int:
        """The strong nodal domain count."""
        return len(self.strong_domains)


def nodal_decomposition(g: WeightedGraph, sel: EigenSelection) -> NodalDecomposition:
    """Strong nodal domains of the selected eigenvector.

    Strong domains partition the vertices after removing sign-change edges.
    Raises ZeroVertex for a psi with a (relatively) zero entry, so every psi
    accepted here has weak domains equal to its strong ones.
    """
    strong, _ = strong_domains_allowing_zeros(g, sel.psi)
    return NodalDecomposition(strong, sign_change_edges(g, sel.psi))


def strong_domains_allowing_zeros(
    g: WeightedGraph, psi: np.ndarray
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Strong nodal domains, allowing zero entries.

    Vertices with (relatively) zero eigenvector entries belong to no domain;
    the remaining vertices are joined by the edges where edge_signs is 1.
    Returns (domains, zero_vertices). For a nowhere-zero psi these are the
    strong domains nodal_decomposition reports.
    """
    zeros = zero_vertices(psi)
    i, j, _ = g.edge_arrays
    same = _signs_across(g, psi, zeros) > 0
    nonzero = np.ones(g.n, dtype=bool)
    nonzero[list(zeros)] = False
    domains = components(g.n, i[same], j[same], np.flatnonzero(nonzero))
    return domains, zeros


def perturb_to_nonzero(
    g: WeightedGraph, magnitude: float | None = None, seed: int = 0
) -> WeightedGraph:
    """Add a small random diagonal to break exact eigenvector zeros.

    Per-vertex additions are m + uniform(-m, m) with m defaulting to
    1e-8 * ||L||_inf. The constant +m part only keeps diag_extra
    nonnegative (a uniform shift leaves eigenvectors alone); the random
    part breaks the symmetries behind exact zeros. Never applied
    implicitly; callers opt in and re-run the eigensolver themselves.
    """
    if magnitude is None:
        L = laplacian(g).matrix
        magnitude = 1e-8 * float(np.max(np.sum(np.abs(L), axis=1)))
    if not 0 < magnitude < np.inf:
        raise ValueError(f"perturbation magnitude {magnitude} is not positive and finite")
    rng = np.random.default_rng(seed)
    bump = magnitude + rng.uniform(-magnitude, magnitude, size=g.n)
    new_diag = tuple(d + b for d, b in zip(g.diag_extra, bump))
    return WeightedGraph(g.n, g.edges, new_diag)
