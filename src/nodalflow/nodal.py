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
from .graph_core import Edge, WeightedGraph, betti_1, components, freeze_arrays, laplacian
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
    first_index: bool

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
    k_norm = group[0] + 1
    psi = spectrum.eigenvectors[:, k - 1]
    return EigenSelection(
        k=k_norm,
        requested_k=k,
        lambda_k=float(spectrum.eigenvalues[k - 1]),
        psi=psi,
        simple=len(group) == 1,
        nowhere_zero=len(zero_vertices(psi)) == 0,
        first_index=(k == k_norm),
    )


def sign_change_edges(g: WeightedGraph, psi: np.ndarray) -> tuple[Edge, ...]:
    """Edges whose endpoint values have strictly opposite signs.

    Raises ZeroVertex if any entry of psi is (relatively) zero, since signs
    are then ill defined.
    """
    zeros = zero_vertices(psi)
    if zeros:
        raise ZeroVertex(zeros)
    return tuple(e for e in g.edges if psi[e[0]] * psi[e[1]] < 0)


@dataclass(frozen=True)
class NodalDecomposition:
    strong_domains: tuple[tuple[int, ...], ...]
    weak_domains: tuple[tuple[int, ...], ...]
    sign_change_edges: tuple[Edge, ...]
    nu: int
    deficiency: int


def nodal_decomposition(g: WeightedGraph, sel: EigenSelection) -> NodalDecomposition:
    """Strong and weak nodal domains of the selected eigenvector.

    Strong domains partition the vertices after removing sign-change edges;
    weak domains keep every edge whose endpoint product is >= 0. For a
    nowhere-zero eigenvector the two coincide.
    """
    psi = sel.psi
    e_pm = sign_change_edges(g, psi)
    strong, _ = strong_domains_allowing_zeros(g, psi)
    weak = components(g.n, [e for e in g.edges if psi[e[0]] * psi[e[1]] >= 0])
    nu = len(strong)
    return NodalDecomposition(
        strong_domains=strong,
        weak_domains=weak,
        sign_change_edges=e_pm,
        nu=nu,
        deficiency=sel.k - nu,
    )


def strong_domains_allowing_zeros(
    g: WeightedGraph, psi: np.ndarray
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Strong nodal domains, allowing zero entries.

    Vertices with (relatively) zero eigenvector entries belong to no domain;
    the remaining vertices are grouped by edges with strictly positive
    endpoint product. Returns (domains, zero_vertices). For a nowhere-zero
    psi these are the strong domains nodal_decomposition reports.
    """
    psi = np.asarray(psi, dtype=float)
    zeros = zero_vertices(psi)
    zset = set(zeros)
    same_sign = [
        e for e in g.edges
        if e[0] not in zset and e[1] not in zset and psi[e[0]] * psi[e[1]] > 0
    ]
    domains = components(g.n, same_sign, set(range(g.n)) - zset)
    return domains, zeros


@dataclass(frozen=True)
class CourantBettiReport:
    """Bounds k - beta_1 <= nu <= k on the strong domain count.

    The lower bound is only claimed by the theory for simple eigenvalues
    with nowhere-zero eigenvectors; lower_applicable records that.
    """

    k: int
    nu: int
    beta_1: int
    upper_ok: bool
    lower_ok: bool
    lower_applicable: bool


def courant_and_betti_check(
    g: WeightedGraph, sel: EigenSelection, nd: NodalDecomposition
) -> CourantBettiReport:
    b1 = betti_1(g)
    return CourantBettiReport(
        k=sel.k,
        nu=nd.nu,
        beta_1=b1,
        upper_ok=nd.nu <= sel.k,
        lower_ok=nd.nu >= sel.k - b1,
        lower_applicable=sel.simple and sel.nowhere_zero,
    )


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
    if magnitude <= 0:
        raise ValueError("perturbation magnitude must be positive")
    rng = np.random.default_rng(seed)
    bump = magnitude + rng.uniform(-magnitude, magnitude, size=g.n)
    new_diag = tuple(d + b for d, b in zip(g.diag_extra, bump))
    return WeightedGraph(g.n, g.edges, new_diag)
