"""Both flows under vertex relabelling and weight scaling.

Renaming the vertices permutes L, and scaling every weight by c scales L
and P by c, so the edge flow's eigenvalues scale by c at every sigma: its
counts, its crossing brackets and its sigma = 1 values (times c) stay the
same. The vertex flow's ghost mass sigma * I does not scale with the
weights, so its crossing sigmas move under scaling; its counts do not.
Both cases have a simple lambda_k, so psi does not depend on the solver's
basis.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodalflow.edge_flow import nodal_count_direct, run_edge_flow
from nodalflow.families import generate_connected_er, grid
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import select_eigenpair
from nodalflow.spectra import eigendecompose
from nodalflow.vertex_flow import run_vertex_flow

CASES = {
    "grid75-k5": (lambda: grid(7, 5), 5),
    "er20-seed300-k8": (lambda: generate_connected_er(20, 0.3, 300).graph, 8),
}


def _relabelled_scaled(g: WeightedGraph, seed: int, c: float) -> WeightedGraph:
    perm = np.random.default_rng(seed).permutation(g.n)
    return WeightedGraph(g.n, tuple((int(perm[i]), int(perm[j]), c * w) for i, j, w in g.edges))


@functools.cache
def _flows(case: str, c: float | None):
    """Edge and vertex flow of a case as built (c None), or relabelled and
    scaled by c."""
    make, k = CASES[case]
    g = make() if c is None else _relabelled_scaled(make(), 7, c)
    sel = select_eigenpair(eigendecompose(laplacian(g)), k)
    assert sel.simple and sel.nowhere_zero
    return run_edge_flow(g, sel), run_vertex_flow(g, sel)


def _brackets(fr):
    return sorted((c.sigma_lo, c.sigma_hi) for c in fr.crossings)


@pytest.mark.parametrize("c", [1.0, 4.0, 0.25])
@pytest.mark.parametrize("case", CASES)
def test_flows_are_invariant_under_relabelling_and_scaling(case, c):
    edge0, vertex0 = _flows(case, None)
    edge, vertex = _flows(case, c)

    assert edge.count_identity_ok and vertex.count_identity_ok
    assert edge.converged_count == edge0.converged_count
    assert _brackets(edge) == _brackets(edge0)
    np.testing.assert_allclose(
        edge.branch_values[:, -1], c * edge0.branch_values[:, -1], rtol=1e-9, atol=1e-9 * c
    )

    assert vertex.converged_count == vertex0.converged_count
    assert len(vertex.crossings) == len(vertex0.crossings)
    if c == 1.0:
        assert _brackets(vertex) == _brackets(vertex0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=14),
    p=st.sampled_from([0.2, 0.3, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=14),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
@example(n=11, p=0.3, seed=42, k=3, c=1e-3).xfail(
    raises=AssertionError,
    reason="a Dirichlet value 4.1e-6 above lambda_3 falls inside group_tolerance's"
    " absolute floor of 1e-8 once the weights are scaled by 1e-3",
)
def test_direct_count_is_invariant_under_relabelling_and_scaling(n, p, seed, k, c):
    # A simple lambda_k fixes psi up to sign, so relabelling permutes it and
    # scaling leaves it; nu is the multiplicity of lambda_k (times c) in
    # L + P (times c).
    g = generate_connected_er(n, p, seed).graph
    sel = select_eigenpair(eigendecompose(laplacian(g)), min(k, n))
    assume(sel.simple and sel.nowhere_zero)
    h = _relabelled_scaled(g, seed, c)
    moved = select_eigenpair(eigendecompose(laplacian(h)), min(k, n))
    assert moved.simple and moved.nowhere_zero
    assert nodal_count_direct(h, moved) == nodal_count_direct(g, sel)
