import tracemalloc

import numpy as np
import pytest

from nodalflow.edge_flow import (
    EdgePerturbation,
    build_perturbation,
    derivative_identity_check,
    flow_matrix,
    nodal_count_direct,
    run_edge_flow,
    sign_preserving_graph,
)
from nodalflow.errors import AssumptionViolated, DegenerateEigenvalue
from nodalflow.families import complete, generate_connected_er, grid, interval, petersen
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import perturb_to_nonzero, select_eigenpair
from nodalflow.spectra import eigendecompose


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def test_build_perturbation_single_edge():
    g = interval(4)
    sel = select(g, 2)
    pert = build_perturbation(g, sel)
    assert len(pert.blocks) == 1
    i, j, w, q_ij, q_ji = pert.blocks[0]
    assert (i, j, w) == (1, 2, 1.0)
    assert q_ij > 0 and q_ji > 0
    assert q_ij * q_ji == pytest.approx(1.0, rel=1e-12)
    P = pert.matrix
    np.testing.assert_allclose(P, P.T)
    vals = np.linalg.eigvalsh(P)
    assert vals.min() > -1e-12
    assert np.sum(vals > 1e-10) == 1
    assert np.max(np.abs(P @ sel.psi)) < 1e-12


def test_build_perturbation_petersen_kernel():
    g = petersen(7, 3)
    sel = select(g, 7)
    pert = build_perturbation(g, sel)
    assert len(pert.blocks) == 10
    assert np.max(np.abs(pert.matrix @ sel.psi)) < 1e-10
    assert np.linalg.eigvalsh(pert.matrix).min() > -1e-10


def test_perturbation_matrix_read_only():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    with pytest.raises(ValueError):
        pert.matrix[0, 0] = 1.0


def test_flow_matrix_endpoints_and_range():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    L = laplacian(g).matrix
    np.testing.assert_allclose(flow_matrix(pert, 0.0).matrix, L)
    np.testing.assert_allclose(flow_matrix(pert, 1.0).matrix, L + pert.matrix)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            flow_matrix(pert, bad)


@pytest.mark.parametrize(
    "g,k",
    [(interval(4), 2), (petersen(7, 3), 7), (grid(7, 5), 5)],
    ids=["path4", "petersen", "grid75"],
)
def test_sign_preserving_graph_matches_sigma_one(g, k):
    sel = select(g, k)
    pert = build_perturbation(g, sel)
    sg = sign_preserving_graph(g, pert)
    assert sg.m == g.m - len(pert.blocks)
    np.testing.assert_allclose(
        laplacian(sg).matrix, flow_matrix(pert, 1.0).matrix, atol=1e-12
    )


def test_nodal_count_direct_complete_golden():
    g = complete(5)
    sel = select(g, 2)
    with pytest.raises(AssumptionViolated):
        nodal_count_direct(g, sel)
    r = nodal_count_direct(g, sel, allow_degenerate=True)
    assert r.nu == 2
    assert r.deficiency is None
    assert r.degenerate_warning


def test_nodal_count_direct_petersen_golden():
    g = petersen(7, 3)
    r = nodal_count_direct(g, select(g, 7), allow_degenerate=True)
    assert r.nu == 3
    assert r.k == 7


def test_nodal_count_direct_grid_golden():
    g = grid(7, 5)
    r = nodal_count_direct(g, select(g, 5))
    assert r.nu == 3
    assert r.deficiency == 2
    assert not r.degenerate_warning


def test_nodal_count_direct_interval_tree_deficiency_zero():
    g = interval(7)
    spec = eigendecompose(laplacian(g))
    gp = perturb_to_nonzero(g)
    specp = eigendecompose(laplacian(gp))
    for k in range(1, 8):
        sel = select_eigenpair(spec, k)
        if sel.nowhere_zero:
            assert nodal_count_direct(g, sel).deficiency == 0
        else:
            with pytest.raises(AssumptionViolated):
                nodal_count_direct(g, sel)
            selp = select_eigenpair(specp, k)
            assert selp.nowhere_zero
            assert nodal_count_direct(gp, selp).deficiency == 0


def test_run_edge_flow_interval_no_crossings():
    g = interval(7)
    for k in (1, 3):
        fr = run_edge_flow(g, select(g, k))
        assert fr.converged_count == k
        assert fr.crossings == ()
        assert fr.count_identity_ok
        assert not fr.refinement_exhausted


def test_run_edge_flow_petersen_crossings():
    g = petersen(7, 3)
    fr = run_edge_flow(g, select(g, 7), allow_degenerate=True)
    assert fr.converged_count == 3
    assert len(fr.crossings) == 4
    assert fr.count_identity_ok
    assert "degenerate_lambda_k" in fr.warnings
    # Every crossing comes from a branch that started below lambda_7 and is
    # bracketed tightly; the top one sits at the documented location.
    for c in fr.crossings:
        assert fr.branch_values[c.branch, 0] < fr.reference_value
        assert c.sigma_hi - c.sigma_lo <= 1e-6
    top = max((c.sigma_lo + c.sigma_hi) / 2 for c in fr.crossings)
    assert top == pytest.approx(0.990, abs=0.01)


@pytest.mark.parametrize(
    "g, k, steps, at",
    [(grid(4, 3), 5, steps, (0.25, 0.5)) for steps in (9, 17, 33)]
    + [(generate_connected_er(20, 0.7, 1003).graph, 19, 33, (0.8125,))]
    + [(generate_connected_er(20, 0.3, 300).graph, 8, 33, (0.0510276,))]
    + [(generate_connected_er(20, 0.5, 501).graph, 5, 33, (0.0257016,))],
    ids=["grid4x3-9", "grid4x3-17", "grid4x3-33", "er20-1003-33", "er20-300-33", "er20-501-33"],
)
def test_run_edge_flow_crossing_on_grid_point(g, k, steps, at):
    # The first crossings land exactly on grid points, where the branch sits
    # within rounding of lambda_k. In the ER(20) seed 300 and 501 flows the
    # crossing lies inside a grid step next to a close branch, and its
    # bracket must hold it rather than collapse onto the step's end.
    sel = select(g, k)
    fr = run_edge_flow(g, sel, steps=steps)
    assert fr.count_identity_ok
    assert fr.converged_count + len(fr.crossings) == sel.k
    for c in fr.crossings:
        assert 0 < c.sigma_hi - c.sigma_lo <= 1e-6
    for s in at:
        assert any(c.sigma_lo <= s <= c.sigma_hi for c in fr.crossings)


def test_run_edge_flow_psi_branch_constant():
    g = petersen(7, 3)
    sel = select(g, 7)
    fr = run_edge_flow(g, sel, allow_degenerate=True)
    starts = fr.branch_values[:, 0]
    candidates = np.flatnonzero(np.abs(starts - sel.lambda_k) < 1e-8)
    drift = [
        np.max(np.abs(fr.branch_values[b] - sel.lambda_k)) for b in candidates
    ]
    assert min(drift) < 1e-9


def test_run_edge_flow_monotone_branches():
    g = grid(7, 5)
    fr = run_edge_flow(g, select(g, 5))
    diffs = np.diff(fr.branch_values, axis=1)
    assert diffs.min() > -1e-8
    assert fr.converged_count == 3
    assert fr.count_identity_ok


def test_run_edge_flow_rejects_zero_vertices():
    g = interval(7)
    with pytest.raises(AssumptionViolated):
        run_edge_flow(g, select(g, 2))


def test_run_edge_flow_rejects_degenerate_without_flag():
    g = complete(5)
    with pytest.raises(AssumptionViolated):
        run_edge_flow(g, select(g, 2))
    fr = run_edge_flow(g, select(g, 2), allow_degenerate=True)
    assert fr.converged_count == 2
    assert fr.count_identity_ok


def test_derivative_identity_on_flow_eigenvectors():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    spec = eigendecompose(flow_matrix(pert, 0.5))
    checked = 0
    for j in range(spec.n):
        if len(spec.group_of(j)) != 1:
            continue
        res = derivative_identity_check(pert, 0.5, spec.eigenvectors[:, j])
        assert res < 1e-5
        checked += 1
    assert checked >= 3


def test_derivative_identity_sigma_range():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    u = np.ones(4)
    with pytest.raises(ValueError):
        derivative_identity_check(pert, 0.0, u)
    with pytest.raises(ValueError):
        derivative_identity_check(pert, 1.0, u)


def test_derivative_identity_rejects_degenerate():
    # Two disjoint unit edges give eigenvalue 2 with multiplicity 2.
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    pert = EdgePerturbation((), np.zeros((4, 4)), laplacian(g).matrix)
    u = np.array([1.0, -1.0, 0.0, 0.0])
    with pytest.raises(DegenerateEigenvalue):
        derivative_identity_check(pert, 0.5, u)


def test_run_edge_flow_memory_stays_per_node():
    # The walk holds a few eigenvector matrices, not one per grid point
    # (200 of 100 x 100 floats, 16 MB, for this flow).
    g = grid(10, 10)
    sel = select(g, 20)
    tracemalloc.start()
    try:
        run_edge_flow(g, sel, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
