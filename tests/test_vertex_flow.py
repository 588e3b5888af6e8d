import numpy as np
import pytest

from nodalflow.errors import AssumptionViolated, DegenerateEigenvalue, FlowConsistencyError
from nodalflow.families import complete, cycle, grid, interval, petersen
from nodalflow.graph_core import laplacian
from nodalflow.nodal import nodal_decomposition, select_eigenpair
from nodalflow.spectra import eigendecompose
from nodalflow.vertex_flow import (
    bilinear_matrix,
    check_edge_equivalence,
    derivative_identity_check,
    extend,
    extension_coefficients,
    graph_at,
    limit_graph,
    run_vertex_flow,
    subdivide,
)


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def test_subdivide_structure_path():
    g = interval(4)
    sg = subdivide(g, select(g, 2))
    assert sg.n_base == 4
    assert sg.n_ghost == 1
    assert sg.n_total == 5
    assert sg.ghost_index(0) == 4
    assert [(i, j) for i, j, _ in sg.sign_edges] == [(1, 2)]
    q_ij, q_ji = sg.q[0]
    assert q_ij > 0 and q_ji > 0
    assert q_ij * q_ji == pytest.approx(1.0, rel=1e-12)


def test_subdivide_structure_petersen():
    g = petersen(7, 3)
    sg = subdivide(g, select(g, 7))
    assert sg.n_ghost == 10
    assert sg.n_total == 24


def test_graph_at_zero_recovers_base():
    g = interval(4)
    sg = subdivide(g, select(g, 2))
    g0 = graph_at(sg, 0.0)
    assert g0.n == 5
    L0 = laplacian(g0).matrix
    np.testing.assert_allclose(L0[:4, :4], laplacian(g).matrix, atol=1e-15)
    assert np.all(L0[4] == 0.0)
    with pytest.raises(ValueError):
        graph_at(sg, -0.5)


def test_graph_at_weight_schedule():
    g = interval(4)
    sg = subdivide(g, select(g, 2))
    i, j, w = sg.sign_edges[0]
    q_ij, q_ji = sg.q[0]
    gs = graph_at(sg, 3.0)
    weights = {(a, b): ww for a, b, ww in gs.edges}
    assert weights[(1, 2)] == pytest.approx(w / 4.0)
    assert weights[(1, 4)] == pytest.approx(0.75 * w * (1.0 + q_ji))
    assert weights[(2, 4)] == pytest.approx(0.75 * w * (1.0 + q_ij))


def test_limit_graph_full_ghost_weights():
    g = interval(4)
    sg = subdivide(g, select(g, 2))
    q_ij, q_ji = sg.q[0]
    gl = limit_graph(sg)
    weights = {(a, b): ww for a, b, ww in gl.edges}
    assert (1, 2) not in weights
    assert weights[(1, 4)] == pytest.approx(1.0 + q_ji)
    assert weights[(2, 4)] == pytest.approx(1.0 + q_ij)


def test_extension_coefficients_sum_to_one():
    g = petersen(7, 3)
    sg = subdivide(g, select(g, 7))
    for a_ij, a_ji in extension_coefficients(sg):
        assert a_ij + a_ji == pytest.approx(1.0, rel=1e-12)


def test_extend_selected_eigenvector_by_zeros():
    g = petersen(7, 3)
    sel = select(g, 7)
    sg = subdivide(g, sel)
    ext = extend(sg, np.asarray(sel.psi))
    np.testing.assert_allclose(ext[: sg.n_base], sel.psi)
    assert np.max(np.abs(ext[sg.n_base :])) < 1e-12
    with pytest.raises(ValueError):
        extend(sg, np.ones(3))


@pytest.mark.parametrize("sigma", [0.0, 1.0, 552.0, 1e4])
def test_extended_eigenvector_invariant_along_flow(sigma):
    g = interval(7)
    sel = select(g, 3)
    sg = subdivide(g, sel)
    ext = extend(sg, np.asarray(sel.psi))
    B = bilinear_matrix(sg, sigma).matrix
    resid = np.max(np.abs(B @ ext - sel.lambda_k * ext))
    assert resid < 1e-10


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 1.0, 552.0, 1e4])
def test_bilinear_matrix_matches_graph_at(sigma):
    g = petersen(7, 3)
    sg = subdivide(g, select(g, 7))
    B = bilinear_matrix(sg, sigma).matrix
    ref = laplacian(graph_at(sg, sigma)).matrix.copy()
    ghosts = np.arange(sg.n_base, sg.n_total)
    ref[ghosts, ghosts] += sigma
    assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(B, B.T)


def test_bilinear_matrix_is_psd():
    g = interval(4)
    sg = subdivide(g, select(g, 2))
    for sigma in (0.0, 0.3, 10.0):
        vals = np.linalg.eigvalsh(bilinear_matrix(sg, sigma).matrix)
        assert vals.min() > -1e-10


def test_run_vertex_flow_interval_golden():
    g = interval(7)
    sel = select(g, 3)
    fr = run_vertex_flow(g, sel, steps=60)
    assert fr.converged_count == 3
    assert fr.count_identity_ok is True
    assert not fr.refinement_exhausted
    assert fr.sigma_grid[0] == 0.0
    assert fr.sigma_grid[-1] == 1e4
    assert fr.branch_origins.count("ghost") == 2
    V = fr.start_vectors
    assert V.shape == (subdivide(g, sel).n_total, fr.n_branches)
    np.testing.assert_allclose(V.T @ V, np.eye(fr.n_branches), atol=1e-12)
    # Exactly two of the branches closing on lambda_3 come from ghosts; the
    # third is the invariant extended eigenvector.
    finals = fr.branch_values[:, -1]
    converging = [b for b in range(fr.n_branches) if abs(finals[b] - sel.lambda_k) < 0.01]
    assert len(converging) == 3
    ghost_conv = [b for b in converging if fr.branch_origins[b] == "ghost"]
    assert len(ghost_conv) == 2
    drift = min(
        np.max(np.abs(fr.branch_values[b] - sel.lambda_k)) for b in converging
    )
    assert drift < 1e-9


def test_run_vertex_flow_branches_monotone():
    g = interval(7)
    fr = run_vertex_flow(g, select(g, 3), steps=60)
    assert np.diff(fr.branch_values, axis=1).min() > -1e-8


def test_run_vertex_flow_complete_degenerate():
    g = complete(5)
    sel = select(g, 2)
    with pytest.raises(AssumptionViolated):
        run_vertex_flow(g, sel)
    fr = run_vertex_flow(g, sel, steps=60, allow_degenerate=True)
    assert fr.converged_count == 2
    assert "degenerate_lambda_k" in fr.warnings
    assert fr.branch_origins.count("ghost") == 4
    finals = fr.branch_values[:, -1]
    converging = [b for b in range(fr.n_branches) if abs(finals[b] - 5.0) < 0.05]
    assert len(converging) == 2
    assert sorted(fr.branch_origins[b] for b in converging) == ["ghost", "spectrum"]


@pytest.mark.parametrize(
    "g, k, sigma_max, nu",
    [
        # Two branches bound for higher Dirichlet eigenvalues are still
        # below lambda_5 at sigma = 1: a simple lambda_k fails loudly.
        (grid(7, 5), 5, 1.0, None),
        (interval(7), 7, 1.0, 7),
        # Petersen's lambda_7 is degenerate: at 1e3 the count is right, at
        # 1e2 a fourth branch has not yet passed it and a warning says so.
        (petersen(7, 3), 7, 1e3, 3),
        (petersen(7, 3), 7, 1e2, None),
    ],
    ids=["grid7x5-k5-1", "interval7-k7-1", "petersen-k7-1e3", "petersen-k7-1e2"],
)
def test_run_vertex_flow_certificate_at_small_sigma_max(g, k, sigma_max, nu):
    sel = select(g, k)
    if sel.simple and nu is None:
        with pytest.raises(FlowConsistencyError, match="vertex certificate failed"):
            run_vertex_flow(g, sel, sigma_max=sigma_max, steps=60)
        return
    fr = run_vertex_flow(g, sel, sigma_max=sigma_max, steps=60, allow_degenerate=True)
    if nu is None:
        assert fr.count_identity_ok is False
        assert any(w.startswith("vertex certificate failed") for w in fr.warnings)
    else:
        assert nu == nodal_decomposition(g, sel).nu
        assert fr.converged_count == nu
        assert fr.count_identity_ok is True
        assert not any(w.startswith("vertex certificate") for w in fr.warnings)


def test_run_vertex_flow_rejects_zero_vertices():
    g = interval(7)
    with pytest.raises(AssumptionViolated):
        run_vertex_flow(g, select(g, 2))


def test_check_edge_equivalence_small():
    g = interval(4)
    sel = select(g, 2)
    for sigma in (0.1, 0.7, 5.0):
        assert check_edge_equivalence(g, sel, sigma, trials=20) < 1e-10


def test_check_edge_equivalence_petersen():
    g = petersen(7, 3)
    sel = select(g, 7)
    assert check_edge_equivalence(g, sel, 0.9, trials=20) < 1e-10


def test_derivative_identity_on_flow_eigenvectors():
    g = interval(7)
    sg = subdivide(g, select(g, 3))
    spec = eigendecompose(bilinear_matrix(sg, 1.0))
    checked = 0
    for j in range(spec.n):
        if len(spec.group_of(j)) != 1:
            continue
        res = derivative_identity_check(sg, 1.0, spec.eigenvectors[:, j])
        assert res < 1e-5
        checked += 1
    assert checked >= 5


def test_derivative_identity_sigma_floor():
    g = interval(7)
    sg = subdivide(g, select(g, 3))
    with pytest.raises(ValueError):
        derivative_identity_check(sg, 0.0, np.ones(sg.n_total))


def test_derivative_identity_rejects_degenerate():
    # The alternating eigenvector of C_4 subdivides with full dihedral
    # symmetry, so B_sigma keeps degenerate pairs at every sigma.
    g = cycle(4)
    sg = subdivide(g, select(g, 4))
    spec = eigendecompose(bilinear_matrix(sg, 1.0))
    deg = [grp for grp in spec.groups if len(grp) > 1]
    assert deg
    u = spec.eigenvectors[:, deg[0][0]]
    with pytest.raises(DegenerateEigenvalue):
        derivative_identity_check(sg, 1.0, u)
