import numpy as np
import pytest

from nodalflow.dirichlet import (
    component_first_eigenpairs,
    d_connected_components,
    dirichlet_problem,
    dirichlet_spectrum,
    is_signed,
)
from nodalflow.edge_flow import build_perturbation, flow_matrix, sign_preserving_graph
from nodalflow.errors import EmptyInterior, NotAComponent
from nodalflow.families import generate_connected_er, grid, interval, petersen
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import nodal_decomposition, select_eigenpair
from nodalflow.spectra import eigendecompose
from nodalflow.vertex_flow import restrict_eigenvector

from _oracles import limit_graph, multiplicity_of


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def limit_of(g, sel):
    """The oracle's sigma -> infinity subdivision of g along sel's
    sign-change edges."""
    return WeightedGraph(*limit_graph(g.n, g.edges, sel.psi, g.diag_extra))


def test_dirichlet_problem_path_interior():
    g = interval(5)
    dp = dirichlet_problem(g, (3, 1, 2, 2))
    assert dp.interior == (1, 2, 3)
    L = laplacian(g).matrix
    np.testing.assert_allclose(dp.matrix, L[1:4, 1:4])
    # Full degrees survive the reduction: corner entries keep weight from
    # the deleted boundary rows.
    assert dp.matrix[0, 0] == pytest.approx(2.0)


def test_dirichlet_problem_full_interior_is_laplacian():
    g = interval(5)
    dp = dirichlet_problem(g, range(5))
    np.testing.assert_allclose(dp.matrix, laplacian(g).matrix)


def test_dirichlet_problem_validation():
    g = interval(5)
    with pytest.raises(EmptyInterior):
        dirichlet_problem(g, ())
    with pytest.raises(ValueError):
        dirichlet_problem(g, (0, 7))
    with pytest.raises(EmptyInterior):
        d_connected_components(g, ())


@pytest.mark.parametrize("interior", [(-1, 0), (0, 99)], ids=["negative", "past-n"])
def test_interior_out_of_range_is_refused_alike(interior):
    # A negative index must not wrap into the component labels, and one past
    # n must not fail with a bare IndexError: every Dirichlet entry point
    # refuses both as dirichlet_problem does.
    g = grid(4, 3)
    for f in (dirichlet_problem, d_connected_components, component_first_eigenpairs):
        with pytest.raises(ValueError, match="interior vertices out of range for n=12"):
            f(g, interior)


def test_d_connected_components_split_interior():
    g = interval(7)
    # Removing vertex 3 from the interior splits the path in two.
    comps = d_connected_components(g, (0, 1, 2, 4, 5, 6))
    assert comps == ((0, 1, 2), (4, 5, 6))


def test_d_components_of_limit_graph_are_strong_domains():
    for g, k in ((interval(7), 3), (petersen(7, 3), 7)):
        sel = select(g, k)
        comps = d_connected_components(limit_of(g, sel), range(g.n))
        nd = nodal_decomposition(g, sel)
        assert comps == nd.strong_domains


def test_dirichlet_matrix_of_limit_base_matches_sigma_one_flow():
    # run_vertex_flow reads its Dirichlet multiplicity off L + P.
    er = generate_connected_er(20, 0.3, 303).graph
    for g, k in ((interval(4), 2), (petersen(7, 3), 7), (grid(7, 5), 5), (er, 20)):
        sel = select(g, k)
        pert = build_perturbation(g, sel)
        dp = dirichlet_problem(limit_of(g, sel), range(g.n))
        L1 = laplacian(sign_preserving_graph(g, pert)).matrix
        np.testing.assert_allclose(dp.matrix, L1, atol=1e-12)
        np.testing.assert_allclose(dp.matrix, flow_matrix(pert, 1.0).matrix, atol=1e-12)


def test_lambda_k_multiplicity_in_dirichlet_spectrum():
    g = interval(7)
    sel = select(g, 3)
    spec = dirichlet_spectrum(dirichlet_problem(limit_of(g, sel), range(g.n)))
    assert multiplicity_of(spec, sel.lambda_k) == 3
    np.testing.assert_allclose(spec.eigenvalues[:3], sel.lambda_k, atol=1e-10)


def test_component_first_eigenpairs_golden():
    for g, k, nu in ((interval(7), 3, 3), (petersen(7, 3), 7, 3)):
        sel = select(g, k)
        reports = component_first_eigenpairs(limit_of(g, sel), range(g.n))
        assert len(reports) == nu
        for rep in reports:
            assert rep.simple
            assert rep.signed
            assert rep.lambda_1 == pytest.approx(sel.lambda_k, abs=1e-8)


def test_restricted_eigenvector_satisfies_dirichlet_equation():
    g = petersen(7, 3)
    sel = select(g, 7)
    pert = build_perturbation(g, sel)
    lim = limit_of(g, sel)
    for comp in d_connected_components(lim, range(g.n)):
        restricted = restrict_eigenvector(g, pert, np.asarray(sel.psi), comp)
        dp = dirichlet_problem(lim, comp)
        sub = restricted[np.array(comp)]
        resid = np.max(np.abs(dp.matrix @ sub - sel.lambda_k * sub))
        assert resid < 1e-8
        outside = np.setdiff1d(np.arange(g.n + len(pert.w)), np.array(comp))
        assert np.all(restricted[outside] == 0.0)


def test_restrict_eigenvector_rejects_non_component():
    g = interval(7)
    sel = select(g, 3)
    pert = build_perturbation(g, sel)
    # Strong domains of psi_3 are (0,1), (2,3,4), (5,6); anything else,
    # including strict subsets, is refused.
    with pytest.raises(NotAComponent):
        restrict_eigenvector(g, pert, np.asarray(sel.psi), (1, 2))
    with pytest.raises(NotAComponent):
        restrict_eigenvector(g, pert, np.asarray(sel.psi), (0,))
    with pytest.raises(ValueError):
        restrict_eigenvector(g, pert, np.ones(3), (0, 1))


def test_is_signed():
    assert is_signed(np.array([0.2, 0.5, 1.0]))
    assert is_signed(np.array([-0.2, -0.5, -1.0]))
    assert not is_signed(np.array([0.2, -0.5, 1.0]))
    assert not is_signed(np.array([0.2, 0.0, 1.0]))
