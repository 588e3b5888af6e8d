import numpy as np
import pytest

from nodalflow.dirichlet import (
    component_first_eigenpairs,
    d_connected_components,
    dirichlet_problem,
    dirichlet_spectrum,
    is_signed,
)
from nodalflow.edge_flow import build_perturbation, sign_preserving_graph
from nodalflow.errors import EmptyInterior, NotAComponent
from nodalflow.families import interval, petersen
from nodalflow.graph_core import laplacian
from nodalflow.nodal import nodal_decomposition, select_eigenpair
from nodalflow.spectra import eigendecompose, multiplicity_of
from nodalflow.vertex_flow import limit_graph, restrict_eigenvector, subdivide


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


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


def test_d_connected_components_split_interior():
    g = interval(7)
    # Removing vertex 3 from the interior splits the path in two.
    comps = d_connected_components(g, (0, 1, 2, 4, 5, 6))
    assert comps == ((0, 1, 2), (4, 5, 6))


def test_d_components_of_limit_graph_are_strong_domains():
    for g, k in ((interval(7), 3), (petersen(7, 3), 7)):
        sel = select(g, k)
        sg = subdivide(g, sel)
        comps = d_connected_components(limit_graph(sg), range(sg.n_base))
        nd = nodal_decomposition(g, sel)
        assert comps == nd.strong_domains


def test_dirichlet_matrix_of_limit_base_matches_sigma_one_flow():
    for g, k in ((interval(4), 2), (petersen(7, 3), 7)):
        sel = select(g, k)
        sg = subdivide(g, sel)
        dp = dirichlet_problem(limit_graph(sg), range(sg.n_base))
        L1 = laplacian(sign_preserving_graph(g, build_perturbation(g, sel))).matrix
        np.testing.assert_allclose(dp.matrix, L1, atol=1e-12)


def test_lambda_k_multiplicity_in_dirichlet_spectrum():
    g = interval(7)
    sel = select(g, 3)
    sg = subdivide(g, sel)
    spec = dirichlet_spectrum(dirichlet_problem(limit_graph(sg), range(sg.n_base)))
    assert multiplicity_of(spec, sel.lambda_k) == 3
    np.testing.assert_allclose(spec.eigenvalues[:3], sel.lambda_k, atol=1e-10)


def test_component_first_eigenpairs_golden():
    for g, k, nu in ((interval(7), 3, 3), (petersen(7, 3), 7, 3)):
        sel = select(g, k)
        sg = subdivide(g, sel)
        reports = component_first_eigenpairs(limit_graph(sg), range(sg.n_base))
        assert len(reports) == nu
        for rep in reports:
            assert rep.simple
            assert rep.signed
            assert rep.lambda_1 == pytest.approx(sel.lambda_k, abs=1e-8)


def test_restricted_eigenvector_satisfies_dirichlet_equation():
    g = petersen(7, 3)
    sel = select(g, 7)
    sg = subdivide(g, sel)
    lim = limit_graph(sg)
    for comp in d_connected_components(lim, range(sg.n_base)):
        restricted = restrict_eigenvector(sg, np.asarray(sel.psi), comp)
        dp = dirichlet_problem(lim, comp)
        sub = restricted[np.array(comp)]
        resid = np.max(np.abs(dp.matrix @ sub - sel.lambda_k * sub))
        assert resid < 1e-8
        outside = np.setdiff1d(np.arange(sg.n_total), np.array(comp))
        assert np.all(restricted[outside] == 0.0)


def test_restrict_eigenvector_rejects_non_component():
    g = interval(7)
    sel = select(g, 3)
    sg = subdivide(g, sel)
    # Strong domains of psi_3 are (0,1), (2,3,4), (5,6); anything else,
    # including strict subsets, is refused.
    with pytest.raises(NotAComponent):
        restrict_eigenvector(sg, np.asarray(sel.psi), (1, 2))
    with pytest.raises(NotAComponent):
        restrict_eigenvector(sg, np.asarray(sel.psi), (0,))
    with pytest.raises(ValueError):
        restrict_eigenvector(sg, np.ones(3), (0, 1))


def test_is_signed():
    assert is_signed(np.array([0.2, 0.5, 1.0]))
    assert is_signed(np.array([-0.2, -0.5, -1.0]))
    assert not is_signed(np.array([0.2, -0.5, 1.0]))
    assert not is_signed(np.array([0.2, 0.0, 1.0]))
