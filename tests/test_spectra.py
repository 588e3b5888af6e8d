import numpy as np
import pytest

from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.spectra import (
    SIGN_TOL,
    _sign_normalize,
    eigendecompose,
    group_tolerance,
    multiplicity_of,
    track_branches,
)


def c4():
    return WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))


def test_group_tolerance_floors_at_absolute():
    assert group_tolerance(0.0) == 1e-8
    assert group_tolerance(0.5) == 1e-8
    assert group_tolerance(100.0) == 1e-6


def test_eigendecompose_sorted_and_grouped():
    spec = eigendecompose(laplacian(c4()))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    assert spec.groups == ((0,), (1, 2), (3,))
    assert spec.group_of(1) == (1, 2)
    assert spec.group_of(2) == (1, 2)


def test_eigendecompose_accepts_plain_ndarray():
    spec = eigendecompose(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_sign_convention_first_large_entry_positive():
    spec = eigendecompose(laplacian(c4()))
    for j in range(4):
        v = spec.eigenvectors[:, j]
        lead = v[np.abs(v) > 1e-12][0]
        assert lead > 0
    # Leading entries that are zero or below SIGN_TOL do not decide the sign.
    t = SIGN_TOL / 10
    vecs = np.array([[0.0, t, -t], [-t, -0.6, t], [-0.8, 0.8, -t]])
    expected = np.array([[0.0, -t, -t], [t, 0.6, t], [0.8, -0.8, -t]])
    np.testing.assert_array_equal(_sign_normalize(vecs), expected)


def test_eigenvectors_orthonormal():
    spec = eigendecompose(laplacian(c4()))
    gram = spec.eigenvectors.T @ spec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_multiplicity_of():
    spec = eigendecompose(laplacian(c4()))
    assert multiplicity_of(spec, 2.0) == 2
    assert multiplicity_of(spec, 4.0) == 1
    assert multiplicity_of(spec, 1.7) == 0


def test_track_branches_rejects_bad_grid():
    with pytest.raises(ValueError):
        track_branches(lambda s: np.diag([s]), [0.0], 0.5)
    with pytest.raises(ValueError):
        track_branches(lambda s: np.diag([s]), [0.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        track_branches(lambda s: np.diag([s]), [0.0, np.nan, 1.0], 0.5)


def test_track_diagonal_true_crossing():
    # branches 0.2 + sigma and 0.6 + 0.2 sigma cross at 0.5; eigenvectors are
    # the axes, so tracking must follow the analytic lines through the
    # crossing. Only the steeper one reaches the reference, at 0.737.
    def fam(s):
        return np.diag([0.2 + s, 0.6 + 0.2 * s])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 21), 0.937)
    assert not fr.refinement_exhausted
    np.testing.assert_allclose(fr.branch_values[0], 0.2 + fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(fr.branch_values[1], 0.6 + 0.2 * fr.sigma_grid, atol=1e-12)
    assert len(fr.crossings) == 1
    c = fr.crossings[0]
    assert c.branch == 0
    assert c.sigma_hi - c.sigma_lo <= 1e-6
    assert c.sigma_lo <= 0.737 <= c.sigma_hi


def test_track_avoided_crossing_follows_analytic_branches():
    # The diagonal lines 2 sigma and 0.5 + sigma would cross at sigma = 0.5;
    # the coupling eps opens a gap there, and each tracked branch must stay
    # on its own adiabatic curve: the upper one passes the reference 1.0 at
    # 0.5 - eps / sqrt(2), the lower one at 0.5 + eps / sqrt(2).
    eps = 1e-3

    def fam(s):
        return np.array([[2.0 * s, eps], [eps, 0.5 + s]])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 81), 1.0)
    assert not fr.refinement_exhausted
    disc = np.sqrt((fr.sigma_grid - 0.5) ** 2 + 4.0 * eps * eps)
    lower = 0.5 * (3.0 * fr.sigma_grid + 0.5 - disc)
    upper = 0.5 * (3.0 * fr.sigma_grid + 0.5 + disc)
    np.testing.assert_allclose(fr.branch_values[0], lower, atol=1e-10)
    np.testing.assert_allclose(fr.branch_values[1], upper, atol=1e-10)
    assert [c.branch for c in fr.crossings] == [0, 1]
    for c, at in zip(fr.crossings, (0.5 + eps / np.sqrt(2), 0.5 - eps / np.sqrt(2))):
        assert c.sigma_hi - c.sigma_lo <= 1e-6
        assert c.sigma_lo <= at <= c.sigma_hi


def test_expect_monotone_resolves_narrow_exchange():
    eps = 1e-5

    def fam(s):
        return np.array([[2.0 * s, eps], [eps, s]])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 5), 0.5)
    assert not fr.refinement_exhausted
    assert np.diff(fr.branch_values, axis=1).min() > -1e-10
    finals = np.sort(fr.branch_values[:, -1])
    disc = np.sqrt(1.0 + 4.0 * eps * eps)
    np.testing.assert_allclose(finals, [0.5 * (3 - disc), 0.5 * (3 + disc)], atol=1e-10)


def test_discontinuous_family_sets_exhausted_under_monotone():
    def fam(s):
        if s < 0.5:
            return np.diag([1.0, 2.0])
        return np.diag([2.0, 3.0])[::-1, ::-1] * 0 + np.diag([3.0, 0.5])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 5), 10.0)
    assert fr.refinement_exhausted


def test_persistent_degenerate_pair_is_tracked():
    def fam(s):
        return np.diag([s, s, 1.0])

    fr = track_branches(fam, np.linspace(0.0, 0.5, 11), 2.0)
    got = np.sort(fr.branch_values, axis=0)
    np.testing.assert_allclose(got[0], fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(got[1], fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(got[2], 1.0, atol=1e-12)


def test_refinement_and_crossing_in_one_walk():
    # A block whose eigenvectors turn by 90 degrees near sigma = 0.45 looks
    # like an exchange of its two constant branches on the coarse grid, so
    # the monotone check refines there (14 -> 16 points). The third
    # diagonal entry, branch 0 at sigma = 0, crosses the reference at
    # sigma = 0.7.
    def turning(s):
        angle = (np.pi / 2) / (1.0 + np.exp(-(s - 0.45) / 0.01))
        c, t = np.cos(angle), np.sin(angle)
        R = np.array([[c, -t], [t, c]])
        M = np.zeros((3, 3))
        M[:2, :2] = R @ np.diag([3.0, 4.0]) @ R.T
        M[2, 2] = 0.5 + s
        return M

    fr = track_branches(turning, np.linspace(0.0, 1.0, 14), 1.2)
    assert len(fr.sigma_grid) == 16
    assert not fr.refinement_exhausted
    assert len(fr.crossings) == 1
    c = fr.crossings[0]
    assert c.branch == 0
    assert c.sigma_hi - c.sigma_lo <= 1e-6
    assert c.sigma_lo <= 0.7 <= c.sigma_hi
    assert np.diff(fr.branch_values, axis=1).min() > -1e-10
