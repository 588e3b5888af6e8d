import os

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


def test_track_diagonal_true_crossing():
    # branches sigma and 1 - sigma cross at 0.5; eigenvectors are the axes,
    # so tracking must follow the analytic lines through the crossing.
    def fam(s):
        return np.diag([0.2 + s, 1.0 - s])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 21), 0.737, bracket_width=1e-6)
    start = fr.branch_values[:, 0]
    lo = int(np.argmin(start))
    np.testing.assert_allclose(fr.branch_values[lo], 0.2 + fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(
        fr.branch_values[1 - lo], 1.0 - fr.sigma_grid, atol=1e-12
    )
    ups = [c for c in fr.crossings if c.branch == lo]
    assert len(ups) == 1
    assert ups[0].sigma_hi - ups[0].sigma_lo <= 1e-6
    assert ups[0].sigma_lo <= 0.537 <= ups[0].sigma_hi


def test_track_avoided_crossing_follows_analytic_branches():
    eps = 1e-3

    def fam(s):
        return np.array([[s, eps], [eps, 1.0 - s]])

    fr = track_branches(fam, np.linspace(0.0, 1.0, 81), 0.5)
    disc = np.sqrt((2.0 * fr.sigma_grid - 1.0) ** 2 + 4.0 * eps * eps)
    upper = 0.5 * (1.0 + disc)
    lower = 0.5 * (1.0 - disc)
    got = np.sort(fr.branch_values, axis=0)
    np.testing.assert_allclose(got[0], lower, atol=1e-10)
    np.testing.assert_allclose(got[1], upper, atol=1e-10)
    # neither analytic branch crosses the midline
    assert len(fr.crossings) == 0


def test_expect_monotone_resolves_narrow_exchange():
    eps = 1e-5

    def fam(s):
        return np.array([[2.0 * s, eps], [eps, s]])

    fr = track_branches(
        fam, np.linspace(0.0, 1.0, 5), 0.5, expect_monotone=True
    )
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

    fr = track_branches(
        fam, np.linspace(0.0, 1.0, 5), 10.0, expect_monotone=True
    )
    assert fr.refinement_exhausted


def test_persistent_degenerate_pair_is_tracked():
    def fam(s):
        return np.diag([s, s, 1.0])

    fr = track_branches(fam, np.linspace(0.0, 0.5, 11), 2.0)
    got = np.sort(fr.branch_values, axis=0)
    np.testing.assert_allclose(got[0], fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(got[1], fr.sigma_grid, atol=1e-12)
    np.testing.assert_allclose(got[2], 1.0, atol=1e-12)


def test_threads_env_does_not_change_values(monkeypatch):
    g = c4()

    def fam(s):
        base = laplacian(g).matrix.copy()
        base[0, 0] += s
        return base

    grid = np.linspace(0.0, 1.0, 12)
    monkeypatch.setenv("NODALFLOW_THREADS", "1")
    one = track_branches(fam, grid, 2.0)
    monkeypatch.setenv("NODALFLOW_THREADS", "4")
    four = track_branches(fam, grid, 2.0)
    np.testing.assert_array_equal(one.branch_values, four.branch_values)
    assert os.environ["NODALFLOW_THREADS"] == "4"

    # A block whose eigenvectors turn by 90 degrees near sigma = 0.45 looks
    # like an exchange of its two constant branches on the coarse grid, so
    # the monotone check refines there; the third branch crosses the
    # reference at sigma = 0.7. Fourteen points leave a short last chunk
    # for three threads.
    def turning(s):
        angle = (np.pi / 2) / (1.0 + np.exp(-(s - 0.45) / 0.01))
        c, t = np.cos(angle), np.sin(angle)
        R = np.array([[c, -t], [t, c]])
        M = np.zeros((3, 3))
        M[:2, :2] = R @ np.diag([3.0, 4.0]) @ R.T
        M[2, 2] = 0.5 + s
        return M

    grid = np.linspace(0.0, 1.0, 14)
    runs = []
    for n in ("1", "3", "4"):
        monkeypatch.setenv("NODALFLOW_THREADS", n)
        runs.append(
            track_branches(turning, grid, 1.2, bracket_width=1e-6, expect_monotone=True)
        )
    assert len(runs[0].sigma_grid) > len(grid)
    assert len(runs[0].crossings) == 1
    for fr in runs[1:]:
        np.testing.assert_array_equal(fr.sigma_grid, runs[0].sigma_grid)
        np.testing.assert_array_equal(fr.branch_values, runs[0].branch_values)
        assert fr.crossings == runs[0].crossings
