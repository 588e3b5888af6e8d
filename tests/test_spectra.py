import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from nodalflow import cli, dirichlet, edge_flow, spectra, vertex_flow
from nodalflow.edge_flow import (
    build_perturbation,
    derivative_identity_check,
    flow_matrix,
    nodal_count_direct,
    run_edge_flow,
)
from nodalflow.families import complete, cycle, generate_connected_er, grid, interval, petersen
from nodalflow.fileio import save_graph
from nodalflow.graph_core import LaplacianMatrix, WeightedGraph, laplacian
from nodalflow.nodal import select_eigenpair
from nodalflow.spectra import (
    SIGN_TOL,
    _count_below,
    _sign_normalize,
    eigendecompose,
    group_tolerance,
    track_branches,
)
from nodalflow.vertex_flow import bilinear_matrix, run_vertex_flow

from _oracles import chain_cluster, count_below_mp, multiplicity_of


def c4():
    return WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))


def test_group_tolerance_floors_at_absolute():
    assert group_tolerance(0.0) == 1e-8
    assert group_tolerance(0.5) == 1e-8
    assert group_tolerance(100.0) == 1e-6
    np.testing.assert_array_equal(
        group_tolerance(np.array([-300.0, -0.5, 0.0, 2.0])), [3e-6, 1e-8, 1e-8, 2e-8]
    )


def test_eigendecompose_sorted_and_grouped():
    spec = eigendecompose(laplacian(c4()))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    assert spec.groups == ((0,), (1, 2), (3,))
    assert spec.group_of(1) == (1, 2)
    assert spec.group_of(2) == (1, 2)


@st.composite
def near_degenerate_spectra(draw):
    """Ascending values, |value| both below and above 1, each gap a multiple
    of the group tolerance at the value before it: 0, well under, just
    under, at, just over, well over, or far beyond."""
    base = draw(st.sampled_from([-50.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5, 1e4]))
    vals = [base + draw(st.floats(-1.0, 1.0))]
    for _ in range(draw(st.integers(0, 15))):
        factor = draw(st.sampled_from([0.0, 0.5, 1 - 1e-4, 1.0, 1 + 1e-4, 2.0, 1e6]))
        vals.append(vals[-1] + factor * group_tolerance(vals[-1]))
    return np.array(vals)


@settings(max_examples=300, deadline=None)
@given(near_degenerate_spectra())
@example(np.array([0.0, 1e-8]))  # a gap of exactly the tolerance
@example(np.array([-50.0, -49.9999995]))  # the tolerance at -50, the value before it
def test_cluster_matches_the_chain_rule_loop(vals):
    assert spectra._cluster(vals) == chain_cluster(vals)


@settings(max_examples=100, deadline=None)
@given(near_degenerate_spectra())
def test_group_of_finds_the_group_holding_each_index(vals):
    spec = spectra.Spectrum(vals, np.eye(len(vals)))
    groups = chain_cluster(vals)
    for index in range(len(vals)):
        assert spec.group_of(index) == next(g for g in groups if index in g)
    for index in (-1, len(vals)):
        with pytest.raises(IndexError):
            spec.group_of(index)


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


def _assert_counts_like_eigvalsh(M, t):
    """_count_below at t against eigvalsh; no eigenvalue may be within 1e-6
    of t, where the two could differ by rounding."""
    vals = np.linalg.eigvalsh(M)
    assert np.min(np.abs(vals - t)) >= 1e-6
    assert _count_below(M, t) == int(np.sum(vals <= t))


def _zero_diagonal(n, seed):
    rng = np.random.default_rng(seed)
    M = np.triu(rng.standard_normal((n, n)), 1)
    return M + M.T


@pytest.mark.parametrize(
    "M",
    [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
     _zero_diagonal(4, 1), _zero_diagonal(6, 2), _zero_diagonal(9, 3)],
    ids=["2x2", "3x3", "4x4", "6x6", "9x9"],
)
def test_count_below_reads_two_by_two_pivots(M):
    # A zero diagonal leaves Bunch-Kaufman no 1 x 1 pivot at t = 0, so the
    # factorization holds 2 x 2 blocks, each one negative eigenvalue.
    _, ipiv, _ = scipy.linalg.lapack.dsytrf(M)
    assert np.any(ipiv < 0)
    _assert_counts_like_eigvalsh(M, 0.0)


@pytest.mark.parametrize(
    "g,t,at_or_below",
    [(interval(2), 0.0, 1), (interval(2), 2.0, 2), (interval(3), 0.0, 1),
     (interval(3), 1.0, 2), (interval(3), 3.0, 3), (cycle(4), 2.0, 3),
     (complete(4), 0.0, 1), (complete(4), 4.0, 4)],
    ids=["P2-0", "P2-2", "P3-0", "P3-1", "P3-3", "C4-2", "K4-0", "K4-4"],
)
def test_count_below_at_an_exactly_singular_shift(g, t, at_or_below):
    # L - tI is exactly singular and its factorization meets exact zero
    # pivots: each is an eigenvalue equal to t, counted at or below t. C4 at
    # t = 2 also takes a 2 x 2 pivot.
    L = laplacian(g).matrix
    assert _count_below(L, t) == at_or_below


def test_count_below_takes_t_only_when_closed():
    # An eigenvalue exactly on t is counted at or below t; its neighbouring
    # doubles fall on their own sides.
    t = 1.0 + group_tolerance(1.0)
    D = np.diag([np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf), 0.5, 3.0])
    assert _count_below(D, t) == 3


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: arrays(float, (n, n), elements=st.floats(min_value=-10.0, max_value=10.0))
    ),
    st.booleans(),
    st.floats(min_value=-25.0, max_value=25.0),
)
def test_count_below_matches_eigvalsh(A, zero_diagonal, t):
    # A zero diagonal makes 2 x 2 pivots likely wherever |t| is small.
    M = np.triu(A, 1 if zero_diagonal else 0)
    M = M + np.triu(M, 1).T
    assume(np.min(np.abs(np.linalg.eigvalsh(M) - t)) >= 1e-6)
    _assert_counts_like_eigvalsh(M, t)


def test_count_below_mp_matches_eigvalsh_on_separated_matrices():
    # Random symmetric matrices with t at least 1e-3 from every eigenvalue,
    # far beyond double rounding: the 40-digit count is eigvalsh's, on the
    # elimination path and, where a zero diagonal meets t = 0, the eigsy one.
    rng = np.random.default_rng(20240)
    for n in range(1, 13):
        A = rng.standard_normal((n, n))
        for M in (A + A.T, np.triu(A, 1) + np.triu(A, 1).T):
            vals = np.linalg.eigvalsh(M)
            for t in (0.0, *(vals[:-1] + vals[1:]) / 2, vals[0] - 1.0, vals[-1] + 1.0):
                if np.min(np.abs(vals - t)) >= 1e-3:
                    assert count_below_mp(M, t) == int(np.sum(vals < t)), (n, t)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]], ids=["tie-first", "tie-last"])
def test_count_below_mp_resolves_a_tie_double_precision_cannot(order):
    # [[1, e], [e, 1]] with e = 1e-20 has the eigenvalues 1 - e and 1 + e,
    # which round to 1 in double precision, so eigvalsh reads none below
    # t = 1; at 40 digits one lies below it. The pair's first pivot is
    # exactly zero, so the count reads the rest by eigsy, after the other
    # block's pivot where that comes first.
    M = np.array([[1.0, 1e-20, 0.0], [1e-20, 1.0, 0.0], [0.0, 0.0, 3.0]])[np.ix_(order, order)]
    assert np.sum(np.linalg.eigvalsh(M) < 1.0) == 0
    assert count_below_mp(M, 1.0) == 1
    assert count_below_mp(M, np.nextafter(1.0, 0.0)) == 0
    assert count_below_mp(M, np.nextafter(1.0, 2.0)) == 2


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


def test_degenerate_start_cluster_is_labelled_by_value_path():
    # Three branches start in the zero eigenvalue, in a rotated basis, and
    # rise at slopes 1, 2 and 3: their labels follow that order.
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]

    def fam(s):
        return Q @ np.diag([3.0 * s, s, 2.0 * s, 1.0 + s]) @ Q.T

    fr = track_branches(fam, np.linspace(0.0, 1.0, 9), 1.2)
    np.testing.assert_allclose(
        fr.branch_values[:3], np.outer([1.0, 2.0, 3.0], fr.sigma_grid), atol=1e-12
    )
    crossings = [(c.branch, round(c.sigma_lo, 3)) for c in fr.crossings]
    assert crossings == [(1, 0.6), (2, 0.4), (3, 0.2)]



def _nodes(values_a, values_b, vecs_b):
    """Adjacent walk nodes: eigenvectors I at a and vecs_b at b."""
    a = spectra._Node(0.0, spectra.Spectrum(np.array(values_a), np.eye(len(values_a))))
    return a, spectra._Node(1.0, spectra.Spectrum(np.array(values_b), vecs_b))


def _recorded_assignments(monkeypatch) -> list:
    calls, solve = [], spectra.linear_sum_assignment

    def recorded(cost):
        calls.append(cost)
        return solve(cost)

    monkeypatch.setattr(spectra, "linear_sum_assignment", recorded)
    return calls


def _minima_collide(cost) -> bool:
    """Whether two rows of cost have their minima in one column: the
    assignment solver searches only from such rows."""
    return len(np.unique(np.argmin(cost, axis=1))) < len(cost)


def test_match_step_takes_dominant_row_maxima_as_the_assignment(monkeypatch):
    # b's eigenvectors are a random orthogonal matrix near the identity, its
    # columns shuffled and signed: every row's largest overlap is dominant,
    # so the one recorded cost's row minima lie in distinct columns, the
    # solver's warm start returns them with no search, and perm is them:
    # scipy's optimum and the inverse of the shuffle.
    calls = _recorded_assignments(monkeypatch)
    rng = np.random.default_rng(11)
    for n in (2, 5, 30, 120):
        for _ in range(4):
            X = rng.standard_normal((n, n)) * 0.2 / np.sqrt(n)
            order = rng.permutation(n)
            vecs_b = scipy.linalg.expm(X - X.T)[:, order] * rng.choice([-1.0, 1.0], n)
            a, b = _nodes(np.arange(n, dtype=float), np.arange(n, dtype=float), vecs_b)
            ok, perm = spectra._match_step(a, b, first=False)
            assert ok and len(calls) == 1
            cost = calls.pop()
            assert not _minima_collide(cost)
            assert perm.tolist() == np.argmin(cost, axis=1).tolist()
            assert perm.tolist() == linear_sum_assignment(-np.abs(vecs_b))[1].tolist()
            assert perm.tolist() == np.argsort(order).tolist()


def test_match_step_solves_the_assignment_without_a_dominant_overlap(monkeypatch):
    # Two columns turned by 45 degrees overlap both of theirs at 1/sqrt(2):
    # their rows' minima of the recorded cost share a column, so the solver
    # searches, and perm is its answer.
    calls = _recorded_assignments(monkeypatch)
    c = np.sqrt(0.5)
    vecs_b = np.eye(6)
    vecs_b[np.ix_([2, 4], [2, 4])] = [[c, -c], [c, c]]
    vecs_b = vecs_b[:, [1, 0, 2, 3, 5, 4]]
    a, b = _nodes(np.arange(6.0), np.arange(6.0), vecs_b)
    ok, perm = spectra._match_step(a, b, first=False)
    assert ok and len(calls) == 1
    assert _minima_collide(calls[0])
    assert perm.tolist() == linear_sum_assignment(-np.abs(vecs_b))[1].tolist()
    assert perm[[0, 1, 3]].tolist() == [1, 0, 3]


@st.composite
def assignment_costs(draw):
    """A square cost of size 1-60 and whether its entries are continuous:
    normal entries; minus the overlaps |expm(X - X^T)| of a random
    rotation, columns permuted; minus those of rotations on blocks of 1-4
    positions, columns permuted; or integers 0-3, with ties."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["normal", "overlaps", "blocks", "integers"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.standard_normal((n, n)), True
    if kind == "integers":
        return rng.integers(0, 4, (n, n)).astype(float), False
    if kind == "overlaps":
        X = rng.standard_normal((n, n)) * draw(st.floats(0.01, 3.0)) / np.sqrt(n)
        R = scipy.linalg.expm(X - X.T)
    else:
        R, start = np.zeros((n, n)), 0
        while start < n:
            m = min(n - start, int(rng.integers(1, 5)))
            X = rng.standard_normal((m, m))
            R[start:start + m, start:start + m] = scipy.linalg.expm(X - X.T)
            start += m
    return -np.abs(R)[:, rng.permutation(n)], True


@settings(max_examples=300, deadline=None)
@given(assignment_costs())
def test_linear_sum_assignment_matches_scipys(drawn):
    # The in-package solver returns a permutation whose cost is scipy's
    # optimum within n eps max|cost|, on continuous costs, whose optimum is
    # unique, scipy's permutation itself, and wherever the row minima lie in
    # distinct columns, exactly them.
    cost, continuous = drawn
    n = len(cost)
    rows, cols = spectra.linear_sum_assignment(cost)
    best = linear_sum_assignment(cost)[1]
    assert rows.tolist() == list(range(n))
    assert sorted(cols.tolist()) == list(range(n))
    tol = n * np.finfo(float).eps * np.max(np.abs(cost))
    assert abs(cost[rows, cols].sum() - cost[rows, best].sum()) <= tol
    if continuous:
        assert cols.tolist() == best.tolist()
    if not _minima_collide(cost):
        assert cols.tolist() == np.argmin(cost, axis=1).tolist()


INTERLACED = [(p, seed, k) for p in (0.2, 0.3, 0.5) for seed in (300, 301) for k in (5, 10, 15)]


@pytest.mark.parametrize("run", [run_edge_flow, run_vertex_flow], ids=["edge", "vertex"])
def test_accepted_steps_keep_each_position_isolated_by_interlacing(run, monkeypatch):
    # In a non-decreasing family, M(b) - M(a) is PSD. With eigenvalues lam
    # at a and mu at b, mu_i < lam_{i+1} means positions 0..i at a are
    # positions 0..i at b (Weyl). A position with such a gap on both sides
    # keeps its branch, so on each step the walk accepts, _match_step's
    # permutation fixes it. Gaps are settled by a margin of
    # 1e-12 n max(1, max|mu|).
    match, steps = spectra._match_step, {}

    def recorded(a, b, first):
        ok, perm = match(a, b, first)
        steps[a.sigma, b.sigma] = (a.spec.eigenvalues, b.spec.eigenvalues, perm)
        return ok, perm

    monkeypatch.setattr(spectra, "_match_step", recorded)
    flows = isolated = 0
    for p, seed, k in INTERLACED:
        g = generate_connected_er(20, p, seed).graph
        sel = select_eigenpair(eigendecompose(laplacian(g)), k)
        if not (sel.simple and sel.nowhere_zero):
            continue
        steps.clear()
        fr = run(g, sel, steps=40)
        if fr.refinement_exhausted:
            continue
        flows += 1
        for lo, hi in zip(fr.sigma_grid[:-1], fr.sigma_grid[1:]):
            lam, mu, perm = steps[lo, hi]
            margin = 1e-12 * len(mu) * max(1.0, float(np.max(np.abs(mu))))
            settled = mu[:-1] < lam[1:] - margin  # between positions i and i + 1
            alone = np.flatnonzero(np.r_[True, settled] & np.r_[settled, True])
            assert perm[alone].tolist() == alone.tolist(), (p, seed, k, lo, hi)
            isolated += alone.size
    assert flows >= 10 and isolated > 0


def test_match_step_rotates_an_arriving_degenerate_block_into_line():
    # A 3-dim block arrives turned a half turn about v = (7, 8, 9): its
    # overlaps with the departing block are |I - 2 v v^T / |v|^2|, whose best
    # assignment pairs the first vectors at 96/194 < OVERLAP_MIN, so the
    # block is matched as a subspace and rotated onto the departing one.
    v = np.array([7.0, 8.0, 9.0]) / np.sqrt(194.0)
    turn = 2.0 * np.outer(v, v) - np.eye(3)
    vecs_b = np.eye(5)
    vecs_b[1:4, 1:4] = turn
    a, b = _nodes([0.0, 1.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0, 2.0], vecs_b)
    assert abs(vecs_b[1, 1]) == pytest.approx(96.0 / 194.0)
    ok, perm = spectra._match_step(a, b, first=False)
    assert ok
    assert perm.tolist() == [0, 1, 3, 2, 4]
    np.testing.assert_allclose(b.vecs[:, perm], a.vecs, atol=1e-12)
    np.testing.assert_array_equal(b.spec.eigenvectors, vecs_b)


def test_match_step_refuses_a_block_whose_subspace_turned_away():
    # b's eigenvectors are the reflection I - 2 w w^T of a's, with w = (0, 0,
    # x, y, y, y, y), x^2 = 0.3 and 4 y^2 = 0.7. The best assignment keeps
    # every index (overlaps 1, 1, 0.4 and 0.65), so a's pair {1, 2} maps onto
    # b's, but the pairs' subspaces meet at cosines 1 and 1 - 2 x^2 = 0.4:
    # the step is refused although the indices match.
    w = np.concatenate([[0.0, 0.0, np.sqrt(0.3)], np.full(4, np.sqrt(0.7 / 4))])
    vecs_b = np.eye(7) - 2.0 * np.outer(w, w)
    values_a, values_b = [0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.5, 1.5, 2.0, 3.0, 4.0, 5.0]
    a, b = _nodes(values_a, values_b, vecs_b)
    ok, perm = spectra._match_step(a, b, first=False)
    assert not ok
    assert perm.tolist() == list(range(7))
    assert np.abs(vecs_b[2, 2]) == pytest.approx(0.4)


def test_flows_rotate_and_refuse_degenerate_blocks(monkeypatch):
    # The GP(8, 3) k=16 vertex flow rotates arriving blocks into line; the
    # grid 6x6 k=17 edge flow has steps refused because a block's subspace
    # turned away (a smallest principal cosine below OVERLAP_MIN). A block
    # is rotated where a matched overlap was below OVERLAP_MIN and the
    # departing and arriving blocks have one size; after the step, the
    # departing columns' overlaps with their matched columns form a
    # symmetric matrix whose diagonal is at least OVERLAP_MIN, as the
    # orthogonal Procrustes rotation makes it (U S U^T, S the principal
    # cosines).
    match, svdvals = spectra._match_step, spectra.scipy.linalg.svdvals
    low, rotated, refused = [], [], []

    def spy_match(a, b, first):
        before = len(low)
        O = np.abs(a.vecs.T @ b.vecs)
        ok, perm = match(a, b, first)
        refused.append(not ok and any(low[before:]))
        if not ok:
            return ok, perm
        for i in np.flatnonzero(O[np.arange(len(O)), perm] < spectra.OVERLAP_MIN):
            Ga, Hb = a.spec.group_of(i), b.spec.group_of(perm[i])
            if len(Ga) == len(Hb) > 1:
                overlaps = a.vecs[:, Ga].T @ b.vecs[:, perm[list(Ga)]]
                np.testing.assert_allclose(overlaps, overlaps.T, rtol=0.0, atol=1e-12)
                assert np.all(np.diagonal(overlaps) >= spectra.OVERLAP_MIN)
                rotated.append(i)
        return ok, perm

    def spy_svdvals(M):
        values = svdvals(M)
        low.append(values[-1] < spectra.OVERLAP_MIN)
        return values

    monkeypatch.setattr(spectra, "_match_step", spy_match)
    monkeypatch.setattr(spectra.scipy.linalg, "svdvals", spy_svdvals)
    g = petersen(8, 3)
    run_vertex_flow(g, select_eigenpair(eigendecompose(laplacian(g)), 16), steps=40)
    assert rotated
    g = grid(6, 6)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 17)
    run_edge_flow(g, sel, steps=60, allow_degenerate=True)
    assert any(refused)

def turning(s):
    # A block whose eigenvectors turn by 90 degrees near sigma = 0.45, plus
    # a diagonal entry 0.5 + sigma.
    angle = (np.pi / 2) / (1.0 + np.exp(-(s - 0.45) / 0.01))
    c, t = np.cos(angle), np.sin(angle)
    R = np.array([[c, -t], [t, c]])
    M = np.zeros((3, 3))
    M[:2, :2] = R @ np.diag([3.0, 4.0]) @ R.T
    M[2, 2] = 0.5 + s
    return M


def test_refinement_and_crossing_in_one_walk():
    # The turning block looks like an exchange of its two constant branches
    # on the coarse grid, so the monotone check refines there (14 -> 16
    # points). The third diagonal entry, branch 0 at sigma = 0, crosses the
    # reference at sigma = 0.7.
    fr = track_branches(turning, np.linspace(0.0, 1.0, 14), 1.2)
    assert len(fr.sigma_grid) == 16
    assert not fr.refinement_exhausted
    assert len(fr.crossings) == 1
    c = fr.crossings[0]
    assert c.branch == 0
    assert c.sigma_hi - c.sigma_lo <= 1e-6
    assert c.sigma_lo <= 0.7 <= c.sigma_hi
    assert np.diff(fr.branch_values, axis=1).min() > -1e-10


def _step_count(points, n_hi=0):
    """A count that falls by one just past each of points (repeats fall
    together), as the number of eigenvalues <= t does where one passes t;
    the sigmas it reads are appended to the list returned with it."""
    reads = []

    def count(sigma, t):
        reads.append(sigma)
        return n_hi + sum(p >= sigma for p in points)

    return count, reads


def _bisected(points, lo, hi):
    """The crossing bisection's cells of [lo, hi] for a count falling at points."""
    count, _ = _step_count(points)
    return spectra._falls(count, lo, hi, count(lo, 0.0), count(hi, 0.0), 0.0)


@st.composite
def seeded_steps(draw):
    """A step [lo, hi], the points in it where a count falls (some twice, as
    symmetric pairs cross together), and seeds: some of the points (the rest
    missing), spurious sigmas in and around the step, in any order."""
    lo = draw(st.floats(min_value=0.0, max_value=1e3))
    hi = lo + 10.0 ** draw(st.floats(min_value=-6.5, max_value=1.0))
    assume(hi > lo)
    unit = st.floats(min_value=0.0, max_value=1.0)
    # Nothing falls, and no seed lies, at hi itself: a fall there is past
    # the step, and a seed there would hold a cell with no fall in it.
    points = [lo + f * (hi - lo) for f in draw(st.lists(unit, min_size=1, max_size=6))]
    points = [p for p in points if p < hi]
    assume(points)
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    exact = [p for p in points if draw(st.booleans())]
    spurious = [lo + f * (hi - lo) for f in draw(st.lists(
        st.floats(min_value=-0.5, max_value=1.5), max_size=4))]
    seeds = draw(st.permutations(exact + [s for s in spurious if s != hi]))
    return lo, hi, points, seeds


@settings(max_examples=300, deadline=None)
@given(seeded_steps())
def test_seeded_falls_are_the_bisections_cells(step):
    # On a count that never rises, seeded _falls returns plain bisection's
    # cells bit for bit, whichever seeds are exact, spurious or missing, and
    # reads no sigma twice. Where the seeds hold every fall it counts only
    # the two ends of each distinct cell that holds a seed in the step.
    lo, hi, points, seeds = step
    plain = _bisected(points, lo, hi)
    count, reads = _step_count(points)
    n_lo, n_hi = count(lo, 0.0), count(hi, 0.0)
    del reads[:]
    assert spectra._falls(count, lo, hi, n_lo, n_hi, 0.0, np.array(seeds)) == plain
    assert len(set(reads)) == len(reads)
    if set(points) <= set(seeds):
        seeded_cells = set(_bisected([s for s in seeds if lo <= s <= hi], lo, hi))
        assert len(reads) <= 2 * len(seeded_cells)
        assert set(reads) <= {end for cell in seeded_cells for end in cell}


def test_a_wrong_seed_falls_back_to_the_bisection():
    # Two falls, at 0.3 and 0.7; the second seed misses its cell, so the
    # seeded cells account for one fall of two and the step is bisected,
    # with the same cells as with no seeds, reading no sigma twice.
    points = [0.3, 0.7]
    plain = _bisected(points, 0.0, 1.0)
    assert len(plain) == 2
    count, reads = _step_count(points)
    assert spectra._falls(count, 0.0, 1.0, 2, 0, 0.0, np.array([0.3, 0.7 + 1e-5])) == plain
    assert len(set(reads)) == len(reads) > 4
    # With both seeds exact, two counts per cell.
    del reads[:]
    assert spectra._falls(count, 0.0, 1.0, 2, 0, 0.0, np.array([0.7, 0.3])) == plain
    assert sorted(reads) == sorted(end for cell in plain for end in cell)


@pytest.fixture(scope="module")
def benchmark_flows():
    """The benchmark's two flow families: the vertex flow of grid 10x10 at
    k=20 and the edge flow of grid 15x15 at k=9."""
    g = grid(10, 10)
    vert = build_perturbation(g, select_eigenpair(eigendecompose(laplacian(g)), 20))
    h = grid(15, 15)
    pert = build_perturbation(h, select_eigenpair(eigendecompose(laplacian(h)), 9))
    return {
        "vertex": lambda s: bilinear_matrix(vert, s).matrix,
        "edge": lambda s: flow_matrix(pert, s).matrix,
    }


@pytest.mark.parametrize(
    "flow, sigma",
    [("vertex", s) for s in (0.0, 1e-3, 1.0, 552.0, 1e4)]
    + [("edge", s) for s in (0.0, 0.3, 1.0)],
)
def test_values_only_solve_matches_full_solve(benchmark_flows, flow, sigma):
    M = benchmark_flows[flow](sigma)
    full = eigendecompose(M)
    values = eigendecompose(M, vectors=False)
    scale = max(1.0, float(np.max(np.abs(full.eigenvalues))))
    np.testing.assert_allclose(values.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12 * scale)
    assert values.groups == full.groups
    assert values.eigenvectors.shape == (M.shape[0], 0)
    assert values.eigenvectors.flags.writeable is False


def _bisection_depth(monkeypatch):
    """Wrap the crossing bisection; the one-item list returned holds how many
    of its calls are running."""
    depth, falls = [0], spectra._falls

    def bisect(*args):
        depth[0] += 1
        try:
            return falls(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectra, "_falls", bisect)
    return depth


def _record_solves(monkeypatch, *modules):
    """Wrap eigendecompose where each module calls it. Each solve appends
    (module name, vectors, inside the crossing bisection, matrix size) to
    the list returned."""
    solves, depth = [], _bisection_depth(monkeypatch)
    solve = spectra.eigendecompose

    for module in modules:
        def recorded(M, *, _name=module.__name__, **kwargs):
            size = len(M.matrix if isinstance(M, LaplacianMatrix) else M)
            solves.append((_name, kwargs.get("vectors", True), depth[0] > 0, size))
            return solve(M, **kwargs)

        monkeypatch.setattr(module, "eigendecompose", recorded)
    return solves


def test_only_value_reads_solve_without_vectors(monkeypatch):
    g = grid(4, 3)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 5)
    solves = _record_solves(monkeypatch, spectra, edge_flow, vertex_flow)
    depth, midpoints, bisected = _bisection_depth(monkeypatch), [], []
    factored, count_nonpositive = [], edge_flow._count_nonpositive
    count_below = spectra._count_below

    def recorded(A):
        factored.append(len(A))
        return count_nonpositive(A)

    def in_bisection(A, t):
        bisected.append((len(A), depth[0] > 0))
        return count_below(A, t)

    def family(sigma):
        if depth[0]:
            midpoints.append(sigma)
        return turning(sigma)

    monkeypatch.setattr(edge_flow, "_count_nonpositive", recorded)
    monkeypatch.setattr(spectra, "_count_below", in_bisection)

    # The default bisection factors the family's matrix once per midpoint
    # and solves nothing: every solve is a grid point's, with vectors.
    fr = track_branches(family, np.linspace(0.0, 1.0, 14), 1.2)
    assert fr.crossings and midpoints
    assert bisected == [(len(turning(0.0)), True)] * len(midpoints)
    assert sum(vectors for _, vectors, _, _ in solves) == len(fr.sigma_grid) == len(solves)
    assert not any(bisection for _, _, bisection, _ in solves)

    solves.clear()
    fr = run_vertex_flow(g, sel, steps=20)
    tracked = [s for s in solves if s[0] == spectra.__name__]
    assert all(vectors and not bisection for _, vectors, bisection, _ in tracked)
    assert len(tracked) == len(fr.sigma_grid)
    # The vertex flow counts its crossings on the values of the reduced
    # matrix, of size |G| + mu = 1 + 6 < g.n (lambda_5 is simple), through
    # its own binding.
    reduced = 1 + len(build_perturbation(g, sel).w)
    assert reduced < g.n
    bisection = [s for s in solves if s[2]]
    assert bisection
    assert set(bisection) == {(vertex_flow.__name__, False, True, reduced)}
    # The certificate's Dirichlet count is edge_flow's limit_multiplicity,
    # which solves nothing: it factors each sign class's ground-state
    # Laplacian once. Outside the grid and the bisection, the count solves
    # L once with vectors, then the reduced matrix for the flow's end.
    classes = [int(np.sum(sel.psi > 0)), int(np.sum(sel.psi < 0))]
    assert all(classes) and sum(classes) == g.n
    rest = [s for s in solves if s not in tracked and s not in bisection]
    assert rest == [(vertex_flow.__name__, True, False, g.n),
                    (vertex_flow.__name__, False, False, reduced)]
    assert factored == classes

    solves.clear()
    factored.clear()
    nodal_count_direct(g, sel)
    assert solves == [] and factored == classes


def test_crossing_bisection_never_clusters(monkeypatch):
    # Bisection solves read only a count of values, so their spectra never
    # build multiplicity groups; grid points cluster only where matching or
    # labelling reads groups.
    g = grid(4, 3)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 5)
    depth, cluster, inside = _bisection_depth(monkeypatch), spectra._cluster, []

    def recorded(vals):
        inside.append(depth[0] > 0)
        return cluster(vals)

    monkeypatch.setattr(spectra, "_cluster", recorded)
    assert run_vertex_flow(g, sel, steps=20).crossings
    assert inside and not any(inside)


@pytest.mark.parametrize(
    "method, size, k, steps",
    [("edge", (6, 6), 4, 60), ("edge", (6, 6), 33, 60), ("vertex", (4, 3), 5, 200)],
    ids=["edge-grid6x6-k4", "edge-grid6x6-k33", "vertex-grid4x3-k5"],
)
def test_branch_labels_do_not_depend_on_the_basis(monkeypatch, method, size, k, steps):
    # Grid 6x6's edge flows start from 13 degenerate clusters, and the vertex
    # flow's zero cluster holds L's kernel and the ghosts. The two drivers
    # return different bases for such clusters.
    g = grid(*size)
    sel = select_eigenpair(eigendecompose(laplacian(g)), k)
    run = run_edge_flow if method == "edge" else run_vertex_flow
    solve = spectra.eigendecompose
    flows = []
    for driver in ("evr", "evd"):
        def grid_solve(M, *, vectors=True, _driver=driver, **kwargs):
            if vectors:
                kwargs["driver"] = _driver
            return solve(M, vectors=vectors, **kwargs)

        monkeypatch.setattr(spectra, "eigendecompose", grid_solve)
        flows.append(run(g, sel, steps=steps))
    a, b = flows
    assert any(len(c) > 1 for c in spectra._cluster(a.branch_values[:, 0]))
    scale = max(1.0, float(np.max(np.abs(a.branch_values))))
    np.testing.assert_array_equal(a.sigma_grid, b.sigma_grid)
    np.testing.assert_allclose(a.branch_values, b.branch_values, rtol=0, atol=1e-11 * scale)
    assert a.crossings == b.crossings
    assert a.branch_origins == b.branch_origins
    assert (a.converged_count, a.count_identity_ok) == (b.converged_count, b.count_identity_ok)


def test_only_tracked_grid_points_use_divide_and_conquer(monkeypatch, tmp_path):
    # Each eigendecompose call is recorded as (module, driver, vectors,
    # inside track_branches, inside its crossing bisection).
    solves, depth = [], {"track": 0, "falls": 0}

    def nested(key, fn):
        def wrapped(*args, **kwargs):
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1
        return wrapped

    solve = spectra.eigendecompose
    for module in (spectra, edge_flow, vertex_flow, dirichlet, cli):
        def recorded(M, *, _name=module.__name__, **kwargs):
            solves.append((_name, kwargs.get("driver"), kwargs.get("vectors", True),
                           depth["track"] > 0, depth["falls"] > 0))
            return solve(M, **kwargs)

        monkeypatch.setattr(module, "eigendecompose", recorded)
    for module in (edge_flow, vertex_flow):
        monkeypatch.setattr(module, "track_branches", nested("track", spectra.track_branches))
    monkeypatch.setattr(spectra, "_falls", nested("falls", spectra._falls))

    g = grid(4, 3)
    path = tmp_path / "grid.json"
    save_graph(path, g)
    for method in ("vertex", "edge"):
        assert cli.main(["flow", "--method", method, "--graph", str(path), "--k", "5",
                         "--steps", "20", "--out", str(tmp_path / method)]) == 0
    sel = select_eigenpair(eigendecompose(laplacian(g)), 5)
    pert = build_perturbation(g, sel)
    u = eigendecompose(flow_matrix(pert, 0.5)).eigenvectors[:, 0]
    derivative_identity_check(pert, 0.5, u)
    nodal_count_direct(g, sel)

    spectra_name = spectra.__name__
    grid_points = [s for s in solves if s[0] == spectra_name and s[3] and not s[4]]
    assert grid_points and all(s[1:3] == ("evd", True) for s in grid_points)
    others = [s for s in solves if s not in grid_points]
    assert all(driver is None for _, driver, _, _, _ in others)
    # The base spectra (select_eigenpair's psi), the bisection, the Dirichlet
    # solve, derivative_residual and nodal_count_direct are all among them.
    base = [s for s in others if s[0] == cli.__name__]
    assert base == [(cli.__name__, None, True, False, False)] * 2
    # Inside the crossing bisection only the vertex flow's ghost Schur count
    # solves; track_branches' own count factors and never solves.
    assert {s[0] for s in others if s[4]} == {vertex_flow.__name__}
    assert sum(s[0] == spectra_name and not s[3] for s in others) == 3
    # The vertex certificate's Dirichlet count and nodal_count_direct, both
    # limit_multiplicity, count by inertia and solve nothing.
    assert not any(s[0] == edge_flow.__name__ for s in solves)
