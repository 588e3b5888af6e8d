import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from nodalflow import dirichlet, spectra, vertex_flow
from nodalflow.errors import AssumptionViolated, DegenerateEigenvalue, FlowConsistencyError
from nodalflow.edge_flow import build_perturbation, flow_matrix, sign_preserving_graph
from nodalflow.families import complete, cycle, generate_connected_er, grid, interval, petersen
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import nodal_decomposition, select_eigenpair
from nodalflow.spectra import COUNT_TOL_REL, eigendecompose, track_branches
from nodalflow.vertex_flow import (
    bilinear_matrix,
    check_edge_equivalence,
    derivative_identity_check,
    extend,
    extension_coefficients,
    ghost_schur_count,
    graph_at,
    run_vertex_flow,
)

from _oracles import count_below_by_ghost_schur, count_below_mp, ghost_schur_by_reweighting
from _oracles import ghost_schur_by_scatter, limit_graph, reduced_count_matrix
from test_edge_flow import assert_bit_equal, spread_weighted_graphs


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def test_subdivide_structure_path():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    assert len(pert.w) == 1
    assert laplacian(graph_at(g, pert, 1.0)).matrix.shape == (5, 5)
    assert bilinear_matrix(pert, 1.0).matrix.shape == (5, 5)
    assert (pert.i.tolist(), pert.j.tolist()) == ([1], [2])
    (q_ij,), (q_ji,) = pert.q_ij, pert.q_ji
    assert q_ij > 0 and q_ji > 0
    assert q_ij * q_ji == pytest.approx(1.0, rel=1e-12)


def test_limit_graph_keeps_the_sign_preserving_edges():
    # The oracle's sigma -> infinity subdivision keeps exactly the edges of
    # the package's sign-preserving graph, and adds one ghost per cut edge.
    g = grid(7, 5)
    sel = select(g, 5)
    pert = build_perturbation(g, sel)
    lim = WeightedGraph(*limit_graph(g.n, g.edges, sel.psi, g.diag_extra))
    kept = tuple(e for e in lim.edges if e[1] < g.n)
    assert kept == sign_preserving_graph(g, pert).edges
    n_sign_change = len(nodal_decomposition(g, sel).sign_change_edges)
    assert lim.n - g.n == len(pert.w) == n_sign_change == 10


def test_run_vertex_flow_builds_no_graph(monkeypatch):
    # The flow reads the edge flow's record alone; bilinear_matrix
    # assembles each matrix from it, and no WeightedGraph is built.
    g = grid(7, 5)
    sel = select(g, 5)

    def refuse(self):
        raise AssertionError(f"run_vertex_flow built a {type(self).__name__}")

    monkeypatch.setattr(WeightedGraph, "__post_init__", refuse)
    fr = run_vertex_flow(g, sel, steps=20)
    monkeypatch.undo()
    assert fr.count_identity_ok


def test_subdivide_structure_petersen():
    g = petersen(7, 3)
    pert = build_perturbation(g, select(g, 7))
    assert len(pert.w) == 10
    assert bilinear_matrix(pert, 1.0).matrix.shape == (24, 24)


def test_graph_at_zero_recovers_base():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    g0 = graph_at(g, pert, 0.0)
    assert g0.n == 5
    L0 = laplacian(g0).matrix
    np.testing.assert_allclose(L0[:4, :4], laplacian(g).matrix, atol=1e-15)
    assert np.all(L0[4] == 0.0)
    with pytest.raises(ValueError):
        graph_at(g, pert, -0.5)


def test_graph_at_refuses_a_non_finite_sigma():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    for sigma in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"sigma={sigma} must be nonnegative and finite"):
            graph_at(g, pert, sigma)


def test_graph_at_weight_schedule():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    (w,), (q_ij,), (q_ji,) = pert.w, pert.q_ij, pert.q_ji
    gs = graph_at(g, pert, 3.0)
    weights = {(a, b): ww for a, b, ww in gs.edges}
    assert weights[(1, 2)] == pytest.approx(w / 4.0)
    assert weights[(1, 4)] == pytest.approx(0.75 * w * (1.0 + q_ji))
    assert weights[(2, 4)] == pytest.approx(0.75 * w * (1.0 + q_ij))


def test_limit_graph_full_ghost_weights():
    # The ghost half-edges of the oracle's limit graph carry the record's
    # half-weights in full, and its Laplacian on the base is L + P.
    g = interval(4)
    sel = select(g, 2)
    pert = build_perturbation(g, sel)
    (q_ij,), (q_ji,) = pert.q_ij, pert.q_ji
    gl = WeightedGraph(*limit_graph(g.n, g.edges, sel.psi, g.diag_extra))
    weights = {(a, b): ww for a, b, ww in gl.edges}
    assert (1, 2) not in weights
    assert weights[(1, 4)] == pytest.approx(1.0 + q_ji)
    assert weights[(2, 4)] == pytest.approx(1.0 + q_ij)
    (at_i,), (at_j,) = pert.half_weights
    assert (weights[(1, 4)], weights[(2, 4)]) == pytest.approx((at_i, at_j), rel=1e-14)
    L_lim = laplacian(gl).matrix[: g.n, : g.n]
    np.testing.assert_allclose(L_lim, flow_matrix(pert, 1.0).matrix, atol=1e-14)


def test_extension_coefficients_sum_to_one():
    g = petersen(7, 3)
    pert = build_perturbation(g, select(g, 7))
    a_ij, a_ji = extension_coefficients(pert)
    assert len(a_ij) == len(a_ji) == len(pert.w)
    np.testing.assert_allclose(a_ij + a_ji, 1.0, rtol=1e-12)


def test_extend_selected_eigenvector_by_zeros():
    g = petersen(7, 3)
    sel = select(g, 7)
    pert = build_perturbation(g, sel)
    ext = extend(pert, np.asarray(sel.psi))
    np.testing.assert_allclose(ext[: g.n], sel.psi)
    assert np.max(np.abs(ext[g.n :])) < 1e-12
    with pytest.raises(ValueError):
        extend(pert, np.ones(3))


def test_extend_matches_the_per_edge_formula():
    g = grid(7, 5)
    p = build_perturbation(g, select(g, 5))
    u = np.random.default_rng(1).standard_normal(g.n)
    ext = extend(p, u)
    for e in range(len(p.w)):
        a_ij, a_ji = 1.0 / (1.0 + p.q_ij[e]), 1.0 / (1.0 + p.q_ji[e])
        assert ext[g.n + e] == a_ij * u[p.i[e]] + a_ji * u[p.j[e]]


@pytest.mark.parametrize("sigma", [0.0, 1.0, 552.0, 1e4])
def test_extended_eigenvector_invariant_along_flow(sigma):
    g = interval(7)
    sel = select(g, 3)
    pert = build_perturbation(g, sel)
    ext = extend(pert, np.asarray(sel.psi))
    B = bilinear_matrix(pert, sigma).matrix
    resid = np.max(np.abs(B @ ext - sel.lambda_k * ext))
    assert resid < 1e-10


SUBDIVISIONS = (
    (petersen(7, 3), 7),
    (grid(7, 5), 5),
    (generate_connected_er(20, 0.3, 303).graph, 20),
)
BILINEAR_SIGMAS = [0.0, 1e-3, 1.0, 552.0, 1e4, 1e6]


@pytest.mark.parametrize("sigma", BILINEAR_SIGMAS)
def test_bilinear_matrix_matches_graph_at(sigma):
    for g, k in SUBDIVISIONS:
        pert = build_perturbation(g, select(g, k))
        B = bilinear_matrix(pert, sigma).matrix
        ref = laplacian(graph_at(g, pert, sigma)).matrix.copy()
        ghosts = np.arange(g.n, g.n + len(pert.w))
        ref[ghosts, ghosts] += sigma
        assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(B, B.T)


@pytest.mark.parametrize("sigma", BILINEAR_SIGMAS)
def test_bilinear_matrix_borders_the_edge_flow_matrix(sigma):
    # B(sigma) is the edge flow's matrix at s = sigma / (1 + sigma) with
    # ghost rows and columns around it, and its ghost block is diagonal,
    # which the ghost Schur count of _oracles relies on.
    for g, k in SUBDIVISIONS:
        pert = build_perturbation(g, select(g, k))
        B = bilinear_matrix(pert, sigma).matrix
        n = g.n
        base = flow_matrix(pert, sigma / (1.0 + sigma)).matrix
        assert np.array_equal(B[:n, :n], base)
        ghost = B[n:, n:]
        assert np.array_equal(ghost, np.diag(np.diag(ghost)))


def test_bilinear_matrix_refuses_a_non_finite_sigma():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    for sigma in (np.inf, np.nan, -np.inf, -0.5):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            bilinear_matrix(pert, sigma)


def test_bilinear_matrix_is_psd():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    for sigma in (0.0, 0.3, 10.0):
        vals = np.linalg.eigvalsh(bilinear_matrix(pert, sigma).matrix)
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
    assert V.shape == (g.n + len(build_perturbation(g, sel).w), fr.n_branches)
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
def test_run_vertex_flow_certificate_at_small_sigma_max(monkeypatch, g, k, sigma_max, nu):
    # With sigma_max the only end on offer, the flow ends there whatever
    # the count says, and the certificate judges what it reached.
    monkeypatch.setattr(vertex_flow, "SIGMA_ENDS", (sigma_max,))
    sel = select(g, k)
    if sel.simple and nu is None:
        with pytest.raises(FlowConsistencyError, match="vertex certificate failed"):
            run_vertex_flow(g, sel, steps=60)
        return
    fr = run_vertex_flow(g, sel, steps=60, allow_degenerate=True)
    assert fr.sigma_grid[-1] == pytest.approx(sigma_max)
    if nu is None:
        assert fr.count_identity_ok is False
        assert any(w.startswith("vertex certificate failed") for w in fr.warnings)
    else:
        assert nu == nodal_decomposition(g, sel).nu
        assert fr.converged_count == nu
        assert fr.count_identity_ok is True
        assert not any(w.startswith("vertex certificate") for w in fr.warnings)


# Simple, nowhere-zero ER(20) flows at steps=40 whose branches bound for
# Dirichlet eigenvalues just above lambda_k pass it only past sigma = 1e4,
# with the end each one needs. Seeds 305 and 306 at p = 0.2 draw the same
# connected graph.
LATE_ENDS = [(0.2, 305, 17, 1e6), (0.2, 306, 17, 1e6), (0.3, 303, 20, 1e5),
             (0.3, 304, 19, 1e5), (0.3, 305, 20, 1e5), (0.3, 306, 20, 1e5)]
LATE_END_IDS = [f"er20-p{p}-s{seed}-k{k}" for p, seed, k, _ in LATE_ENDS]


@pytest.mark.parametrize("p, seed, k, end", LATE_ENDS, ids=LATE_END_IDS)
def test_run_vertex_flow_ends_by_its_count(p, seed, k, end):
    # Each flow ends at the first of SIGMA_ENDS where the ghost Schur count
    # is down to the Dirichlet multiplicity, and certifies there.
    g = generate_connected_er(20, p, seed).graph
    sel = select(g, k)
    assert sel.simple and sel.nowhere_zero
    fr = run_vertex_flow(g, sel, steps=40)
    assert fr.sigma_grid[-1] == pytest.approx(end, rel=1e-12)
    assert fr.count_identity_ok is True
    assert fr.converged_count == nodal_decomposition(g, sel).nu


def test_vertex_certificate_reads_the_limit_off_the_edge_flow_record(monkeypatch):
    def refuse(*args):
        raise AssertionError("the vertex flow built a subdivision graph")

    monkeypatch.setattr(vertex_flow, "graph_at", refuse)
    monkeypatch.setattr(dirichlet, "dirichlet_problem", refuse)
    g = grid(4, 3)
    sel = select(g, 5)
    fr = run_vertex_flow(g, sel, steps=20)
    assert fr.count_identity_ok
    assert fr.converged_count == nodal_decomposition(g, sel).nu


def test_run_vertex_flow_needs_two_steps():
    # One log-spaced point would stop the flow at sigma = 1e-3, short of
    # its end, and report a wrong converged count.
    g = grid(7, 5)
    sel = select(g, 5)
    for steps in (1, 0):
        with pytest.raises(ValueError, match="steps"):
            run_vertex_flow(g, sel, steps=steps)
    assert run_vertex_flow(g, sel, steps=2).sigma_grid[-1] == pytest.approx(1e4)


def test_run_vertex_flow_rejects_zero_vertices():
    g = interval(7)
    with pytest.raises(AssumptionViolated):
        run_vertex_flow(g, select(g, 2))


def _threshold(pert, sel):
    """track_branches' threshold t on the vertex flow of sel."""
    start = np.linalg.eigvalsh(bilinear_matrix(pert, 0.0).matrix)
    lam = sel.lambda_k
    return lam + COUNT_TOL_REL * max(1.0, abs(lam), float(np.max(np.abs(start))))


def _ghosts_first(B, n_base: int) -> np.ndarray:
    """B with its ghost rows and columns moved ahead of the base ones, an
    order in which count_below_mp eliminates a vertex matrix with little
    fill-in: the ghost block is diagonal, and what is left after it is the
    ghost Schur complement, as sparse as L. Inertia is the same."""
    order = np.r_[n_base:len(B), :n_base]
    return B[np.ix_(order, order)]


def _assert_brackets_hold_a_fall(g, sel, fr):
    """Across every bracket of the vertex flow fr, the count of eigenvalues
    of B(sigma) below track_branches' threshold falls by at least the number
    of crossings reported in it. A bracket past sigma = 1e4, where crossing
    branches rise too slowly for a double-precision count to place, is read
    at 40 digits (count_below_mp); the others by the float oracle."""
    pert = build_perturbation(g, sel)
    t = _threshold(pert, sel)

    def read(sigma, late):
        B = bilinear_matrix(pert, sigma).matrix
        if late:
            return count_below_mp(_ghosts_first(B, g.n), t)
        return count_below_by_ghost_schur(B, g.n, t)

    for (lo, hi), shared in Counter((c.sigma_lo, c.sigma_hi) for c in fr.crossings).items():
        at_lo, at_hi = (read(s, lo > 1e4) for s in (lo, hi))
        assert at_lo - at_hi >= shared, (lo, hi, at_lo, at_hi, shared)


@pytest.mark.parametrize(
    "g, k",
    [(grid(7, 5), 5), (generate_connected_er(20, 0.3, 303).graph, 20)],
    ids=["grid7x5-k5", "er20-p0.3-s303-k20"],
)
def test_ghost_schur_count_matches_the_full_count(g, k):
    sel = select(g, k)
    pert = build_perturbation(g, sel)
    t = _threshold(pert, sel)
    count = ghost_schur_count(pert, sel.psi)
    for sigma in np.concatenate([[0.0], np.logspace(-3.0, 4.0, 50)]):
        B = bilinear_matrix(pert, sigma).matrix
        full = int(np.sum(np.linalg.eigvalsh(B) <= t))
        assert count(sigma, t) == full == count_below_by_ghost_schur(B, g.n, t), sigma


def _ghost_pivot(pert, t, p=0):
    """The sigma > 0 where ghost p's pivot d = s (h_i + h_j) + sigma - t is
    zero: the positive root of sigma^2 + (1 + h - t) sigma - t = 0."""
    at_i, at_j = pert.half_weights
    h = at_i[p] + at_j[p]
    b = 1.0 + h - t
    sigma = 0.5 * (-b + np.sqrt(b * b + 4.0 * t))
    assert abs(sigma / (1.0 + sigma) * h + sigma - t) <= COUNT_TOL_REL * t
    return sigma


def _record_count(monkeypatch, pert, psi):
    """ghost_schur_count(pert, psi) with the matrices it builds, factors and
    solves recorded: (count, built sigmas, factored sizes, solved matrices
    with their vectors flag)."""
    built, factored, solved, count_below = [], [], [], vertex_flow._count_below
    monkeypatch.setattr(
        vertex_flow, "bilinear_matrix", lambda p, s: built.append(s) or bilinear_matrix(p, s)
    )
    monkeypatch.setattr(
        vertex_flow, "_count_below", lambda A, t: factored.append(len(A)) or count_below(A, t)
    )
    monkeypatch.setattr(
        vertex_flow, "eigendecompose",
        lambda M, **kw: solved.append((np.array(M), kw.get("vectors", True)))
        or eigendecompose(M, **kw),
    )
    return ghost_schur_count(pert, psi), built, factored, solved


def test_ghost_schur_count_falls_back_at_a_ghost_pivot(monkeypatch):
    # ER(20, 0.3) seed 303 at k = 20 has 40 sign-change edges on 20
    # vertices, so |G| + mu >= n and the count solves S. At the sigma where
    # s (h_i + h_j) + sigma = t for one ghost, S would divide by (nearly)
    # zero; the count factors B(sigma) once, as track_branches' default
    # count does, and solves nothing.
    g = generate_connected_er(20, 0.3, 303).graph
    sel = select(g, 20)
    pert = build_perturbation(g, sel)
    assert len(pert.w) >= g.n
    t = _threshold(pert, sel)
    sigma = _ghost_pivot(pert, t)
    count, built, factored, solved = _record_count(monkeypatch, pert, sel.psi)
    assert solved == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = count(sigma, t)
    assert built == [sigma]
    assert factored == [g.n + len(pert.w)] and solved == []
    assert n == int(np.sum(np.linalg.eigvalsh(bilinear_matrix(pert, sigma).matrix) <= t))


def test_reduced_count_solves_through_a_ghost_pivot_and_falls_back_at_sigma_t(monkeypatch):
    # Grid 7x5 at k = 5 has 10 sign-change edges and a simple lambda_5, so
    # the count solves L once with vectors and then the 11 x 11 reduced
    # matrix, where a ghost pivot d = 0 is only 1/omega = 0: no fallback.
    # At sigma = t, where 1/omega is not defined, it factors B(sigma) once.
    g = grid(7, 5)
    sel = select(g, 5)
    pert = build_perturbation(g, sel)
    t = _threshold(pert, sel)
    count, built, factored, solved = _record_count(monkeypatch, pert, sel.psi)
    assert [(len(M), vectors) for M, vectors in solved] == [(g.n, True)]
    for sigma in (_ghost_pivot(pert, t), _ghost_pivot(pert, t, 5)):
        del solved[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = count(sigma, t)
        assert built == [] and factored == []
        assert [(len(M), vectors) for M, vectors in solved] == [(1 + len(pert.w), False)]
        assert n == int(np.sum(np.linalg.eigvalsh(bilinear_matrix(pert, sigma).matrix) <= t))
    # It also factors B(sigma) at sigma = 0 and where t is an eigenvalue of
    # L outside lambda_k's group, the pole of K_F(t).
    del solved[:]
    pole = eigendecompose(laplacian(g)).eigenvalues[sel.k]
    for sigma, at in ((t, t), (0.0, t), (1.0, pole)):
        n = count(sigma, at)
        assert built[-1] == sigma and factored[-1] == g.n + len(pert.w) and solved == []
        assert n == int(np.sum(np.linalg.eigvalsh(bilinear_matrix(pert, sigma).matrix) <= at))
    assert len(built) == len(factored) == 3


# sigma = 10^x in [1e-3, 1e6] and t = lambda_k + r (1 + lambda_k), r >= 0, so
# t at and above lambda_k.
SCHUR_POINTS = st.lists(
    st.tuples(st.floats(min_value=-3.0, max_value=6.0),
              st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(spread_weighted_graphs(min_n=3, max_n=20), SCHUR_POINTS)
def test_ghost_schur_count_solves_the_hand_scattered_complement(g, points):
    # At every nowhere-zero index and every (sigma, t) of SCHUR_POINTS, the
    # matrix the count hands to its values-only eigensolve is bit for bit,
    # signed zeros included, the one its path builds by hand: where it
    # solved L with vectors first (|G| + mu < n), the reduced matrix M built
    # entry by entry from that spectrum; elsewhere the edge flow's matrix
    # reweighted per edge, scattered by hand edge by edge.
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spectrum, k)
        if not sel.nowhere_zero:
            continue
        pert = build_perturbation(g, sel)
        solved = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vertex_flow, "eigendecompose",
                          lambda M, **kw: solved.append(np.array(M)) or eigendecompose(M, **kw))
            count = ghost_schur_count(pert, sel.psi)
            reduced = bool(solved)  # only the reduced path solves L first
            if reduced:
                assert_bit_equal(solved[0], pert.laplacian)
                spectrum_l = eigendecompose(pert.laplacian)
            for x, r in points:
                sigma, t = 10.0**x, sel.lambda_k + r * (1.0 + sel.lambda_k)
                del solved[:]
                count(sigma, t)
                if not solved:  # a fallback
                    continue
                want = (reduced_count_matrix(pert, sel.psi, spectrum_l, sigma, t) if reduced
                        else ghost_schur_by_reweighting(pert, sel.psi, sigma, t))
                assert_bit_equal(solved[0], want)


def test_ghost_schur_count_matches_eigvalsh_and_40_digits_on_both_paths():
    # At a drawn nowhere-zero index and the last one (the most sign changes,
    # so most often the S count), and every (sigma, t) of SCHUR_POINTS with
    # no eigenvalue of B(sigma) within 1e-7 max(1, |B|) of t, the count
    # equals eigvalsh's count of B(sigma) at or below t and the 40-digit
    # count of B(sigma) below t. The draws must reach both the reduced
    # matrix (|G| + mu < n) and the S count.
    paths = Counter()

    @settings(max_examples=150, deadline=None)
    @given(spread_weighted_graphs(min_n=3, max_n=20), SCHUR_POINTS, st.data())
    def check(g, points, data):
        spectrum = eigendecompose(laplacian(g))
        ks = [k for k in range(1, g.n + 1) if select_eigenpair(spectrum, k).nowhere_zero]
        assume(ks)
        for k in {data.draw(st.sampled_from(ks)), ks[-1]}:
            sel = select_eigenpair(spectrum, k)
            pert = build_perturbation(g, sel)
            solved = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vertex_flow, "eigendecompose",
                              lambda M, **kw: solved.append(len(M)) or eigendecompose(M, **kw))
                count = ghost_schur_count(pert, sel.psi)
            reduced = bool(solved)  # only the reduced path solves L first
            assert reduced == (len(spectrum.group_of(k - 1)) + len(pert.w) < g.n)
            for x, r in points:
                sigma, t = 10.0**x, sel.lambda_k + r * (1.0 + sel.lambda_k)
                B = bilinear_matrix(pert, sigma).matrix
                values = np.linalg.eigvalsh(B)
                if np.min(np.abs(values - t)) <= 1e-7 * max(1.0, np.max(np.abs(B))):
                    continue  # a tie
                below = int(np.sum(values <= t))
                assert count(sigma, t) == below == count_below_mp(_ghosts_first(B, g.n), t)
                paths[reduced] += 1

    check()
    assert paths[True] and paths[False], paths


@settings(max_examples=150, deadline=None)
@given(spread_weighted_graphs(min_n=3, max_n=20), SCHUR_POINTS)
def test_ghost_schur_complement_is_the_reweighted_edge_matrix(g, points):
    # H = C diag(c), with P = C C^T, entry by entry within 8 eps (measured
    # at most 3.6 eps over 9000 draws), and the reweighted S equals the
    # complement as built before, L + s P - t I - s^2 H diag(1/d) H^T with
    # psi deflated, within 4 n eps of the largest term that form sums,
    # max(1, |S|, s |P|) (measured at most 1.04 n eps). The old form cancels
    # terms of size s |P| down to |S|, so a scale of max(1, |S|) alone is
    # not bounded: it measured 1.1e7 n eps on a 3-vertex path whose psi
    # spans 1e7.
    eps = np.finfo(float).eps
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spectrum, k)
        if not sel.nowhere_zero:
            continue
        pert = build_perturbation(g, sel)
        C_i, C_j = np.sqrt(pert.w) * np.sqrt(pert.q_ji), np.sqrt(pert.w) * np.sqrt(pert.q_ij)
        c = C_i + C_j
        for h, C in zip(pert.half_weights, (C_i, C_j)):
            assert np.all(np.abs(C * c - h) <= 8.0 * eps * h)
        at_i, at_j = pert.half_weights
        for x, r in points:
            sigma, t = 10.0**x, sel.lambda_k + r * (1.0 + sel.lambda_k)
            s = sigma / (1.0 + sigma)
            if np.any(np.abs(s * (at_i + at_j) + sigma - t)
                      <= COUNT_TOL_REL * max(1.0, abs(t), sigma)):
                continue  # the count's ghost-pivot fallback
            S = ghost_schur_by_reweighting(pert, sel.psi, sigma, t)
            scale = max(1.0, np.max(np.abs(S)), s * np.max(np.abs(pert.matrix)))
            error = np.max(np.abs(S - ghost_schur_by_scatter(pert, sel.psi, sigma, t)))
            assert error <= 4.0 * g.n * eps * scale, (sigma, t, error / (g.n * eps * scale))


def _assert_same_flow(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize(
    "g, k, steps",
    [(grid(4, 3), 5, 20), (grid(7, 5), 5, 40), (grid(10, 10), 20, 40),
     (generate_connected_er(20, 0.2, 308).graph, 8, 40)],
    ids=["grid4x3-k5", "grid7x5-k5", "grid10x10-k20", "er20-p0.2-s308-k8"],
)
def test_pencil_seeds_hold_every_crossing_cell(monkeypatch, g, k, steps):
    # On the reduced path the crossing bisection of each step with a fall
    # gets the pencil's roots as seeds: every cell it returns holds one, it
    # counts only the ends of its cells (the step's own ends are known), and
    # the flow is the one run with the seeds dropped, bit for bit.
    sel = select(g, k)
    assert len(build_perturbation(g, sel).w) + 1 < g.n  # |G| = 1: the reduced path
    falls, steps_seen = spectra._falls, []

    def recorded(count, lo, hi, n_lo, n_hi, t, seeds=()):
        reads = []
        cells = falls(lambda s, at: reads.append(s) or count(s, at), lo, hi, n_lo, n_hi, t, seeds)
        steps_seen.append((np.asarray(seeds), cells, reads))
        return cells

    monkeypatch.setattr(spectra, "_falls", recorded)
    seeded = run_vertex_flow(g, sel, steps=steps)
    assert seeded.crossings
    cells = [cell for _, step_cells, _ in steps_seen for cell in step_cells]
    assert len(cells) >= len(seeded.crossings)
    for seeds, step_cells, reads in steps_seen:
        for lo, hi in set(step_cells):
            assert np.any((seeds >= lo) & (seeds <= hi)), (lo, hi)
        ends = {end for cell in step_cells for end in cell}
        assert len(set(reads)) == len(reads) and set(reads) <= ends
    monkeypatch.setattr(spectra, "_falls", lambda *args: falls(*args[:6]))
    _assert_same_flow(seeded, run_vertex_flow(g, sel, steps=steps))


def test_a_failed_pencil_solve_leaves_every_step_to_the_bisection(monkeypatch):
    g = grid(4, 3)
    sel = select(g, 5)
    seeded, failed = run_vertex_flow(g, sel, steps=20), []

    def fail(*args, **kwargs):
        failed.append(len(args[0]))
        raise LinAlgError("QZ iteration failed")

    monkeypatch.setattr(vertex_flow, "eig", fail)
    _assert_same_flow(seeded, run_vertex_flow(g, sel, steps=20))
    assert failed == [2 * (1 + len(build_perturbation(g, sel).w))]


@settings(max_examples=60, deadline=None)
@given(spread_weighted_graphs(min_n=3, max_n=14), st.floats(min_value=0.0, max_value=2.0))
def test_pencil_seeds_are_the_falls_of_the_reduced_count(g, r):
    # At t = lambda_k + r (1 + lambda_k), at or above lambda_k, the seeds of
    # the reduced count in [1e-3, 1e3], each widened by 1e-7 of itself on
    # both sides, hold all of count(., t)'s fall over [1e-3, 1e3], and no
    # widened seed holds a rise.
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spectrum, k)
        if not sel.nowhere_zero:
            continue
        count = ghost_schur_count(build_perturbation(g, sel), sel.psi)
        if count.seeds is None:
            continue
        t = sel.lambda_k + r * (1.0 + sel.lambda_k)
        roots = count.seeds(t)
        assert np.all(roots > 0.0) and np.all(np.diff(roots) >= 0.0)
        cells = []
        for root in roots[(roots > 1e-3) & (roots < 1e3)]:
            lo, hi = root * (1.0 - 1e-7), root * (1.0 + 1e-7)
            if cells and lo <= cells[-1][1]:
                lo = cells.pop()[0]
            cells.append((lo, hi))
        falls = [count(lo, t) - count(hi, t) for lo, hi in cells]
        assert min(falls, default=0) >= 0
        assert sum(falls) == count(1e-3, t) - count(1e3, t), (k, t, cells, falls)


def test_schur_count_tracks_like_the_full_count():
    # Over the vertex flow's matrix, track_branches gives the same result
    # bit for bit whether the bisection counts on B(sigma), by inertia (the
    # default), or on the ghost Schur complement.
    g = grid(7, 5)
    sel = select(g, 5)
    pert = build_perturbation(g, sel)
    grid_ = np.concatenate([[0.0], np.logspace(-3.0, 4.0, 200)])
    flows = [
        track_branches(lambda s: bilinear_matrix(pert, s), grid_, sel.lambda_k, count=count)
        for count in (None, ghost_schur_count(pert, sel.psi))
    ]
    assert flows[0].crossings
    _assert_same_flow(*flows)


@pytest.mark.parametrize(
    "g, k, steps",
    [
        (grid(4, 3), 5, 20),
        (grid(7, 5), 5, 200),
        # Brackets near sigma = 6074 and 3557 that a full solve of B(sigma)
        # placed where the count does not fall (its rounding grows with
        # sigma), and one near 5.27 that a count on S without psi deflated
        # would place there.
        (generate_connected_er(20, 0.2, 301).graph, 15, 40),
        (generate_connected_er(20, 0.3, 300).graph, 20, 40),
        (generate_connected_er(20, 0.5, 304).graph, 10, 40),
        # A bracket near sigma = 0.435 where a ghost pivot d is near zero,
        # so S's norm reaches 1e6 and a count on S alone misreads psi's own
        # eigenvalue, lambda_k - t = -7.8e-12.
        (grid(10, 10), 20, 40),
        # Degenerate flows with brackets past 1e4, read at 40 digits: grid
        # 10x10 k50's three near sigma = 24839.44, 24839.49 and 24839.53
        # each hold a fall (17 to 16, 16 to 15, 15 to 14). Grid 8x8 k21's
        # one bracket, [13142.08943800925, 13142.089438671777], reads 8 at
        # both ends; the fall is in the cell just above it.
        (grid(10, 10), 50, 200),
        pytest.param(grid(8, 8), 21, 40,
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError)),
    ],
    ids=["grid4x3-k5", "grid7x5-k5", "er20-p0.2-s301-k15", "er20-p0.3-s300-k20",
         "er20-p0.5-s304-k10", "grid10x10-k20", "grid10x10-k50", "grid8x8-k21"],
)
def test_vertex_flow_brackets_hold_a_fall_of_the_ghost_schur_count(g, k, steps):
    # Matching-free certificate: across every reported bracket, the number
    # of eigenvalues of B(sigma) below track_branches' threshold t, counted
    # by inertia of the ghost Schur complement (at 40 digits past 1e4),
    # falls by at least the number of crossings reported in it.
    sel = select(g, k)
    fr = run_vertex_flow(g, sel, steps=steps, allow_degenerate=True)
    assert fr.crossings
    _assert_brackets_hold_a_fall(g, sel, fr)


@pytest.mark.parametrize(
    "p, seed, k",
    [
        pytest.param(
            p, seed, k,
            marks=[pytest.mark.xfail(strict=True, raises=AssertionError)] if p == 0.2 else [],
        )
        for p, seed, k, _ in LATE_ENDS
    ],
    ids=LATE_END_IDS,
)
def test_late_end_brackets_hold_a_fall(p, seed, k):
    # The oracle check of the flows that end past 1e4. On p = 0.2, near
    # sigma = 1.9e5 and 1.98e5, the crossing branches rise about 6e-10 per
    # unit sigma, so the count's rounding blurs where they pass t over about
    # 1e-4 in sigma. Both brackets miss the fall: a 40-digit count of
    # [197993.7344822, 197993.7344828] reads 9 at both ends and puts the
    # fall 4e-5 lower, and the oracle reads no fall in either.
    g = generate_connected_er(20, p, seed).graph
    sel = select(g, k)
    _assert_brackets_hold_a_fall(g, sel, run_vertex_flow(g, sel, steps=40))


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
    pert = build_perturbation(g, select(g, 3))
    spec = eigendecompose(bilinear_matrix(pert, 1.0))
    checked = 0
    for j in range(spec.n):
        if len(spec.group_of(j)) != 1:
            continue
        res = derivative_identity_check(pert, 1.0, spec.eigenvectors[:, j])
        assert res < 1e-5
        checked += 1
    assert checked >= 5


def test_derivative_identity_sigma_floor():
    g = interval(7)
    pert = build_perturbation(g, select(g, 3))
    with pytest.raises(ValueError):
        derivative_identity_check(pert, 0.0, np.ones(g.n + len(pert.w)))


def test_derivative_identity_rejects_degenerate():
    # The alternating eigenvector of C_4 subdivides with full dihedral
    # symmetry, so B_sigma keeps degenerate pairs at every sigma.
    g = cycle(4)
    pert = build_perturbation(g, select(g, 4))
    spec = eigendecompose(bilinear_matrix(pert, 1.0))
    deg = [grp for grp in spec.groups if len(grp) > 1]
    assert deg
    u = spec.eigenvectors[:, deg[0][0]]
    with pytest.raises(DegenerateEigenvalue):
        derivative_identity_check(pert, 1.0, u)
