import dataclasses
import json
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodalflow import edge_flow
from nodalflow.cli import main
from nodalflow.edge_flow import (
    EdgePerturbation,
    build_perturbation,
    derivative_identity_check,
    flow_matrix,
    limit_multiplicity,
    nodal_count_direct,
    run_edge_flow,
    sign_preserving_graph,
)
from nodalflow.errors import (
    AssumptionViolated,
    DegenerateEigenvalue,
    FlowConsistencyError,
    ZeroVertex,
)
from nodalflow.families import complete, generate_connected_er, grid, interval, petersen
from nodalflow.fileio import save_graph
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import nodal_decomposition, perturb_to_nonzero, select_eigenpair
from nodalflow.spectra import eigendecompose, group_tolerance, track_branches

from _oracles import sign_class_blocks


def select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def test_build_perturbation_single_edge():
    g = interval(4)
    sel = select(g, 2)
    pert = build_perturbation(g, sel)
    assert len(pert.w) == 1
    i, j, w, q_ij, q_ji = pert.i[0], pert.j[0], pert.w[0], pert.q_ij[0], pert.q_ji[0]
    assert (i, j, w) == (1, 2, 1.0)
    assert pert.i.dtype.kind == pert.j.dtype.kind == "i"
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
    assert len(pert.w) == 10
    assert np.max(np.abs(pert.matrix @ sel.psi)) < 1e-10
    assert np.linalg.eigvalsh(pert.matrix).min() > -1e-10


def test_perturbation_matrix_read_only():
    g = interval(4)
    pert = build_perturbation(g, select(g, 2))
    with pytest.raises(ValueError):
        pert.matrix[0, 0] = 1.0


@pytest.mark.parametrize("g,k", [(grid(7, 5), 5), (petersen(7, 3), 7)], ids=["grid75", "petersen"])
def test_perturbation_matrix_is_derived_from_the_edge_arrays(g, k):
    # P is read off the record's arrays on first read, once, read-only, and
    # bit for bit as a loop over the edges assembles it.
    pert = build_perturbation(g, select(g, k))
    assert "matrix" not in vars(pert)
    P = np.zeros((g.n, g.n))
    for i, j, w, q_ij, q_ji in zip(pert.i, pert.j, pert.w, pert.q_ij, pert.q_ji):
        P[i, j] = P[j, i] = w
        P[i, i] += w * q_ji
        P[j, j] += w * q_ij
    assert np.array_equal(pert.matrix, P)
    assert pert.matrix is pert.matrix
    assert not pert.matrix.flags.writeable


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
    assert sg.m == g.m - len(pert.w)
    np.testing.assert_allclose(
        laplacian(sg).matrix, flow_matrix(pert, 1.0).matrix, atol=1e-12
    )


def test_nodal_count_direct_complete_golden():
    g = complete(5)
    sel = select(g, 2)
    with pytest.raises(AssumptionViolated):
        nodal_count_direct(g, sel)
    assert nodal_count_direct(g, sel, allow_degenerate=True) == 2
    assert sel.check_assumptions(True) == ("degenerate_lambda_k",)


def test_nodal_count_direct_petersen_golden():
    g = petersen(7, 3)
    sel = select(g, 7)
    assert nodal_count_direct(g, sel, allow_degenerate=True) == 3
    assert sel.k == 7


def test_nodal_count_direct_grid_golden():
    g = grid(7, 5)
    sel = select(g, 5)
    nu = nodal_count_direct(g, sel)
    assert nu == 3
    assert sel.k - nu == 2
    assert sel.check_assumptions(True) == ()


def test_nodal_count_direct_interval_tree_deficiency_zero():
    g = interval(7)
    spec = eigendecompose(laplacian(g))
    gp = perturb_to_nonzero(g)
    specp = eigendecompose(laplacian(gp))
    for k in range(1, 8):
        sel = select_eigenpair(spec, k)
        if sel.nowhere_zero:
            assert sel.k - nodal_count_direct(g, sel) == 0
        else:
            with pytest.raises(AssumptionViolated):
                nodal_count_direct(g, sel)
            selp = select_eigenpair(specp, k)
            assert selp.nowhere_zero
            assert selp.k - nodal_count_direct(gp, selp) == 0


@st.composite
def spread_weighted_graphs(draw, min_n: int = 3, max_n: int = 12):
    """A connected graph on min_n-max_n vertices: a random spanning tree plus
    extra edges, weights 10^x for x in [-3, 3] (ratios up to 1e6), and a
    diagonal that is zero or of the weights' spread at each vertex."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    edges = sorted({(p, v) for v, p in enumerate(parents, start=1)} | set(extra))
    exponent = st.floats(min_value=-3.0, max_value=3.0)
    weights = [10.0 ** draw(exponent) for _ in edges]
    diag = [draw(st.sampled_from([0.0, 10.0 ** draw(exponent)])) for _ in range(n)]
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in zip(edges, weights)), diag)


def graded(diag_5: float) -> WeightedGraph:
    """A 7-vertex graph whose psi at k = 2 has entries from 0.64 down to
    4e-10, so P's entries, and L + P's blocks, are graded over about 1e9;
    diag_extra is zero except diag_5 at vertex 5."""
    edges = ((0, 1, 1.0), (0, 2, 1.0), (0, 4, 1.0), (1, 3, 1.000000137244776), (1, 5, 1.0),
             (2, 6, 0.11547819846894582), (3, 4, 1.0), (3, 6, 1.0))
    return WeightedGraph(7, edges, (0.0,) * 5 + (diag_5, 0.0))


def spread_example() -> WeightedGraph:
    """A 3-vertex path whose psi at k = 3 spans 1.3e8. Vertex 2 has no
    neighbour in its sign class, so its diagonal entry of L + P, built from
    a ratio of psi's entries, is an eigenvalue of its block: it lands
    8.95e-6 below lambda_3, outside the 1.8e-6 window. The ground-state
    count needs no such entry."""
    return WeightedGraph(3, ((0, 1, 0.01773101927111224), (0, 2, 0.014402746297192742)),
                         (0.01026972258434615, 180.71415029283233, 1.735805019007167))


def spread_path() -> WeightedGraph:
    """A 4-vertex path 2 - 0 - 1 - 3 whose psi at k = 4 spans 4e7 and has 4
    strong domains; lambda_4 is simple."""
    return WeightedGraph(4, ((0, 1, 0.1), (0, 2, 1.0), (1, 3, 1000.0)))


def pencil_values(A: np.ndarray, psi_S: np.ndarray, tol: float) -> list:
    """The eigenvalues of the pencil (L_psi, D^2), D = diag(|psi_S|), in 60
    digits, A being L_psi - tol D^2 as limit_multiplicity factors it."""
    with mpmath.workdps(60):
        d = [1 / abs(mpmath.mpf(float(x))) for x in psi_S]
        M = mpmath.matrix([[mpmath.mpf(float(A[r, c])) * d[r] * d[c] for c in range(len(d))]
                           for r in range(len(d))])
        return sorted(v + tol for v in mpmath.eigsy(M, eigvals_only=True))


@settings(max_examples=150, deadline=None)
@given(spread_weighted_graphs())
@example(graded(1.1547819846894583))
@example(spread_path())
@example(spread_example())
def test_limit_multiplicity_counts_on_the_sign_blocks(g):
    # L + P is exactly block diagonal over psi's sign classes. On each class
    # the count is never below its strong domains, the kernel of its
    # ground-state Laplacian L_psi, and it is above them only by values of
    # the pencil (L_psi, D^2), built as the code builds it, that a 60-digit
    # solve finds in (0, tol]: at every index with a nowhere-zero psi,
    # degenerate or not.
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spectrum, k)
        if not sel.nowhere_zero:
            continue
        pert = build_perturbation(g, sel)
        M = flow_matrix(pert, 1.0).matrix
        positive = sel.psi > 0
        assert np.all(M[np.ix_(positive, ~positive)] == 0.0)
        factored, count_nonpositive = [], edge_flow._count_nonpositive

        def recorded(A):
            block = np.array(A)  # the factorization overwrites A
            factored.append((block, count_nonpositive(A)))
            return factored[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(edge_flow, "_count_nonpositive", recorded)
            nu = limit_multiplicity(g, sel)
        classes = [S for S in (positive, ~positive) if S.any()]
        assert len(factored) == len(classes) and nu == sum(c for _, c in factored)
        domains = nodal_decomposition(g, sel).strong_domains
        tol = group_tolerance(sel.lambda_k)
        for S, (A, count) in zip(classes, factored):
            own = sum(bool(S[d[0]]) for d in domains)
            assert count >= own, (k, count, own)
            if count > own:
                values = pencil_values(A, sel.psi[S], tol)
                assert values[count - 1] <= tol, (k, count, values)


def test_limit_multiplicity_counts_the_strong_domains_on_graded_weights():
    # A block of norm 7.6e8: a values-only solve finds 1 eigenvalue at
    # lambda_2, as its rounding exceeds the 1e-8 window; inertia finds 2.
    g = graded(10.0)
    sel = select(g, 2)
    assert limit_multiplicity(g, sel) == nodal_decomposition(g, sel).nu


@pytest.mark.parametrize(
    "g,k,nu",
    [
        (grid(7, 5), 5, 3), (petersen(7, 3), 7, 3), (interval(6), 4, 4), (complete(5), 2, 2),
        (grid(4, 3), 1, 1), (WeightedGraph(3, ((0, 1, 2.0), (1, 2, 5.0)), (0.5, 0.0, 3.0)), 1, 1),
        (graded(1.1547819846894583), 2, 2),
    ],
    ids=["grid75-k5", "petersen-k7", "path6-k4", "k5-k2", "grid43-k1", "path3-diag-k1",
         "graded-k2"],
)
def test_limit_multiplicity_solves_each_sign_class(monkeypatch, g, k, nu):
    # Each non-empty sign class is counted on its own ground-state
    # Laplacian: one factorization of the class's size, at or below 0, and no
    # eigensolve, graded blocks included. The count is the strong nodal
    # domain count. At k = 1 psi has one sign, so one class of size n is
    # counted.
    sel = select(g, k)
    calls, count_nonpositive, solve = [], edge_flow._count_nonpositive, edge_flow.eigendecompose

    def factored(A):
        calls.append(("factor", len(A)))
        return count_nonpositive(A)

    def solved(M, **kwargs):
        calls.append(("solve", len(M.matrix), kwargs.get("vectors", True)))
        return solve(M, **kwargs)

    monkeypatch.setattr(edge_flow, "_count_nonpositive", factored)
    monkeypatch.setattr(edge_flow, "eigendecompose", solved)
    assert limit_multiplicity(g, sel) == nu
    classes = [size for size in (int(np.sum(sel.psi > 0)), int(np.sum(sel.psi < 0))) if size]
    assert len(classes) == (1 if k == 1 else 2)
    assert calls == [("factor", size) for size in classes]


@pytest.mark.parametrize(
    "g,k",
    [
        (grid(7, 5), 5), (petersen(7, 3), 7), (interval(6), 4), (graded(10.0), 2),
        (graded(1.1547819846894583), 2), (spread_path(), 4), (spread_example(), 3),
    ],
    ids=["grid75-k5", "petersen-k7", "path6-k4", "graded-A", "graded-B", "spread-path-k4",
         "spread-example-k3"],
)
def test_limit_multiplicity_factors_each_class_block_as_the_class_builds_it(g, k):
    # The blocks _count_nonpositive receives are bit for bit each class's
    # matrix assembled on its own, signed zeros included.
    sel = select(g, k)
    blocks = factored_blocks(g, sel)
    expected = sign_class_blocks(g.n, g.edges, sel.psi, group_tolerance(sel.lambda_k))
    assert len(blocks) == len(expected) == 2
    for got, want in zip(blocks, expected):
        assert_bit_equal(got, want)


def factored_blocks(g, sel) -> list[np.ndarray]:
    """Copies of the blocks limit_multiplicity(g, sel) factors, in order,
    taken before the factorization overwrites them."""
    blocks, count_nonpositive = [], edge_flow._count_nonpositive

    def recorded(A):
        blocks.append(np.array(A))
        return count_nonpositive(A)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edge_flow, "_count_nonpositive", recorded)
        limit_multiplicity(g, sel)
    return blocks


def assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=60, deadline=None)
@given(spread_weighted_graphs(min_n=1, max_n=30))
@example(WeightedGraph(1, (), (0.5,)))
@example(spread_path())
def test_limit_multiplicity_factors_the_sign_class_blocks_bit_for_bit(g):
    # At every index with a nowhere-zero psi, k = 1's single sign class
    # included, each block factored is the oracle's class matrix, assembled
    # alone by a loop over the edges, to the bit and to the sign of zero.
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spectrum, k)
        if not sel.nowhere_zero:
            continue
        blocks = factored_blocks(g, sel)
        expected = sign_class_blocks(g.n, g.edges, sel.psi, group_tolerance(sel.lambda_k))
        assert len(blocks) == len(expected) == len(np.unique(np.sign(sel.psi)))
        for got, want in zip(blocks, expected):
            assert_bit_equal(got, want)


def test_limit_multiplicity_refuses_a_zero_entry():
    # psi at k = 2 on the path of 7 vertices vanishes at the middle vertex.
    g = interval(7)
    sel = select(g, 2)
    assert not sel.nowhere_zero
    with pytest.raises(ZeroVertex) as refused:
        limit_multiplicity(g, sel)
    assert refused.value.vertices == (3,)


def test_nodal_count_direct_builds_no_perturbation(monkeypatch):
    # The count reads g's edge arrays and psi alone: no EdgePerturbation.
    def refused(g, sel):
        raise AssertionError("nodal_count_direct built an EdgePerturbation")

    monkeypatch.setattr(edge_flow, "build_perturbation", refused)
    for g, k, nu in ((grid(7, 5), 5, 3), (petersen(7, 3), 7, 3), (spread_path(), 4, 4)):
        assert nodal_count_direct(g, select(g, k), allow_degenerate=True) == nu


@pytest.mark.parametrize("diag_5", [10.0, 1.1547819846894583], ids=["graded-A", "graded-B"])
def test_nodal_and_dirichlet_print_one_count(tmp_path, capsys, diag_5):
    # nodal's nu and dirichlet's multiplicity of lambda_k are one count,
    # limit_multiplicity's, and both equal the D-connected components here.
    path = tmp_path / "graded.json"
    save_graph(path, graded(diag_5))
    outs = []
    for command in ("nodal", "dirichlet"):
        assert main([command, "--graph", str(path), "--k", "2"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    nodal, dirichlet = outs
    assert nodal["nu"] == dirichlet["multiplicity_of_lambda_k"] == 2
    assert dirichlet["d_connected_components"] == 2


@pytest.mark.parametrize("g,k,nu", [(spread_example(), 3, 3), (spread_path(), 4, 4)],
                         ids=["path3-k3", "path4-k4"])
def test_nodal_count_direct_counts_the_strong_domains_on_spread_weights(
    tmp_path, capsys, g, k, nu
):
    # psi spans 1.3e8 and 4e7. A count on L + P's blocks, whose diagonal is
    # built from ratios of psi's entries, put a Dirichlet value outside the
    # window here, so nodal printed nu = 2 and 3 with exit 0; the
    # ground-state count reads the strong domains.
    sel = select(g, k)
    assert sel.simple and sel.nowhere_zero
    assert nodal_count_direct(g, sel) == nodal_decomposition(g, sel).nu == nu
    path = tmp_path / "spread.json"
    save_graph(path, g)
    assert main(["nodal", "--graph", str(path), "--k", str(k)]) == 0
    assert json.loads(capsys.readouterr().out)["nu"] == nu


def test_edge_flow_refuses_the_spread_example():
    # The flow's own certificate catches what the direct count misses.
    g = spread_example()
    with pytest.raises(FlowConsistencyError):
        run_edge_flow(g, select(g, 3))


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


@pytest.mark.parametrize(
    "g, k, steps, crossings",
    [(generate_connected_er(20, 0.3, 300).graph, 20, 33, 17), (grid(6, 6), 4, 60, 0),
     (grid(6, 6), 33, 60, 8)],
    ids=["er20-p0.3-s300-k20", "grid6x6-k4", "grid6x6-k33"],
)
def test_inertia_count_tracks_like_an_eigensolve_count(g, k, steps, crossings):
    # track_branches' default count factors L + sigma P once per bisection
    # midpoint. Counting the same matrix's eigvalsh values instead must give
    # the same FlowResult bit for bit, also on grid 6x6, whose flows start
    # from 13 degenerate clusters.
    sel = select(g, k)
    pert = build_perturbation(g, sel)

    def solved(sigma, t):
        return int(np.sum(np.linalg.eigvalsh(flow_matrix(pert, sigma).matrix) <= t))

    flows = [
        track_branches(lambda s: flow_matrix(pert, s), np.linspace(0.0, 1.0, steps),
                       sel.lambda_k, count=count)
        for count in (None, solved)
    ]
    assert len(flows[0].crossings) == crossings
    for field in dataclasses.fields(flows[0]):
        a, b = (getattr(fr, field.name) for fr in flows)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


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


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="an avoided crossing narrower than the refinement floor "
                          "swaps two overlaps that the eigenvalues keep apart")
def test_edge_flow_resolves_the_floor_step_that_the_eigenvalues_settle(tmp_path):
    # ER(20, 0.5) seed 319 at k = 9: psi's entries span 2e5, so a branch rises
    # at about 9e4 per unit sigma through an avoided crossing near
    # sigma = 3.4e-5 that is narrower than the floor. At the step there,
    # mu_17 = 14.26558 < lambda_18 = 14.26759 keeps each branch in place,
    # but the overlaps swap columns 17 and 18 (0.928 and 0.945).
    g = generate_connected_er(20, 0.5, 319).graph
    sel = select(g, 9)
    for steps in (33, 200):
        assert not run_edge_flow(g, sel, steps=steps).refinement_exhausted, steps
    path = tmp_path / "er319.json"
    save_graph(path, g)
    assert main(["flow", "--method", "edge", "--graph", str(path), "--k", "9",
                 "--steps", "33", "--out", str(tmp_path / "e")]) == 0


@pytest.fixture
def half_penalty(monkeypatch):
    """run_edge_flow with P / 2 in place of P (P is linear in w, and halving
    is exact, so the record with w / 2 derives P / 2 bit for bit): the flow
    stops short of the sigma = 1 matrix whose multiplicity of lambda_k is
    nu."""
    def half(g, sel):
        pert = build_perturbation(g, sel)
        halved = dataclasses.replace(pert, w=0.5 * pert.w)
        assert np.array_equal(halved.matrix, 0.5 * pert.matrix)
        return halved

    monkeypatch.setattr(edge_flow, "build_perturbation", half)


def test_run_edge_flow_certifies_its_ends(half_penalty, tmp_path, capsys):
    # On grid 7x5 at k=5 the short flow still has converged + crossings = k,
    # but two of the branches bound for lambda_5 end below it.
    g = grid(7, 5)
    sel = select(g, 5)
    with pytest.raises(
        FlowConsistencyError,
        match=r"converged 3 \+ crossings 2 vs k 5, below lambda_k 4 at sigma=0"
        r" vs k - 1 = 4 and 2 at sigma=1 vs 0",
    ):
        run_edge_flow(g, sel)

    # For a degenerate lambda_k the failure is a warning.
    fr = run_edge_flow(petersen(7, 3), select(petersen(7, 3), 7), allow_degenerate=True)
    assert fr.count_identity_ok is False
    assert fr.warnings[0] == "degenerate_lambda_k"
    assert fr.warnings[1].endswith("and 3 at sigma=1 vs 0")

    path = tmp_path / "g75.json"
    save_graph(path, g)
    assert main(["flow", "--method", "edge", "--graph", str(path), "--k", "5",
                 "--out", str(tmp_path / "e")]) == 2
    assert "edge certificate failed" in capsys.readouterr().err
    assert not list(tmp_path.glob("e.*"))


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
    ends, none = np.zeros(0, dtype=int), np.zeros(0)
    pert = EdgePerturbation(ends, ends, none, none, none, laplacian(g).matrix)
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
