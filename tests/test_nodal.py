import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodalflow import nodal
from nodalflow.edge_flow import build_perturbation
from nodalflow.errors import ZeroVertex
from nodalflow.families import complete, cycle, erdos_renyi, grid, interval, petersen
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import (
    EigenSelection,
    courant_and_betti_check,
    edge_signs,
    nodal_decomposition,
    perturb_to_nonzero,
    select_eigenpair,
    sign_change_edges,
    sign_change_mask,
    strong_domains_allowing_zeros,
    zero_vertices,
)
from nodalflow.spectra import eigendecompose

from _oracles import chain_cluster, flood_fill_nodal_count, flood_fill_weak_count


def spectrum_of(g):
    return eigendecompose(laplacian(g))


def test_zero_vertices_relative_threshold():
    assert zero_vertices(np.array([1.0, 1e-11, -0.5])) == (1,)
    assert zero_vertices(np.array([1.0, 1e-9, -0.5])) == ()


def test_zero_vertices_scales_with_magnitude():
    # Same relative pattern, so the same verdict at any overall scale.
    assert zero_vertices(np.array([1e6, 1e-5, -1e6])) == (1,)


def test_select_eigenpair_simple_path():
    sel = select_eigenpair(spectrum_of(interval(7)), 2)
    assert sel.k == 2
    assert sel.requested_k == 2
    assert sel.simple
    assert not sel.nowhere_zero
    assert sel.lambda_k == pytest.approx(0.19806226419516143, abs=1e-12)
    assert zero_vertices(sel.psi) == (3,)


def test_select_eigenpair_normalizes_degenerate_group():
    spec = spectrum_of(complete(5))
    for requested in (2, 3, 4, 5):
        sel = select_eigenpair(spec, requested)
        assert sel.k == 2
        assert sel.requested_k == requested
        assert not sel.simple
        assert sel.lambda_k == pytest.approx(5.0, abs=1e-9)


@st.composite
def er_graphs(draw):
    """An ER sample on 2-12 vertices, connected or not, with unit weights or
    with weights drawn from [0.1, 10]."""
    n = draw(st.integers(min_value=2, max_value=12))
    p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    g = erdos_renyi(n, p, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        w = draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                          min_size=g.m, max_size=g.m))
        g = WeightedGraph(n, tuple((i, j, x) for (i, j, _), x in zip(g.edges, w)))
    return g


@settings(max_examples=100, deadline=None)
@given(er_graphs())
@example(complete(5))
@example(petersen(7, 3))
def test_select_eigenpair_matches_the_chain_rule_groups(g):
    spec = spectrum_of(g)
    groups = chain_cluster(spec.eigenvalues)
    for k in range(1, g.n + 1):
        group = next(members for members in groups if k - 1 in members)
        sel = select_eigenpair(spec, k)
        assert sel.requested_k == k
        assert sel.k == group[0] + 1
        assert sel.simple == (len(group) == 1)
        assert (sel.k == sel.requested_k) == (k - 1 == group[0])


def test_select_eigenpair_rejects_out_of_range():
    spec = spectrum_of(interval(4))
    with pytest.raises(ValueError):
        select_eigenpair(spec, 0)
    with pytest.raises(ValueError):
        select_eigenpair(spec, 5)


def test_selected_eigenvector_is_read_only():
    sel = select_eigenpair(spectrum_of(interval(4)), 2)
    with pytest.raises(ValueError):
        sel.psi[0] = 1.0


def test_sign_change_edges_path_four():
    g = interval(4)
    sel = select_eigenpair(spectrum_of(g), 2)
    assert sel.nowhere_zero
    edges = sign_change_edges(g, sel.psi)
    assert [(i, j) for i, j, _ in edges] == [(1, 2)]


def test_sign_change_edges_refuses_zeros():
    g = interval(7)
    sel = select_eigenpair(spectrum_of(g), 2)
    with pytest.raises(ZeroVertex):
        sign_change_edges(g, sel.psi)


def test_sign_change_mask_holds_at_any_scale():
    # A product psi_i * psi_j underflows to 0 at 1e-200 and overflows at
    # 1e200; the signs themselves do neither.
    g = grid(7, 5)
    psi = np.asarray(select_eigenpair(spectrum_of(g), 5).psi)
    mask = sign_change_mask(g, psi)
    assert np.count_nonzero(mask) == 10
    for scale in (1e-200, 1e200):
        np.testing.assert_array_equal(sign_change_mask(g, scale * psi), mask)


def test_signs_look_for_zero_vertices_once(monkeypatch):
    g = grid(7, 5)
    psi = np.asarray(select_eigenpair(spectrum_of(g), 5).psi)
    calls = []

    def counted(psi):
        calls.append(1)
        return zero_vertices(psi)

    monkeypatch.setattr(nodal, "zero_vertices", counted)
    for find in (sign_change_mask, strong_domains_allowing_zeros, edge_signs):
        calls.clear()
        find(g, psi)
        assert len(calls) == 1, find.__name__


@pytest.mark.parametrize("build", [build_perturbation])
def test_flow_records_refuse_zeros(build):
    # psi_2 of interval(7) vanishes at the midpoint.
    g = interval(7)
    sel = select_eigenpair(spectrum_of(g), 2)
    with pytest.raises(ZeroVertex):
        build(g, sel)


def test_nodal_decomposition_path_four():
    g = interval(4)
    sel = select_eigenpair(spectrum_of(g), 2)
    nd = nodal_decomposition(g, sel)
    assert nd.nu == 2
    assert sel.k - nd.nu == 0
    assert nd.strong_domains == ((0, 1), (2, 3))
    # Nowhere-zero eigenvector: weak and strong domains coincide.
    assert len(nd.strong_domains) == flood_fill_weak_count(g.n, g.edges, sel.psi)
    assert len(nd.sign_change_edges) == 1


def test_nodal_decomposition_petersen_golden():
    g = petersen(7, 3)
    spec = spectrum_of(g)
    # lambda_7 is a degenerate pair; both members count 3 domains.
    for requested in (7, 8):
        sel = select_eigenpair(spec, requested)
        assert sel.k == 7
        assert not sel.simple
        assert sel.nowhere_zero
        nd = nodal_decomposition(g, sel)
        assert nd.nu == 3
        assert sel.k - nd.nu == 4
        assert nd.nu == flood_fill_nodal_count(g.n, g.edges, sel.psi)


def test_nodal_decomposition_matches_flood_fill_on_grid():
    g = grid(7, 5)
    spec = spectrum_of(g)
    for k in range(1, g.n + 1):
        sel = select_eigenpair(spec, k)
        if not sel.nowhere_zero:
            continue
        nd = nodal_decomposition(g, sel)
        assert nd.nu == flood_fill_nodal_count(g.n, g.edges, sel.psi)
        assert len(nd.strong_domains) == flood_fill_weak_count(g.n, g.edges, sel.psi)


def test_strong_domains_allowing_zeros_path_seven():
    g = interval(7)
    sel = select_eigenpair(spectrum_of(g), 2)
    domains, zeros = strong_domains_allowing_zeros(g, sel.psi)
    assert zeros == (3,)
    assert domains == ((0, 1, 2), (4, 5, 6))


def test_strong_domains_allowing_zeros_explicit_vector():
    g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    psi = np.array([1.0, 1.0, 0.0, -1.0, 1.0])
    domains, zeros = strong_domains_allowing_zeros(g, psi)
    assert zeros == (2,)
    assert domains == ((0, 1), (3,), (4,))


def test_courant_and_betti_petersen():
    g = petersen(7, 3)
    sel = select_eigenpair(spectrum_of(g), 7)
    nd = nodal_decomposition(g, sel)
    report = courant_and_betti_check(g, sel, nd)
    assert sel.k == 7
    assert nd.nu == 3
    assert report.beta_1 == 8
    assert report.upper_ok
    assert report.lower_ok
    # Degenerate eigenvalue, so the lower bound is not claimed.
    assert not report.lower_applicable


def test_courant_lower_bound_applicable_simple_case():
    g = interval(4)
    sel = select_eigenpair(spectrum_of(g), 2)
    report = courant_and_betti_check(g, sel, nodal_decomposition(g, sel))
    assert report.beta_1 == 0
    assert report.lower_applicable
    assert report.lower_ok and report.upper_ok


def test_courant_lower_bound_not_claimed_when_degenerate():
    g = cycle(4)
    psi = np.array([1.0, -1.0, 1.0, -1.0])
    sel = EigenSelection(
        k=4,
        requested_k=4,
        lambda_k=4.0,
        psi=psi,
        simple=False,
        nowhere_zero=True,
    )
    nd = nodal_decomposition(g, sel)
    report = courant_and_betti_check(g, sel, nd)
    assert nd.nu == 4
    assert report.upper_ok and report.lower_ok
    assert not report.lower_applicable


def test_perturb_to_nonzero_breaks_path_symmetry():
    g = interval(7)
    sel = select_eigenpair(spectrum_of(g), 2)
    assert not sel.nowhere_zero
    sel2 = select_eigenpair(spectrum_of(perturb_to_nonzero(g)), 2)
    assert sel2.nowhere_zero
    assert sel2.lambda_k == pytest.approx(sel.lambda_k, abs=1e-6)


def test_perturb_to_nonzero_is_deterministic():
    g = interval(5)
    a = perturb_to_nonzero(g, seed=3)
    b = perturb_to_nonzero(g, seed=3)
    assert a.diag_extra == b.diag_extra
    assert a.edges == g.edges
    assert a.n == g.n
    c = perturb_to_nonzero(g, seed=4)
    assert c.diag_extra != a.diag_extra


def test_perturb_to_nonzero_magnitude_bounds():
    g = interval(5)
    out = perturb_to_nonzero(g, magnitude=1e-6, seed=0)
    bumps = np.array(out.diag_extra) - np.array(g.diag_extra)
    assert np.all(bumps > 0)
    assert np.all(bumps < 2e-6)


def test_perturb_to_nonzero_rejects_bad_magnitude():
    g = interval(5)
    with pytest.raises(ValueError):
        perturb_to_nonzero(g, magnitude=0.0)
    with pytest.raises(ValueError):
        perturb_to_nonzero(g, magnitude=-1e-9)
    for magnitude in (np.inf, np.nan):
        with pytest.raises(ValueError):
            perturb_to_nonzero(g, magnitude=magnitude)


@st.composite
def graphs_with_index(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=len(pairs), unique=True)
    )
    # Always include a spanning path so selection indices stay meaningful
    # on a connected graph.
    edges = {(i, i + 1) for i in range(n - 1)} | set(chosen)
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    g = WeightedGraph(n, tuple((i, j, w) for (i, j), w in zip(sorted(edges), weights)))
    k = draw(st.integers(min_value=1, max_value=n))
    return g, k


@settings(max_examples=60, deadline=None)
@given(graphs_with_index())
def test_nodal_count_matches_flood_fill_oracle(case):
    g, k = case
    sel = select_eigenpair(spectrum_of(g), k)
    if not sel.nowhere_zero:
        domains, zeros = strong_domains_allowing_zeros(g, sel.psi)
        assert set(range(g.n)) == set(zeros) | {v for d in domains for v in d}
        return
    nd = nodal_decomposition(g, sel)
    assert nd.nu == flood_fill_nodal_count(g.n, g.edges, sel.psi)
    assert len(nd.strong_domains) == flood_fill_weak_count(g.n, g.edges, sel.psi)
    assert nd.nu <= sel.k
    if sel.simple:
        assert nd.nu >= sel.k - (g.m - g.n + 1)
