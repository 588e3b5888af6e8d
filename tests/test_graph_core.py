import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalflow.errors import NotConnected
from nodalflow.graph_core import (
    WeightedGraph,
    adjacency_lists,
    betti_1,
    connected_components,
    is_connected,
    laplacian,
)

from _oracles import dense_laplacian


def test_edges_are_canonicalized():
    g = WeightedGraph(3, ((2, 0, 1.5), (1, 0, 2.0)))
    assert g.edges == ((0, 1, 2.0), (0, 2, 1.5))


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 0, 1.0),))


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, 0.0),))
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, -3.0),))


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 2, 1.0),))


def test_rejects_negative_diag_extra():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, 1.0),), diag_extra=(0.0, -1.0))


def test_m_counts_edges():
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    assert g.m == 3


def test_laplacian_matches_dense_oracle():
    edges = ((0, 1, 2.0), (1, 2, 0.5), (0, 3, 1.0), (2, 3, 4.0))
    g = WeightedGraph(4, edges)
    L = laplacian(g).matrix
    np.testing.assert_allclose(L, dense_laplacian(4, edges), atol=0)


def test_laplacian_diag_extra_adds_to_diagonal():
    g = WeightedGraph(2, ((0, 1, 1.0),), diag_extra=(3.0, 0.25))
    L = laplacian(g).matrix
    np.testing.assert_allclose(L, [[4.0, -1.0], [-1.0, 1.25]])


def test_laplacian_matrix_is_read_only():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    L = laplacian(g).matrix
    with pytest.raises(ValueError):
        L[0, 0] = 7.0


def test_laplacian_row_sums_vanish_without_diag_extra():
    g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 0.1), (0, 4, 1.0)))
    assert np.abs(laplacian(g).matrix.sum(axis=1)).max() < 1e-14


def test_adjacency_lists():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    assert adjacency_lists(g) == [[1], [0, 2], [1]]


def test_connected_components_two_pieces():
    g = WeightedGraph(5, ((0, 1, 1.0), (3, 4, 1.0)))
    comps = connected_components(g)
    assert comps == ((0, 1), (2,), (3, 4))
    assert not is_connected(g)


def test_betti_1_cycle_is_one():
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
    assert betti_1(g) == 1


def test_betti_1_tree_is_zero():
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
    assert betti_1(g) == 0


def test_betti_1_raises_on_disconnected():
    g = WeightedGraph(4, ((0, 1, 1.0),))
    with pytest.raises(NotConnected):
        betti_1(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, tuple((i, j, w) for (i, j), w in zip(chosen, weights))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_laplacian_is_psd_and_matches_oracle(data):
    n, edges = data
    g = WeightedGraph(n, edges)
    L = laplacian(g).matrix
    # Exact, so the oracle sums the degrees in the same (canonical) order.
    np.testing.assert_array_equal(L, dense_laplacian(n, g.edges))
    vals = np.linalg.eigvalsh(L)
    assert vals.min() > -1e-10


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_component_count_matches_laplacian_kernel(data):
    n, edges = data
    g = WeightedGraph(n, edges)
    comps = connected_components(g)
    vals = np.linalg.eigvalsh(laplacian(g).matrix)
    kernel_dim = int(np.sum(np.abs(vals) < 1e-9))
    assert len(comps) == kernel_dim
    assert sorted(v for c in comps for v in c) == list(range(n))
