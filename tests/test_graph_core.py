import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodalflow.dirichlet import (
    component_first_eigenpairs,
    d_connected_components,
    dirichlet_problem,
)
from nodalflow.edge_flow import build_perturbation, run_edge_flow, sign_preserving_graph
from nodalflow.errors import NotConnected
from nodalflow.families import complete, cycle, grid, grid_eigenvector_oracle, interval, petersen
from nodalflow.graph_core import (
    WeightedGraph,
    betti_1,
    components,
    connected_components,
    is_connected,
    laplacian,
)
from nodalflow.nodal import edge_signs, select_eigenpair, strong_domains_allowing_zeros
from nodalflow.spectra import eigendecompose

from _oracles import components_by_csgraph, dense_laplacian


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
    for w in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, w),))


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 2, 1.0),))


def test_rejects_negative_diag_extra():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, 1.0),), diag_extra=(0.0, -1.0))
    for x in (np.inf, np.nan):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, 1.0),), diag_extra=(0.0, x))


def test_rejects_an_empty_vertex_set():
    with pytest.raises(ValueError, match="need at least one vertex"):
        WeightedGraph(0, ())


def test_rejects_diag_extra_of_the_wrong_length():
    with pytest.raises(ValueError, match="diag_extra has length 1, expected 2"):
        WeightedGraph(2, ((0, 1, 1.0),), diag_extra=(1.0,))


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


def test_laplacian_is_kept_on_the_graph():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    assert laplacian(g) is laplacian(g)
    assert laplacian(WeightedGraph(3, g.edges)) is not laplacian(g)


def test_laplacian_matrix_is_read_only():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    L = laplacian(g).matrix
    with pytest.raises(ValueError):
        L[0, 0] = 7.0


# Every record that stores arrays, with its array fields in field order.
ARRAY_FIELDS = {
    "LaplacianMatrix": ("matrix",),
    "Spectrum": ("eigenvalues", "eigenvectors"),
    "Spectrum(vectors=False)": ("eigenvalues", "eigenvectors"),
    "EigenSelection": ("psi",),
    "EdgePerturbation": ("i", "j", "w", "q_ij", "q_ji", "laplacian"),
    "FlowResult": ("sigma_grid", "branch_values", "start_vectors"),
    "DirichletProblem": ("matrix",),
    "ComponentEigenReport": ("eigenvector",),
    "GridEigenOracle": ("eigenvector",),
}
# Arrays a record derives from its fields on first read.
DERIVED_ARRAYS = {"EdgePerturbation": ("matrix",)}


@pytest.fixture(scope="module")
def records():
    g = interval(4)
    spec = eigendecompose(laplacian(g))
    sel = select_eigenpair(spec, 2)
    pert = build_perturbation(g, sel)
    lim, base = sign_preserving_graph(g, pert), range(g.n)
    made = (
        laplacian(g), spec, sel, pert, run_edge_flow(g, sel, steps=5),
        dirichlet_problem(lim, base), component_first_eigenpairs(lim, base)[0],
        grid_eigenvector_oracle(3, 2, 2, 1),
    )
    return {
        **{type(r).__name__: r for r in made},
        "Spectrum(vectors=False)": eigendecompose(laplacian(g), vectors=False),
    }


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_record_arrays_are_read_only(records, name):
    record = records[name]
    arrays = tuple(
        f.name for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    )
    assert arrays == ARRAY_FIELDS[name]
    for field in arrays + DERIVED_ARRAYS.get(name, ()):
        assert getattr(record, field).flags.writeable is False


def test_laplacian_row_sums_vanish_without_diag_extra():
    g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 0.1), (0, 4, 1.0)))
    assert np.abs(laplacian(g).matrix.sum(axis=1)).max() < 1e-14


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


def _labelled(n, pairs, vertices=None):
    """components and the scipy reference on the same edge list."""
    ij = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return components(n, ij[:, 0], ij[:, 1], vertices), components_by_csgraph(n, pairs, vertices)


@st.composite
def listed_graphs(draw):
    """(n, pairs, vertices): 1-60 vertices, edges along a path over part of
    a random vertex order (so a component can hold far more than 16
    members) plus random pairs, and the listed vertices: all (None), none,
    or a random subset, keeping only the edges that join listed vertices."""
    n = draw(st.integers(1, 60))
    order = draw(st.permutations(range(n)))
    pairs = list(zip(order, order[1:draw(st.integers(1, n))]))
    vertex = st.integers(0, n - 1)
    pairs += [(a, b) for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)) if a != b]
    listed = draw(st.one_of(st.none(), st.just(frozenset()), st.frozensets(vertex)))
    if listed is None:
        return n, pairs, None
    return n, [(a, b) for a, b in pairs if a in listed and b in listed], sorted(listed)


@settings(max_examples=300, deadline=None)
@given(listed_graphs())
@example((1, [], None))
@example((5, [], None))
@example((5, [(0, 1)], []))
@example((60, [(v, v - 1) for v in range(59, 0, -1)], list(range(60))))
def test_components_match_the_scipy_search(graph):
    ours, reference = _labelled(*graph)
    assert ours == reference


@pytest.mark.parametrize("shape", ["path", "star"])
@pytest.mark.parametrize("labelling", ["ascending", "descending", "random"])
def test_components_match_the_scipy_search_on_long_paths_and_stars(shape, labelling):
    """10**4 vertices joined as a path or a star along the order, and again
    with every 100th vertex of the order left out (a path falls into runs of
    99)."""
    n = 10**4
    order = {
        "ascending": list(range(n)),
        "descending": list(range(n - 1, -1, -1)),
        "random": np.random.default_rng(7).permutation(n).tolist(),
    }[labelling]
    hubs = order[:-1] if shape == "path" else [order[0]] * (n - 1)
    pairs = list(zip(hubs, order[1:]))
    ours, reference = _labelled(n, pairs)
    assert ours == reference == (tuple(range(n)),)
    left_out = set(order[::100])
    kept = [(a, b) for a, b in pairs if a not in left_out and b not in left_out]
    ours, reference = _labelled(n, kept, sorted(set(range(n)) - left_out))
    assert ours == reference
    assert max(map(len, ours)) == (99 if shape == "path" else 1)


GOLDEN_GRAPHS = {
    "complete5": complete(5),
    "cycle5": cycle(5),
    "petersen73": petersen(7, 3),
    "grid75": grid(7, 5),
    "interval7": interval(7),
}


@pytest.mark.parametrize("name", GOLDEN_GRAPHS)
def test_domains_and_d_components_match_the_scipy_search_on_the_goldens(name):
    """At every k: the strong domains allowing zeros, and the D-connected
    components of the non-zero, the positive and the negative vertices."""
    g = GOLDEN_GRAPHS[name]
    spectrum = eigendecompose(laplacian(g))
    for k in range(1, g.n + 1):
        psi = select_eigenpair(spectrum, k).psi
        domains, zeros = strong_domains_allowing_zeros(g, psi)
        same = [e for e, sign in zip(g.edges, edge_signs(g, psi)) if sign > 0]
        nonzero = set(range(g.n)) - set(zeros)
        assert domains == components_by_csgraph(g.n, same, nonzero)
        for interior in (nonzero, nonzero & set(np.flatnonzero(psi > 0).tolist()),
                         nonzero & set(np.flatnonzero(psi < 0).tolist())):
            if interior:
                inside = [e for e in g.edges if e[0] in interior and e[1] in interior]
                assert d_connected_components(g, interior) == (
                    components_by_csgraph(g.n, inside, interior)
                )
