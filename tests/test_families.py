import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodalflow import families
from nodalflow.errors import (
    ConnectivityExhausted,
    InvalidFamilyParams,
)
from nodalflow.families import (
    MAX_ATTEMPTS,
    ConnectedER,
    complete,
    cycle,
    cycle_eigenbasis,
    erdos_renyi,
    generate,
    generate_connected_er,
    grid,
    grid_eigenvector_oracle,
    interval,
    path_eigenpair,
    petersen,
)
from nodalflow.graph_core import is_connected, laplacian
from nodalflow.spectra import eigendecompose

from _oracles import erdos_renyi_by_pair


def spectrum(g):
    return eigendecompose(laplacian(g)).eigenvalues


def degrees(g):
    i, j, _ = g.edge_arrays
    return np.bincount(np.concatenate((i, j)), minlength=g.n).tolist()


def test_complete_closed_form_spectrum():
    np.testing.assert_allclose(spectrum(complete(5)), [0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-9)


@pytest.mark.parametrize("n", [4, 5, 31])
def test_cycle_closed_form_spectrum(n):
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    np.testing.assert_allclose(spectrum(cycle(n)), expected, atol=1e-9)


@pytest.mark.parametrize("n", [2, 7])
def test_interval_closed_form_spectrum(n):
    expected = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    np.testing.assert_allclose(spectrum(interval(n)), expected, atol=1e-9)


def test_cycle_eigenbasis_members_are_eigenvectors():
    n = 31
    L = laplacian(cycle(n)).matrix
    lam, c, s = cycle_eigenbasis(n, 1)
    spec = eigendecompose(laplacian(cycle(n)))
    assert lam == pytest.approx(spec.eigenvalues[1], abs=1e-12)
    assert lam == pytest.approx(spec.eigenvalues[2], abs=1e-12)
    for v in (c, s):
        assert np.linalg.norm(L @ v - lam * v) < 1e-9
    assert abs(c @ s) < 1e-12


def test_cycle_eigenbasis_mode_range():
    with pytest.raises(ValueError):
        cycle_eigenbasis(4, 0)
    with pytest.raises(ValueError):
        cycle_eigenbasis(4, 2)


def test_petersen_structure():
    g = petersen(7, 3)
    assert g.n == 14
    assert g.m == 21
    assert degrees(g) == [3] * 14
    classic = petersen(5, 2)
    assert classic.n == 10 and classic.m == 15


def test_grid_structure():
    g = grid(7, 5)
    assert g.n == 35
    assert g.m == 58
    degs = degrees(g)
    assert degs[0] == 2
    assert max(degs) == 4


def test_family_validation():
    cases = [
        (lambda: complete(1)),
        (lambda: cycle(2)),
        (lambda: petersen(2, 1)),
        (lambda: petersen(7, 4)),
        (lambda: interval(1)),
        (lambda: grid(1, 5)),
        (lambda: erdos_renyi(1, 0.5, 0)),
        (lambda: erdos_renyi(5, 0.0, 0)),
        (lambda: erdos_renyi(5, 1.5, 0)),
    ]
    for build in cases:
        with pytest.raises(InvalidFamilyParams):
            build()


def test_erdos_renyi_deterministic():
    a = erdos_renyi(20, 0.3, 42)
    b = erdos_renyi(20, 0.3, 42)
    assert a.edges == b.edges
    c = erdos_renyi(20, 0.3, 43)
    assert c.edges != a.edges
    full = erdos_renyi(6, 1.0, 0)
    assert full.m == 15


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(100, 0.1, 100)
@example(150, 0.1, 150)
@example(200, 0.1, 200)
@example(2, 1.0, 0)
def test_erdos_renyi_draws_the_pairs_as_one_draw_per_pair(n, p, seed):
    # One draw of n - 1 - i uniforms per row reads the PCG64 stream as one
    # draw per pair does, so every sample keeps its edges (the benchmark's
    # er-scan graphs at n = 100, 150 and 200 among them).
    assert erdos_renyi(n, p, seed).edges == erdos_renyi_by_pair(n, p, seed)


def test_generate_connected_er_retries_until_connected():
    # Sparse samples at n=8, p=0.1 are usually disconnected, so the helper
    # has to walk past the starting seed.
    result = generate_connected_er(8, 0.1, 0)
    assert isinstance(result, ConnectedER)
    assert is_connected(result.graph)
    assert result.seed_used > 0
    again = generate_connected_er(8, 0.1, 0)
    assert again.graph.edges == result.graph.edges


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(8, 0.1, 0)
@example(12, 1e-3, 5)
def test_generate_connected_er_takes_the_first_connected_seed(n, p, seed):
    # Past MAX_ATTEMPTS seeds the search gives up, and then every seed it
    # tried must have drawn a disconnected sample.
    try:
        found = generate_connected_er(n, p, seed)
    except ConnectivityExhausted:
        end = seed + MAX_ATTEMPTS
    else:
        end = found.seed_used
        assert found.graph == erdos_renyi(n, p, end)
        assert is_connected(found.graph)
    for s in range(seed, end):
        assert not is_connected(erdos_renyi(n, p, s)), s


def test_generate_connected_er_exhausts(monkeypatch):
    # At p = 1e-12 no pair of 8 vertices draws an edge, so no sample is
    # connected and every one of the MAX_ATTEMPTS seeds is tried, in order.
    tried = []

    def recorded(n, p, seed):
        tried.append(seed)
        return erdos_renyi(n, p, seed)

    monkeypatch.setattr(families, "erdos_renyi", recorded)
    with pytest.raises(ConnectivityExhausted, match=f"within {MAX_ATTEMPTS} attempts from seed 7"):
        generate_connected_er(8, 1e-12, 7)
    assert tried == list(range(7, 7 + MAX_ATTEMPTS))


def test_generate_dispatch():
    assert generate("complete", (5,)).n == 5
    assert generate("cycle", (6,)).m == 6
    assert generate("petersen", (7, 3)).n == 14
    assert generate("interval", (7,)).m == 6
    assert generate("grid", (3, 4)).n == 12
    er = generate("erdos_renyi", (12, 0.4), seed=7)
    assert is_connected(er)
    with pytest.raises(InvalidFamilyParams):
        generate("erdos_renyi", (12, 0.4))
    with pytest.raises(InvalidFamilyParams):
        generate("star", (5,))


@pytest.mark.parametrize(
    "kind, arity",
    [("complete", 1), ("cycle", 1), ("petersen", 2), ("interval", 1), ("grid", 2),
     ("erdos_renyi", 2)],
)
def test_generate_refuses_the_wrong_parameter_count(kind, arity):
    for count in {0, arity - 1, arity + 1}:
        with pytest.raises(InvalidFamilyParams, match=f"^{kind} takes {arity} param"):
            generate(kind, (5.0,) * count, seed=7)


@pytest.mark.parametrize(
    "kind,params",
    [("cycle", (3.7,)), ("cycle", (float("inf"),)), ("grid", (7, 5.5)),
     ("petersen", (7.0, float("nan"))), ("erdos_renyi", (12.5, 0.4))],
)
def test_generate_refuses_sizes_that_are_not_whole_numbers(kind, params):
    with pytest.raises(InvalidFamilyParams, match="whole number"):
        generate(kind, params, seed=7)


def test_generate_takes_whole_floats_and_a_float_probability():
    assert generate("grid", (3.0, 4.0)).n == 12
    assert generate("erdos_renyi", (12.0, 0.4), seed=7).n == 12


def test_path_eigenpair_matches_solver():
    g = interval(7)
    spec = eigendecompose(laplacian(g))
    for j in range(1, 8):
        lam, v = path_eigenpair(7, j)
        assert lam == pytest.approx(spec.eigenvalues[j - 1], abs=1e-9)
        assert abs(v @ spec.eigenvectors[:, j - 1]) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        path_eigenpair(7, 0)
    with pytest.raises(ValueError):
        path_eigenpair(7, 8)


def test_grid_eigenvector_oracle_additive_rule():
    L = laplacian(grid(7, 5)).matrix
    for k1, j1 in ((1, 1), (3, 1), (2, 2), (7, 5)):
        oracle = grid_eigenvector_oracle(7, 5, k1, j1)
        assert oracle.rule == "sum"
        assert oracle.residual < 1e-9
        lam_a, _ = path_eigenpair(7, k1)
        lam_b, _ = path_eigenpair(5, j1)
        assert oracle.eigenvalue == pytest.approx(lam_a + lam_b, abs=1e-12)
        v = oracle.eigenvector
        assert np.linalg.norm(L @ v - oracle.eigenvalue * v) < 1e-9
