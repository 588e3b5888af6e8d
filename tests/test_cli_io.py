import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nodalflow
from nodalflow import cli, dirichlet, edge_flow, fileio, graph_core, spectra, svg, vertex_flow
from nodalflow.cli import main
from nodalflow.edge_flow import run_edge_flow
from nodalflow.families import grid, interval
from nodalflow.graph_core import LaplacianMatrix, WeightedGraph, laplacian
from nodalflow.nodal import select_eigenpair
from nodalflow.spectra import eigendecompose
from nodalflow.vertex_flow import run_vertex_flow

from _oracles import (
    branch_chart_svg_by_value,
    branch_table_csv_by_value,
    dense_laplacian,
    flood_fill_nodal_count,
    limit_graph,
    ticks_unguarded,
    y_axis_unguarded,
)
from test_spectra import _minima_collide, _recorded_assignments

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"


def run_python(*args):
    """Run ``python *args`` in a child interpreter that imports the package
    from this checkout's src, installed or not."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*argv):
    return run_python("-m", "nodalflow", *argv)


def test_format_float_round_trips():
    values = [0.1, 1.0 / 3.0, 8.8817841970012523e-16, -2.915064975892576, 1e300]
    for x in values:
        assert float(fileio.format_float(x)) == x


def test_canonical_json_scalars_and_order():
    obj = {"b": 1, "a": 0.1, "flag": True, "none": None, "v": [1.5, 2]}
    out = fileio.canonical_json(obj)
    assert out == (
        '{"b": 1, "a": 0.10000000000000001, "flag": true, '
        '"none": null, "v": [1.5, 2]}'
    )
    assert fileio.canonical_json(np.float64(0.5)) == "0.5"
    assert fileio.canonical_json(np.int64(7)) == "7"
    assert fileio.canonical_json(np.array([1.0, 2.0])) == "[1, 2]"
    with pytest.raises(TypeError):
        fileio.canonical_json({1, 2})


def test_serialize_parse_round_trip():
    g = WeightedGraph(4, ((0, 1, 0.1), (2, 3, 2.5)), (0.0, 1e-9, 0.0, 0.0))
    meta = {"family": "custom", "params": [4]}
    text = fileio.serialize_graph(g, meta)
    g2, meta2 = fileio.parse_graph(text)
    assert g2.n == g.n
    assert g2.edges == g.edges
    assert g2.diag_extra == g.diag_extra
    assert meta2 == meta
    assert fileio.serialize_graph(g2, meta2) == text


def test_serialize_parse_round_trip_without_edges():
    g = WeightedGraph(1, ())
    text = fileio.serialize_graph(g)
    assert json.loads(text) == {"n": 1, "edges": []}
    g2, meta = fileio.parse_graph(text)
    assert (g2.n, g2.edges, g2.diag_extra, meta) == (1, (), (0.0,), None)
    assert fileio.serialize_graph(g2) == text


def test_serialize_omits_empty_sections():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    text = fileio.serialize_graph(g)
    assert '"diag"' not in text
    assert '"meta"' not in text
    g2, meta = fileio.parse_graph(text)
    assert g2.edges == g.edges
    assert meta is None


def test_parse_graph_rejects_malformed():
    with pytest.raises(ValueError):
        fileio.parse_graph('{"n": 3, "edges": [], "bogus": 1}')
    with pytest.raises(ValueError):
        fileio.parse_graph('[1, 2]')
    with pytest.raises(ValueError):
        fileio.parse_graph('{"n": 3}')
    for text, part in [
        ('{"n": 3, "edges": [[0, 1]]}', "'edges'"),
        ('{"n": 3, "edges": 5}', "'edges'"),
        ('{"n": [3], "edges": []}', "'n'"),
        ('{"n": 3, "edges": [], "diag": 5}', "'diag'"),
        ('{"n": "3", "edges": []}', "'n'"),
        ('{"n": 3, "edges": ["011"]}', "'edges'"),
        ('{"n": 3, "edges": [[1, 2, "1.5"]]}', "'edges'"),
        ('{"n": 3, "edges": [[0, true, 1.0]]}', "'edges'"),
        ('{"n": 3, "edges": [], "diag": ["1", 0, 0]}', "'diag'"),
        ('{"n": 3, "edges": [[0, 1, Infinity]]}', "'edges'"),
        ('{"n": 3, "edges": [], "diag": [NaN, 0, 0]}', "'diag'"),
        ('{"n": 3, "edges": [[0, 1, 1' + "0" * 400 + "]]}", "'edges'"),
        ('{"n": 3, "edges": [[0, 1, 1.0, 2.0]]}', "'edges'"),
    ]:
        with pytest.raises(ValueError, match=part):
            fileio.parse_graph(text)


@pytest.mark.parametrize("text, message", [
    ('{"n": true, "edges": []}', "'n': expected an integer, got True"),
    ('{"n": 3, "edges": [[0, 1.0, 1.0]]}', "'edges': expected an integer, got 1.0"),
    ('{"n": 3, "edges": [[0, 1, false]]}', "'edges': expected a number, got False"),
    ('{"n": 3, "edges": [[0, 1, Infinity]]}', "'edges': expected a finite number, got inf"),
    ('{"n": 3, "edges": [[0, 1, 1.0], 7]}', "'edges': expected a list, got 7"),
    ('{"n": 3, "edges": [], "diag": [0, -Infinity, 0]}', "'diag': expected a finite number, got -inf"),
])
def test_parse_graph_names_the_field_and_the_value(text, message):
    with pytest.raises(ValueError) as info:
        fileio.parse_graph(text)
    assert str(info.value) == f"graph file has a malformed {message}"


@st.composite
def extreme_graphs(draw):
    """Graphs on 1-12 vertices with weights anywhere in the positive
    doubles (subnormals and 1e308 included) and a diagonal with at least
    one nonzero entry."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    weights = draw(st.lists(positive, min_size=len(chosen), max_size=len(chosen)))
    diag = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=n, max_size=n))
    diag[draw(st.integers(0, n - 1))] = draw(positive)
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in zip(chosen, weights)), tuple(diag))


@settings(max_examples=100, deadline=None)
@given(extreme_graphs())
def test_serialize_parse_round_trips_extreme_weights(g):
    text = fileio.serialize_graph(g)
    g2, meta = fileio.parse_graph(text)
    assert (g2.n, g2.edges, g2.diag_extra, meta) == (g.n, g.edges, g.diag_extra, None)
    assert fileio.serialize_graph(g2) == text


def test_branch_table_csv_shape():
    g = interval(4)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 2)
    fr = run_edge_flow(g, sel, steps=5)
    text = fileio.branch_table_csv(fr)
    lines = text.strip().split("\n")
    assert lines[0] == "sigma," + ",".join(f"branch_{b}" for b in range(4))
    assert len(lines) == 1 + len(fr.sigma_grid)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 5


# Values anywhere in +-1e300, subnormals and -0.0 included; the bound keeps
# differences of two values finite, as the chart's scale needs.
_VALUES = st.floats(min_value=-1e300, max_value=1e300)


def _flow_result(sigmas, values, reference):
    return spectra.FlowResult(
        sigma_grid=sigmas, branch_values=values, start_vectors=np.eye(len(values)),
        reference_value=reference, crossings=(), converged_count=0,
    )


@st.composite
def flow_results(draw):
    """FlowResults with 1-30 branches on 2-50 increasing grid points,
    sigma = 0 first or not, and branch values from _VALUES, or all equal
    to a reference value from _VALUES (a flat y-range). The grid is a
    sorted set of integers up to 1e6 times 10^e for e in [-300, 290]."""
    B, T = draw(st.integers(1, 30)), draw(st.integers(2, 50))
    steps = draw(st.lists(st.integers(1, 10**6), min_size=T, max_size=T, unique=True))
    sigmas = np.array(sorted(steps), dtype=float) * 10.0 ** draw(st.integers(-300, 290))
    if draw(st.booleans()):
        sigmas[0] = 0.0
    if draw(st.booleans()):
        reference = draw(_VALUES)
        values = np.full((B, T), reference)
    else:
        reference = draw(_VALUES)
        values = draw(arrays(np.float64, (B, T), elements=_VALUES))
    return _flow_result(sigmas, values, reference)


def assert_chart_matches_the_oracles(fr, log_x, title=""):
    """branch_chart_svg is byte-equal to the per-value writer, and its
    y-range is the 4% pad's wherever that has width and ticks."""
    plotted = fr.branch_values[:, fr.sigma_grid > 0] if log_x else fr.branch_values
    lo = min(float(plotted.min()), fr.reference_value)
    hi = max(float(plotted.max()), fr.reference_value)
    unguarded = y_axis_unguarded(lo, hi)
    assert unguarded is None or svg._y_axis(lo, hi) == unguarded
    assert svg.branch_chart_svg(fr, log_x=log_x, title=title) == (
        branch_chart_svg_by_value(fr, log_x=log_x, title=title)
    )


@settings(max_examples=150, deadline=None)
@given(flow_results(), st.booleans())
def test_writers_match_the_per_value_writers(fr, log_x):
    assert fileio.branch_table_csv(fr) == branch_table_csv_by_value(fr)
    assert_chart_matches_the_oracles(fr, log_x, "t")


def test_writers_match_the_per_value_writers_at_the_extremes():
    """Fixed draws: +-1e300, +-1e-300, subnormals and -0.0 in one table,
    and a flat y-range with sigma = 0 first."""
    extremes = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-320, -0.0, 0.0]
    grid = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300])
    values = np.array([extremes[:5], extremes[3:], extremes[::-1][:5]])
    flat = np.full((2, 5), -0.0)
    for v, ref in ((values, 1e300), (values, -0.0), (flat, -0.0), (flat, 1e-300)):
        fr = _flow_result(grid, v, ref)
        assert fileio.branch_table_csv(fr) == branch_table_csv_by_value(fr)
        for log_x in (False, True):
            assert_chart_matches_the_oracles(fr, log_x)


@pytest.mark.parametrize("method", ["vertex", "edge"])
def test_writers_match_the_per_value_writers_on_a_flow(method):
    g = grid(4, 3)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 5)
    fr = run_vertex_flow(g, sel) if method == "vertex" else run_edge_flow(g, sel)
    assert fileio.branch_table_csv(fr) == branch_table_csv_by_value(fr)
    for log_x in (False, True):
        assert_chart_matches_the_oracles(fr, log_x, method)


@st.composite
def value_ranges(draw):
    """(lo, hi) with lo from _VALUES and hi at most 40 ulps above it (flat,
    near-flat, or subnormal near 0) or anywhere above it up to 1e300."""
    lo = draw(_VALUES)
    if draw(st.booleans()):
        return lo, float(lo + draw(st.integers(0, 40)) * abs(np.spacing(lo)))
    return lo, draw(st.floats(min_value=lo, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(value_ranges())
def test_chart_frame_has_width_and_ticks_on_every_range(value_range):
    lo, hi = value_range
    try:
        expected = ticks_unguarded(lo, hi)
    except ValueError:
        expected = []
    assert svg._ticks(lo, hi) == expected
    ylo, yhi, ticks = svg._y_axis(lo, hi)
    assert ylo <= lo <= hi <= yhi and ylo < yhi and ticks
    if y_axis_unguarded(lo, hi) is None:
        pad = 0.04 * max(1.0, abs(lo), abs(hi))
        assert (ylo, yhi) == (lo - pad, hi + pad)


def test_chart_ticks_end_on_near_flat_and_subnormal_ranges():
    assert svg._ticks(1e6, 1e6 + 1.2e-10) == []
    assert svg._ticks(0.0, 5e-324) == []
    assert svg._y_axis(1e20, 1e20) == (9.6e19, 1.04e20, [96 * 10**18, 98 * 10**18, 10**20,
                                                         102 * 10**18, 104 * 10**18])
    assert svg._y_axis(0.0, 5e-324) == (-0.04, 0.04 + 5e-324, [-0.04, -0.02, 0.0, 0.02, 0.04])
    for sigmas in ([0.0, 5e-324], [1e6, np.nextafter(1e6, 2e6)]):  # x-ranges with no ticks
        chart = svg.branch_chart_svg(_flow_result(np.array(sigmas), np.array([[1.0, 2.0]]), 1.5))
        assert not re.search(r"nan|inf", chart)


def test_chart_ticks_stop_half_a_step_past_a_near_flat_range():
    # Ending at hi + 1e-12 |hi| alone, the ticks ran on for many frame
    # widths past yhi here: 198 and 5005 of them.
    assert svg._y_axis(1.0, 1.0 + 1e-14) == (
        0.9999999999999996, 1.0000000000000104,
        [1.0000000000000002, 1.0000000000000053, 1.0000000000000104],
    )
    ylo, yhi, ticks = svg._y_axis(1e308, 1.000000000000001e308)
    ticks = [float(t) for t in ticks]  # integers: the step is 2 * 10**292
    step = ticks[1] - ticks[0]
    assert len(ticks) == 7 and ylo <= ticks[0] and ticks[-2] <= yhi < ticks[-1] <= yhi + step / 2


@settings(max_examples=300, deadline=None)
@given(value_ranges())
def test_chart_ticks_cut_only_ticks_past_the_range(value_range):
    """Against the rule before the cap, wherever that rule ends: the ticks
    are its first ones, all of them unless it had a tick above hi, and at
    most one lies above hi."""
    lo, hi = value_range
    try:
        uncapped = ticks_unguarded(lo, hi, capped=False)
    except ValueError:
        return
    ticks = svg._ticks(lo, hi)
    assert ticks == uncapped[: len(ticks)]
    assert ticks == uncapped or uncapped[-1] > hi
    assert sum(t > hi for t in ticks) <= 1


_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "lo,hi",
    [(0.0, 1.75e308), (-1e308, 1e308), (_MAX, _MAX), (-_MAX, -_MAX), (-_MAX, _MAX),
     (-1e300, _MAX), (1.7e308, 1.7e308)],
)
def test_chart_frame_stays_finite_past_the_largest_double(lo, hi):
    # Where the padded y-range, or its width, overflows a double, the frame
    # is cut to the finite doubles and mapped at half scale: every number in
    # the chart is finite and every point lies inside the plot area.
    ylo, yhi, ticks = svg._y_axis(lo, hi)
    assert -_MAX <= ylo <= lo <= hi <= yhi <= _MAX and ylo < yhi
    assert ticks and all(ylo <= t <= yhi for t in ticks)
    fr = _flow_result(np.array([0.0, 0.5, 1.0]), np.array([[lo, hi, lo], [hi, lo, hi]]), lo)
    chart = svg.branch_chart_svg(fr)
    assert not re.search(r"nan|inf", chart)
    numbers = re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", chart)
    assert numbers and all(math.isfinite(float(x)) for x in numbers)
    for points in re.findall(r'points="([^"]*)"', chart):
        ys = [float(pair.split(",")[1]) for pair in points.split()]
        assert all(svg._MT <= y <= svg._H - svg._MB for y in ys)


@pytest.mark.parametrize("method", ["edge", "vertex"])
def test_cli_flow_charts_a_flat_range_far_from_zero(method, tmp_path, capsys):
    """One vertex with diagonal 1e20: every branch value is 1e20, where the
    4% pad of a flat range is lost in rounding."""
    graph = tmp_path / "one.json"
    graph.write_text('{"n": 1, "edges": [], "diag": [1e20]}')
    out = tmp_path / "one"
    assert main(["flow", "--method", method, "--graph", str(graph), "--k", "1",
                 "--out", str(out), "--svg"]) == 0
    chart = (tmp_path / "one.svg").read_text()
    assert ">1e+20</text>" in chart and ">9.6e+19</text>" in chart
    assert not re.search(r"nan|inf", chart)


def test_flow_summary_key_order():
    g = interval(4)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 2)
    fr = run_edge_flow(g, sel, steps=5)
    summary = fileio.flow_summary(fr, 2, {"simple": True})
    assert list(summary) == [
        "k",
        "lambda_k",
        "nu",
        "deficiency",
        "crossings",
        "converged_count",
        "branch_origins",
        "flags",
    ]


@pytest.mark.parametrize("method", ["edge", "vertex"])
def test_cli_flow_writes_the_summary_built_field_by_field(method, tmp_path, capsys):
    # The JSON summary holds lambda_k, nu and the deficiency of the
    # selection and the flow, as a caller that passes each of them builds it.
    g = grid(4, 3)
    graph = tmp_path / "g.json"
    fileio.save_graph(graph, g)
    out = tmp_path / "run"
    assert main(["flow", "--method", method, "--graph", str(graph), "--k", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    sel = select_eigenpair(eigendecompose(laplacian(g)), 5)
    run = run_vertex_flow if method == "vertex" else run_edge_flow
    fr = run(g, sel, allow_degenerate=True)
    nu = fr.converged_count
    summary = {
        "k": sel.k,
        "lambda_k": sel.lambda_k,
        "nu": nu,
        "deficiency": sel.k - nu,
        "crossings": [
            {"branch": c.branch, "sigma_lo": c.sigma_lo, "sigma_hi": c.sigma_hi}
            for c in fr.crossings
        ],
        "converged_count": nu,
        "branch_origins": list(fr.branch_origins) if fr.branch_origins else None,
        "flags": {
            "simple": sel.simple,
            "nowhere_zero": sel.nowhere_zero,
            "refinement_exhausted": fr.refinement_exhausted,
            "warnings": list(fr.warnings),
        },
    }
    assert summary["deficiency"] != 0
    assert (tmp_path / "run.json").read_text() == fileio.canonical_json(summary) + "\n"


def test_cli_generate_and_nodal(tmp_path, capsys):
    path = tmp_path / "i7.json"
    assert main(["generate", "--family", "interval", "--params", "7",
                 "-o", str(path)]) == 0
    assert main(["nodal", "--graph", str(path), "--k", "3"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row == {
        "k": 3,
        "lambda_k": row["lambda_k"],
        "nu": 3,
        "deficiency": 0,
        "n_sign_change_edges": 2,
        "simple": True,
        "nowhere_zero": True,
    }
    assert row["lambda_k"] == pytest.approx(0.7530203962825331, abs=1e-12)


def test_cli_nodal_zero_vertex_exit_code(tmp_path, capsys):
    path = tmp_path / "i7.json"
    main(["generate", "--family", "interval", "--params", "7", "-o", str(path)])
    assert main(["nodal", "--graph", str(path), "--k", "2"]) == 3
    row = json.loads(capsys.readouterr().out.strip())
    assert row["nu"] == 2
    assert row["deficiency"] == 0
    assert row["nowhere_zero"] is False
    assert row["n_sign_change_edges"] == 0


def test_cli_generate_er_alias_and_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["generate", "--family", "er", "--params", "12,0.4",
                     "--seed", "7", "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    g, meta = fileio.load_graph(a)
    assert meta["family"] == "erdos_renyi"
    assert meta["seed"] == 7
    assert g.n == 12


def test_cli_input_error_exit_codes(tmp_path, capsys):
    assert main(["nodal", "--graph", str(tmp_path / "missing.json"), "--k", "1"]) == 2
    assert main(["generate", "--family", "star", "--params", "5",
                 "-o", str(tmp_path / "x.json")]) == 2
    assert main(["generate", "--family", "interval", "--params", "seven",
                 "-o", str(tmp_path / "x.json")]) == 2
    path = tmp_path / "i4.json"
    main(["generate", "--family", "interval", "--params", "4", "-o", str(path)])
    assert main(["nodal", "--graph", str(path), "--k", "9"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 1]]}')
    assert main(["nodal", "--graph", str(bad), "--k", "1"]) == 2
    bad.write_text('{"n": "3", "edges": ["011", [1, 2, "1.5"]]}')
    assert main(["nodal", "--graph", str(bad), "--k", "1"]) == 2
    # The vertex flow picks its own end: argparse refuses a --sigma-max.
    with pytest.raises(SystemExit) as refused:
        main(["flow", "--method", "vertex", "--graph", str(path), "--k", "2",
              "--sigma-max", "1e4", "--out", str(tmp_path / "v")])
    assert refused.value.code == 2
    assert "--sigma-max" in capsys.readouterr().err


def test_cli_vertex_certificate_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    # Ended at sigma = 1, two branches bound for higher Dirichlet
    # eigenvalues are still below lambda_5: the vertex certificate fails
    # before any file is written.
    monkeypatch.setattr(vertex_flow, "SIGMA_ENDS", (1.0,))
    g75 = tmp_path / "g75.json"
    main(["generate", "--family", "grid", "--params", "7,5", "-o", str(g75)])
    capsys.readouterr()
    assert main(["flow", "--method", "vertex", "--graph", str(g75), "--k", "5",
                 "--steps", "60", "--out", str(tmp_path / "g")]) == 2
    assert "vertex certificate failed" in capsys.readouterr().err
    assert not list(tmp_path.glob("g.*"))


def test_cli_flow_writes_files(tmp_path, capsys):
    graph = tmp_path / "i4.json"
    main(["generate", "--family", "interval", "--params", "4", "-o", str(graph)])
    out = tmp_path / "run"
    code = main(["flow", "--method", "edge", "--graph", str(graph), "--k", "2",
                 "--steps", "40", "--out", str(out), "--svg"])
    capsys.readouterr()
    assert code == 0
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.startswith("sigma,branch_0")
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["k"] == 2
    assert summary["nu"] == 2
    assert summary["deficiency"] == 0
    assert summary["flags"]["refinement_exhausted"] is False
    svg_text = (tmp_path / "run.svg").read_text()
    assert svg_text.startswith("<svg ")


@pytest.mark.parametrize("method", ["edge", "vertex"])
def test_cli_flow_assembles_the_graph_laplacian_once(method, tmp_path, capsys, monkeypatch):
    assembled = []

    def counted(matrix):
        assembled.append(len(matrix))
        return LaplacianMatrix(matrix)

    monkeypatch.setattr(graph_core, "LaplacianMatrix", counted)
    graph = tmp_path / "i4.json"
    fileio.save_graph(graph, interval(4))
    code = main(["flow", "--method", method, "--graph", str(graph), "--k", "2",
                 "--steps", "20", "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert code == 0
    # The vertex flow builds its matrices from the edge flow's record, so
    # it assembles no Laplacian of an n + 1 vertex graph either.
    assert assembled == [4]


def test_cli_flow_zero_vertex_refuses(tmp_path, capsys):
    graph = tmp_path / "i7.json"
    main(["generate", "--family", "interval", "--params", "7", "-o", str(graph)])
    out = tmp_path / "zrun"
    code = main(["flow", "--method", "vertex", "--graph", str(graph), "--k", "2",
                 "--steps", "40", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "zero entries" in captured.err
    assert not (tmp_path / "zrun.csv").exists()
    assert not (tmp_path / "zrun.json").exists()


def test_cli_flow_degenerate_exit_code(tmp_path, capsys):
    graph = tmp_path / "k5.json"
    main(["generate", "--family", "complete", "--params", "5", "-o", str(graph)])
    code = main(["flow", "--method", "edge", "--graph", str(graph), "--k", "2",
                 "--steps", "40", "--out", str(tmp_path / "k5run")])
    capsys.readouterr()
    assert code == 3
    summary = json.loads((tmp_path / "k5run.json").read_text())
    assert summary["nu"] == 2
    assert "degenerate_lambda_k" in summary["flags"]["warnings"]


def test_cli_scan_petersen_rows(tmp_path, capsys):
    graph = tmp_path / "gp.json"
    main(["generate", "--family", "petersen", "--params", "7,3", "-o", str(graph)])
    plot = tmp_path / "scan.svg"
    assert main(["scan", "--graph", str(graph), "--plot", str(plot)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,lambda_k,nu,deficiency,simple,nowhere_zero,group"
    assert len(lines) == 15
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert rows[7][2] == "3" and rows[8][2] == "3"
    assert rows[7][6] == "7" and rows[8][6] == "7"
    assert float(rows[2][1]) == pytest.approx(1.2891707711757228, abs=1e-12)
    assert plot.read_text().startswith("<svg ")


def test_cli_scan_assembles_one_matrix_per_row(tmp_path, capsys, monkeypatch):
    # Each nowhere-zero row's nu is counted on its sign classes' ground-state
    # Laplacians, assembled once into one buffer that holds exactly their
    # p^2 + q^2 entries (no n x n matrix) and factored at most twice (once
    # per sign class); nothing is solved after the base spectrum.
    graph = tmp_path / "er60.json"
    main(["generate", "--family", "er", "--params", "60,0.1", "--seed", "3", "-o", str(graph)])
    calls = []

    def tally(module, name, kind):
        f = getattr(module, name)

        def tallied(*args, **kwargs):
            calls.append((kind,))
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, tallied)

    count_nonpositive = edge_flow._count_nonpositive

    def factored(A):
        calls.append(("factor", len(A), A.base))
        return count_nonpositive(A)

    tally(edge_flow, "limit_multiplicity", "row")
    monkeypatch.setattr(edge_flow, "_count_nonpositive", factored)
    for module in (cli, dirichlet, edge_flow, spectra, vertex_flow):
        tally(module, "eigendecompose", "solve")
    assert main(["scan", "--graph", str(graph)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(rows) == 60
    kinds = [call[0] for call in calls]
    assert kinds[:2] == ["solve", "row"] and kinds.count("solve") == 1
    per_row = []
    for call in calls[1:]:
        if call[0] == "row":
            per_row.append([])
        else:
            per_row[-1].append(call)
    assert len(per_row) == sum(row[5] == "true" for row in rows) > 50
    for work in per_row:
        assert 1 <= len(work) <= 2
        sizes, buffer = [size for _, size, _ in work], work[0][2]
        assert sum(sizes) == 60
        assert all(base is buffer for *_, base in work)
        assert buffer.shape == (sum(size * size for size in sizes),)


def test_cli_dirichlet_interval(tmp_path, capsys):
    graph = tmp_path / "i7.json"
    main(["generate", "--family", "interval", "--params", "7", "-o", str(graph)])
    assert main(["dirichlet", "--graph", str(graph), "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["d_connected_components"] == 3
    assert out["multiplicity_of_lambda_k"] == 3
    assert len(out["dirichlet_eigenvalues"]) == 7
    assert out["simple"] is True


@pytest.mark.parametrize(
    "family,params,k,code",
    [("grid", "7,5", 5, 0), ("petersen", "7,3", 7, 3)],
    ids=["grid75", "petersen"],
)
def test_cli_dirichlet_matches_the_limit_graph_oracle(tmp_path, capsys, family, params, k, code):
    # The command slices psi's sign-class blocks out of L + P; the oracle's
    # subdivision graph at sigma = infinity, restricted to the base
    # vertices, gives the same spectrum and components. GP(7,3)'s lambda_7
    # is degenerate, hence its exit code 3.
    path = tmp_path / "g.json"
    main(["generate", "--family", family, "--params", params, "-o", str(path)])
    assert main(["dirichlet", "--graph", str(path), "--k", str(k)]) == code
    out = json.loads(capsys.readouterr().out.strip())
    g, _ = fileio.load_graph(path)
    sel = select_eigenpair(eigendecompose(laplacian(g)), k)
    n_lim, edges, diag = limit_graph(g.n, g.edges, sel.psi, g.diag_extra)
    L = (dense_laplacian(n_lim, edges) + np.diag(diag))[: g.n, : g.n]
    ref = np.linalg.eigvalsh(L)
    assert np.max(np.abs(np.array(out["dirichlet_eigenvalues"]) - ref)) < 1e-12
    inside = [(i, j, w) for i, j, w in edges if j < g.n]
    assert out["d_connected_components"] == flood_fill_nodal_count(g.n, inside, sel.psi) == 3
    assert out["multiplicity_of_lambda_k"] == 3


def test_cli_dirichlet_zero_vertex_refuses(tmp_path, capsys):
    graph = tmp_path / "i7.json"
    main(["generate", "--family", "interval", "--params", "7", "-o", str(graph)])
    capsys.readouterr()
    assert main(["dirichlet", "--graph", str(graph), "--k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "eigenvector 2 has zero entries at (3,); sign classes are undefined\n"
    )


def test_cli_flow_refinement_floor_exit_code(tmp_path, capsys, monkeypatch):
    # A flow whose tracking hit its refinement floor still writes its files,
    # flagged, and exits 4.
    def exhausted(*args, **kwargs):
        return dataclasses.replace(run_edge_flow(*args, **kwargs), refinement_exhausted=True)

    monkeypatch.setattr(cli, "run_edge_flow", exhausted)
    graph = tmp_path / "i4.json"
    fileio.save_graph(graph, interval(4))
    out = tmp_path / "run"
    assert main(["flow", "--method", "edge", "--graph", str(graph), "--k", "2",
                 "--steps", "20", "--out", str(out)]) == 4
    capsys.readouterr()
    assert (tmp_path / "run.csv").read_text().startswith("sigma,branch_0")
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["flags"]["refinement_exhausted"] is True


def test_python_m_nodalflow_runs_main(tmp_path, capsys):
    graph = tmp_path / "g43.json"
    fileio.save_graph(graph, grid(4, 3))
    code = main(["nodal", "--graph", str(graph), "--k", "3"])
    r = run_cli("nodal", "--graph", str(graph), "--k", "3")
    assert (r.stdout, r.returncode) == (capsys.readouterr().out, code)


def _parser_long_options():
    """Every long option of the CLI's subcommands but --help."""
    ap = cli._build_parser()
    (sub,) = (a for a in ap._actions if a.dest == "command")
    return {
        opt for p in sub.choices.values() for a in p._actions
        for opt in a.option_strings if opt.startswith("--") and opt != "--help"
    }


def test_readme_names_every_cli_flag_and_no_other():
    text = README.read_text()
    options = _parser_long_options()
    assert {"--graph", "--k", "--method", "--steps", "--plot"} <= options
    assert not [o for o in sorted(options) if o not in text]
    # pip's flag on the install lines is the one that is not the CLI's.
    named = set(re.findall(r"--[a-z][a-z0-9-]*", text)) - {"--no-build-isolation"}
    assert named <= options, sorted(named - options)


def test_readme_qualified_names_resolve():
    # A backticked `module.name` in the README, module being one of the
    # package's submodules, must name something that module has.
    modules = {m.name for m in pkgutil.iter_modules(nodalflow.__path__)}
    named = re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)", README.read_text())
    qualified = [(m, name) for m, name in named if m in modules]
    assert qualified
    missing = [
        f"{m}.{name}" for m, name in qualified
        if not hasattr(importlib.import_module(f"nodalflow.{m}"), name)
    ]
    assert not missing, missing


def test_cli_subprocess_byte_identical_flow(tmp_path):
    graph = tmp_path / "gp.json"
    r = run_cli("generate", "--family", "petersen", "--params", "7,3",
                "-o", str(graph))
    assert r.returncode == 0
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        r = run_cli("flow", "--method", "edge", "--graph", str(graph),
                    "--k", "7", "--steps", "60", "--out", str(out), "--svg")
        assert r.returncode == 3  # degenerate pair at lambda_7
        outputs.append(
            tuple((tmp_path / f"{tag}{ext}").read_bytes()
                  for ext in (".csv", ".json", ".svg"))
        )
    assert outputs[0] == outputs[1]


def test_cli_subprocess_scan_reproducible(tmp_path):
    graph = tmp_path / "er.json"
    r = run_cli("generate", "--family", "erdos_renyi", "--params", "14,0.5",
                "--seed", "11", "-o", str(graph))
    assert r.returncode == 0
    a = run_cli("scan", "--graph", str(graph))
    b = run_cli("scan", "--graph", str(graph))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("k,lambda_k,")


def test_cold_start_counts_load_no_assignment_solver(tmp_path):
    """generate, nodal, scan and dirichlet track no branch and label
    components with numpy, so a fresh process that runs them never imports
    scipy.optimize or scipy.sparse."""
    graph = str(tmp_path / "g.json")
    r = run_python(
        "-c",
        "import sys\n"
        "import nodalflow, nodalflow.cli\n"
        f"g = {graph!r}\n"
        "codes = [nodalflow.cli.main(argv) for argv in (\n"
        "    ['generate', '--family', 'grid', '--params', '4,3', '-o', g],\n"
        "    ['nodal', '--graph', g, '--k', '5'],\n"
        "    ['scan', '--graph', g],\n"
        "    ['dirichlet', '--graph', g, '--k', '5'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)\n"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[0, 0, 0, 0] False False"


def test_cold_start_flows_solve_their_fallback_without_scipy(tmp_path, monkeypatch):
    """The vertex and edge flows of grid 4x3 k=5 each match a step whose
    overlaps' row maxima share a column, so the assignment solver searches,
    and a fresh process that runs both loads neither scipy.optimize nor
    scipy.sparse, and writes the bytes this process writes."""
    graph = tmp_path / "g.json"
    main(["generate", "--family", "grid", "--params", "4,3", "-o", str(graph)])

    def argvs(where):
        return [["flow", "--method", method, "--graph", str(graph), "--k", "5", "--svg",
                 "--out", str(tmp_path / f"{where}-{method}")] for method in ("vertex", "edge")]

    r = run_python(
        "-c",
        "import sys\n"
        "import nodalflow.cli\n"
        f"codes = [nodalflow.cli.main(argv) for argv in {argvs('child')!r}]\n"
        "print(codes, 'scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)\n"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[0, 0] False False"
    calls = _recorded_assignments(monkeypatch)
    for argv in argvs("here"):
        calls.clear()
        assert main(argv) == 0
        assert any(map(_minima_collide, calls)), argv
    for name in ("vertex", "edge"):
        for ext in (".csv", ".json", ".svg"):
            child, here = (tmp_path / f"{where}-{name}{ext}" for where in ("child", "here"))
            assert child.read_bytes() == here.read_bytes()


def test_cli_generate_refuses_sizes_that_are_not_whole_numbers(tmp_path, capsys):
    out = tmp_path / "c.json"
    for params in ("3.7", "inf", "nan"):
        assert main(["generate", "--family", "cycle", "--params", params, "-o", str(out)]) == 2
        assert "whole number" in capsys.readouterr().err
    assert not out.exists()
    assert main(["generate", "--family", "cycle", "--params", "3.0", "-o", str(out)]) == 0
    assert fileio.load_graph(out)[0].n == 3


def test_cli_vertex_flow_refuses_fewer_than_two_steps(tmp_path, capsys):
    # One log-spaced point would end the flow at sigma = 1e-3.
    graph = tmp_path / "p.json"
    main(["generate", "--family", "petersen", "--params", "7,3", "-o", str(graph)])
    for steps in ("1", "0"):
        assert main(["flow", "--method", "vertex", "--graph", str(graph), "--k", "7",
                     "--steps", steps, "--out", str(tmp_path / "v")]) == 2
        assert "steps" in capsys.readouterr().err
    assert not list(tmp_path.glob("v.*"))


@pytest.mark.parametrize("method", ["edge", "vertex"])
def test_cli_flows_check_their_step_count_alike(method, tmp_path, capsys):
    graph = tmp_path / "p.json"
    main(["generate", "--family", "petersen", "--params", "7,3", "-o", str(graph)])
    for steps in ("1", "-3"):
        assert main(["flow", "--method", method, "--graph", str(graph), "--k", "7",
                     "--steps", steps, "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err == f"steps must be at least 2, got {steps}\n"
    assert not list(tmp_path.glob("f.*"))


def test_cli_generate_names_the_parameter_count(tmp_path, capsys):
    out = tmp_path / "g.json"
    for family, params, arity in (("grid", "4", "2 parameters"), ("cycle", "4,5", "1 parameter"),
                                  ("er", "20", "2 parameters")):
        assert main(["generate", "--family", family, "--params", params, "--seed", "1",
                     "-o", str(out)]) == 2
        kind = "erdos_renyi" if family == "er" else family
        assert capsys.readouterr().err == f"{kind} takes {arity}, got {len(params.split(','))}\n"
    assert not out.exists()
