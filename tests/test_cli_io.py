import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nodalflow import fileio
from nodalflow.cli import main
from nodalflow.edge_flow import run_edge_flow
from nodalflow.families import interval, petersen
from nodalflow.graph_core import WeightedGraph, laplacian
from nodalflow.nodal import select_eigenpair
from nodalflow.spectra import eigendecompose


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    """Run ``python -m nodalflow`` in a child interpreter that imports the
    package from this checkout's src, installed or not."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nodalflow", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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
    ]:
        with pytest.raises(ValueError, match=part):
            fileio.parse_graph(text)


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


def test_flow_summary_key_order():
    g = interval(4)
    sel = select_eigenpair(eigendecompose(laplacian(g)), 2)
    fr = run_edge_flow(g, sel, steps=5)
    summary = fileio.flow_summary(fr, 2, sel.lambda_k, 2, 0, flags={"simple": True})
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
    for sigma_max in ("1e-4", "-1"):
        assert main(["flow", "--method", "vertex", "--graph", str(path), "--k", "2",
                     "--sigma-max", sigma_max, "--out", str(tmp_path / "v")]) == 2
        assert "sigma_max" in capsys.readouterr().err
    # At sigma_max = 1 two branches bound for higher Dirichlet eigenvalues
    # are still below lambda_5: the vertex certificate fails before any
    # file is written.
    g75 = tmp_path / "g75.json"
    main(["generate", "--family", "grid", "--params", "7,5", "-o", str(g75)])
    capsys.readouterr()
    assert main(["flow", "--method", "vertex", "--graph", str(g75), "--k", "5",
                 "--sigma-max", "1", "--steps", "60", "--out", str(tmp_path / "g")]) == 2
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


def test_cli_dirichlet_interval(tmp_path, capsys):
    graph = tmp_path / "i7.json"
    main(["generate", "--family", "interval", "--params", "7", "-o", str(graph)])
    assert main(["dirichlet", "--graph", str(graph), "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["d_connected_components"] == 3
    assert out["multiplicity_of_lambda_k"] == 3
    assert len(out["dirichlet_eigenvalues"]) == 7
    assert out["simple"] is True


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
