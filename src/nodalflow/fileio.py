"""Canonical file formats: graph JSON, branch-table CSV, run summaries.

All floats are printed with 17 significant digits (enough to round-trip a
double exactly), lists keep a fixed order, and dict keys are emitted in a
fixed order, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .graph_core import WeightedGraph
from .spectra import FlowResult


def format_float(x: float) -> str:
    """Shortest-ish 17-significant-digit decimal that round-trips."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON with insertion-ordered keys and 17-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_graph(g: WeightedGraph, meta: dict | None = None) -> str:
    """Canonical graph file: edges one per line in lexicographic order,
    diag omitted when all zero, meta omitted when absent."""
    lines = ["{", f'  "n": {g.n},']
    if g.edges:
        lines.append('  "edges": [')
        rows = [f"    [{i}, {j}, {format_float(w)}]" for i, j, w in g.edges]
        lines.append(",\n".join(rows))
        lines.append("  ],")
    else:
        lines.append('  "edges": [],')
    if any(d != 0.0 for d in g.diag_extra):
        lines.append(f'  "diag": {canonical_json(list(g.diag_extra))},')
    if meta is not None:
        lines.append(f'  "meta": {canonical_json(meta)},')
    # strip the trailing comma from the last entry
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_field(data: dict, key: str, convert):
    """convert(data.get(key)); a failure is raised as a ValueError naming key."""
    try:
        return convert(data.get(key))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"graph file has a malformed {key!r}: {exc}") from exc


def _checked(x, types, what: str):
    """x itself if it is an instance of types other than bool, else a TypeError."""
    if isinstance(x, bool) or not isinstance(x, types):
        raise TypeError(f"expected {what}, got {x!r}")
    return x


def _int(x) -> int:
    return _checked(x, int, "an integer")


def _real(x) -> float:
    x = float(_checked(x, (int, float), "a number"))
    if not np.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def _list(x) -> list:
    return _checked(x, list, "a list")


def _edges(rows) -> tuple:
    return tuple((_int(i), _int(j), _real(w)) for i, j, w in map(_list, _list(rows)))


def parse_graph(text: str) -> tuple[WeightedGraph, dict | None]:
    """Parse a graph file; unknown keys are rejected."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("graph file must be a JSON object")
    unknown = set(data) - {"n", "edges", "diag", "meta"}
    if unknown:
        raise ValueError(f"unknown graph file keys: {sorted(unknown)}")
    if "n" not in data or "edges" not in data:
        raise ValueError("graph file needs 'n' and 'edges'")
    n = _parse_field(data, "n", _int)
    edges = _parse_field(data, "edges", _edges)
    diag = _parse_field(data, "diag", lambda d: () if d is None else tuple(map(_real, _list(d))))
    g = WeightedGraph(n, edges, diag)
    meta = data.get("meta")
    return g, meta


def load_graph(path) -> tuple[WeightedGraph, dict | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: WeightedGraph, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_graph(g, meta))


def branch_table_csv(fr: FlowResult) -> str:
    """CSV of all branches: header sigma,branch_0,...; one row per grid
    point."""
    B = fr.n_branches
    header = "sigma," + ",".join(f"branch_{b}" for b in range(B))
    rows = [header]
    for t, s in enumerate(fr.sigma_grid):
        vals = ",".join(format_float(fr.branch_values[b, t]) for b in range(B))
        rows.append(f"{format_float(s)},{vals}")
    return "\n".join(rows) + "\n"


def flow_summary(
    fr: FlowResult,
    k: int,
    lambda_k: float,
    nu: int | None,
    deficiency: int | None,
    flags: dict | None = None,
) -> dict:
    """Companion summary for a flow run, canonical key order."""
    summary = {
        "k": k,
        "lambda_k": lambda_k,
        "nu": nu,
        "deficiency": deficiency,
        "crossings": [
            {"branch": c.branch, "sigma_lo": c.sigma_lo, "sigma_hi": c.sigma_hi}
            for c in fr.crossings
        ],
        "converged_count": fr.converged_count,
        "branch_origins": list(fr.branch_origins) if fr.branch_origins else None,
    }
    if flags is not None:
        summary["flags"] = flags
    return summary


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
