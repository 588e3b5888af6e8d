"""Span tracer that measures the nodalflow layers from outside the package.

A wrapped function is replaced at every module-level binding inside the
package, because a function imported by name into another module is a
separate binding that patching its home module would miss.
``scipy.linalg.eigh`` is wrapped where the package reaches it, through a
proxy for the ``scipy`` (or ``scipy.linalg``) name in each module.

A span holds name, start, end, parent span and operation id. Spans are only
recorded while an operation is active, stay in memory, and are written out
when the run ends. A call that re-enters the function of the span it runs
under (``fileio.canonical_json`` recurses) is folded into that span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import scipy.linalg

ALL = ("grid-vertex", "grid15-edge", "er-scan")


@dataclass(frozen=True)
class Target:
    """The end-to-end metric a change to a layer should move, the workloads
    where it should move it, and those where it should stay put."""

    moves: str
    on: tuple[str, ...]
    bypass: tuple[str, ...] = ()


# Wrapped package functions; each reports <name>.calls, .busy_s and .self_s.
LAYERS = {
    "graph_core.laplacian": Target("ops_per_s", ("er-scan", "grid-vertex"), ("grid15-edge",)),
    "spectra.eigendecompose": Target("op_p50_ms", ALL),
    "spectra.track_branches": Target("op_p50_ms", ("grid15-edge", "grid-vertex"), ("er-scan",)),
    "edge_flow.flow_matrix": Target("ops_per_s", ("er-scan",)),
    "edge_flow.build_perturbation": Target("ops_per_s", ("er-scan",)),
    "edge_flow.nodal_count_direct": Target("ops_per_s", ("er-scan",)),
    "vertex_flow.bilinear_matrix": Target("ops_per_s", ("grid-vertex",)),
    "vertex_flow.graph_at": Target("ops_per_s", ("grid-vertex",)),
    "dirichlet.dirichlet_problem": Target("ops_per_s", ("grid-vertex",)),
    "nodal.sign_change_edges": Target("op_p50_ms", ("er-scan",)),
    "nodal.select_eigenpair": Target("op_p50_ms", ("er-scan",)),
    "fileio.branch_table_csv": Target("ops_per_s", ("grid-vertex",)),
    "fileio.canonical_json": Target("ops_per_s", ("grid-vertex",)),
    "svg.branch_chart_svg": Target("ops_per_s", ("grid-vertex",)),
    "svg.scan_scatter_svg": Target("ops_per_s", ("er-scan",)),
    "cli.main": Target("ops_per_s", ("grid-vertex", "er-scan")),
}

# scipy.linalg.eigh as the package calls it; also reports calls/busy_s/self_s.
EIGH = "lapack.eigh"
_EIGH = Target("op_p50_ms", ALL)
_FLOW = Target("ops_per_s", ("grid-vertex",), ("grid15-edge",))

# Further metrics: name -> (unit, target). Counts are per pass over the
# workload's operations; the lapack figures are computed from matrix sizes.
EXTRA = {
    "lapack.eigh.n3_sum": ("count", _EIGH),
    "lapack.eigh.bytes_computed": ("bytes", _EIGH),
    "spectra.grid_points": ("count", _FLOW),
    "spectra.refine_inserts": ("count", _FLOW),
    "spectra.bisect_solves": ("count", _FLOW),
    "spectra.solves_per_grid_point": ("ratio", _FLOW),
    "spectra.crossings": ("count", _FLOW),
    "spectra.stored_bytes": (
        "bytes", Target("peak_rss_mb", ("grid-vertex", "grid15-edge"), ("er-scan",))
    ),
    "trace.spans": ("count", None),
    "trace.overhead_s": ("s", None),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in (EIGH, *LAYERS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in EXTRA.items()})
    return units


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, real, **overrides):
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op: str | None = None
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._flows: dict[int, tuple[int, int, int, int]] = {}
        self._n3 = 0
        self._eigh_bytes = 0

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _after_eigh(self, idx, args, kwargs, result):
        n = args[0].shape[0]
        self._n3 += n ** 3
        # Matrix in, eigenvector matrix and eigenvalues out, 8-byte floats.
        self._eigh_bytes += 8 * (2 * n * n + n)

    def _after_track(self, idx, args, kwargs, fr):
        initial = len(kwargs["sigma_grid"] if "sigma_grid" in kwargs else args[1])
        arrays = (fr.branch_values, getattr(fr, "branch_vectors", None))
        stored = sum(a.nbytes for a in arrays if a is not None)
        self._flows[idx] = (initial, len(fr.sigma_grid), len(fr.crossings), stored)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every package binding of the traced functions."""
        self.bindings = []
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "nodalflow" or name.startswith("nodalflow."))
        }
        after = {"spectra.track_branches": self._after_track}
        for name in LAYERS:
            module, function = name.rsplit(".", 1)
            original = getattr(modules["nodalflow." + module], function)
            wrapped = self._wrap(name, original, after.get(name))
            for mod_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
                        self.bindings.append(f"{mod_name}.{attr}")
        eigh = self._wrap(EIGH, scipy.linalg.eigh, self._after_eigh)
        linalg = _Proxy(scipy.linalg, eigh=eigh)
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                if value is scipy.linalg.eigh:
                    self._set(mod, attr, eigh)
                elif value is scipy.linalg:
                    self._set(mod, attr, linalg)
                elif value is sys.modules["scipy"]:
                    self._set(mod, attr, _Proxy(value, linalg=linalg))
                else:
                    continue
                self.bindings.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span, plus flow counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0 for name in metric_units()}
        for i, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]

        solves = 0
        for idx, (initial, points, crossings, stored) in self._flows.items():
            # Spans start in order and nest, so the descendants of a span are
            # the contiguous run after it that starts before it ends.
            end = spans[idx][2]
            j = idx + 1
            while j < len(spans) and spans[j][1] < end:
                solves += spans[j][0] == "spectra.eigendecompose"
                j += 1
            out["spectra.grid_points"] += points
            out["spectra.refine_inserts"] += points - initial
            out["spectra.crossings"] += crossings
            out["spectra.stored_bytes"] = max(out["spectra.stored_bytes"], stored)
        out["spectra.bisect_solves"] = solves - out["spectra.grid_points"]
        points = out["spectra.grid_points"]
        out["spectra.solves_per_grid_point"] = solves / points if points else 0.0
        out["lapack.eigh.n3_sum"] = self._n3
        out["lapack.eigh.bytes_computed"] = self._eigh_bytes
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
