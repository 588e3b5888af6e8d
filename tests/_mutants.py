"""Mutants of the package that the test suite must kill, and their runner.

Each entry of MUTANTS names a file of src/nodalflow, a text that occurs
exactly once in src/nodalflow (tests/test_mutants.py checks that), the text
that replaces it, and the tests that must fail with the change. A test id
without a parameter part stands for its parametrized cases: it fails when
one of them does. A mutant that survives is reported, never deleted.

    python tests/_mutants.py           # every mutant
    python tests/_mutants.py NAME ...  # the named mutants

The runner copies the checkout into a temporary directory once, applies each
mutant there in turn (restoring the file after it), runs pytest on the
mutant's test ids in a fresh interpreter, and prints ``killed`` when every
listed test fails, or ``survived`` with the ones that passed. The checkout
itself is never written. It exits 1 if any mutant survived.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "nodalflow"
# Per mutant; a Hypothesis property that fails spends most of it shrinking.
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # in src/nodalflow
    old: str
    new: str
    kills: tuple[str, ...]


_EDGE = "tests/test_edge_flow.py::"
_SPECTRA = "tests/test_spectra.py::"
_VERTEX = "tests/test_vertex_flow.py::"
_CLI = "tests/test_cli_io.py::"
_ACCEPT = "tests/test_acceptance.py::"
_IMPORTS = "tests/test_unused_imports.py::test_module_uses_every_import"
_GRAPH = "tests/test_graph_core.py::"
_COMPONENTS = (_GRAPH + "test_components_match_the_scipy_search",
               _GRAPH + "test_components_match_the_scipy_search_on_long_paths_and_stars")
_GOLDEN_DOMAINS = _GRAPH + "test_domains_and_d_components_match_the_scipy_search_on_the_goldens"
_PERTURBATION = (_EDGE + "test_perturbation_matrix_is_derived_from_the_edge_arrays",
                 _EDGE + "test_build_perturbation_petersen_kernel",
                 _EDGE + "test_sign_preserving_graph_matches_sigma_one")

MUTANTS = (
    # graph_core.components: hooking and grouping. No pointer-jumping mutant:
    # with no jump a non-root can be hooked and the loop may never end, and
    # one jump per round still ends with the same labels.
    Mutant(
        "components-hook-under-the-larger-root", "graph_core.py",
        "np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))",
        "np.maximum.at(label, np.minimum(a, b), np.maximum(a, b))",
        (*_COMPONENTS, _GOLDEN_DOMAINS),
    ),
    Mutant(
        "components-cut-one-before-each-group", "graph_core.py",
        "cuts = (np.flatnonzero(np.diff(root[order])) + 1).tolist()",
        "cuts = np.flatnonzero(np.diff(root[order])).tolist()",
        (*_COMPONENTS, _GOLDEN_DOMAINS),
    ),
    Mutant(
        "components-grouping-not-stable", "graph_core.py",
        'order = np.argsort(root, kind="stable")',
        "order = np.argsort(root)",
        _COMPONENTS,
    ),
    Mutant(
        "components-listed-vertices-ignored", "graph_core.py",
        "v = np.arange(n) if vertices is None else np.asarray(vertices, dtype=np.intp)",
        "v = np.arange(n)",
        (_GRAPH + "test_components_match_the_scipy_search", _GOLDEN_DOMAINS,
         "tests/test_nodal.py::test_strong_domains_allowing_zeros_path_seven"),
    ),
    # The dense edge matrices: P's end terms and edge_matrix's diagonal.
    Mutant(
        "perturbation-end-terms-swapped", "edge_flow.py",
        "w * self.q_ji, w * self.q_ij",
        "w * self.q_ij, w * self.q_ji",
        _PERTURBATION,
    ),
    Mutant(
        "edge-matrix-end-terms-swapped", "graph_core.py",
        "np.column_stack((at_i, at_j))",
        "np.column_stack((at_j, at_i))",
        _PERTURBATION,
    ),
    # The G(n, p) sampler's one draw per row, and the connected sample's
    # seed walk.
    Mutant(
        "er-row-one-pair-too-many", "families.py",
        "rng.random(n - 1 - i)",
        "rng.random(n - i)",
        ("tests/test_families.py::test_erdos_renyi_draws_the_pairs_as_one_draw_per_pair",),
    ),
    Mutant(
        "connected-er-one-seed-short", "families.py",
        "range(seed, seed + MAX_ATTEMPTS)",
        "range(seed, seed + MAX_ATTEMPTS - 1)",
        ("tests/test_families.py::test_generate_connected_er_exhausts",),
    ),
    # ν's sign-class blocks, assembled in one buffer.
    Mutant(
        "class-order-not-stable", "edge_flow.py",
        'order = np.argsort(negative, kind="stable")',
        "order = np.argsort(negative)",
        (_EDGE + "test_limit_multiplicity_factors_each_class_block_as_the_class_builds_it"
         "[grid75-k5]",),
    ),
    Mutant(
        "class-position-not-inverted", "edge_flow.py",
        "loc = np.argsort(order) - p * negative",
        "loc = order - p * negative",
        (_EDGE + "test_limit_multiplicity_factors_each_class_block_as_the_class_builds_it"
         "[grid75-k5]",
         _ACCEPT + "test_criterion_02_golden_nodal_counts"),
    ),
    # dsytrf reads one triangle of each block: the other must still match
    # the class's own matrix.
    Mutant(
        "upper-scatter-dropped", "edge_flow.py",
        "buf[start.take(i) + loc.take(j)] = buf[start.take(j) + loc.take(i)] = -w",
        "buf[start.take(j) + loc.take(i)] = -w",
        (_EDGE + "test_limit_multiplicity_factors_each_class_block_as_the_class_builds_it"
         "[grid75-k5]",
         _EDGE + "test_limit_multiplicity_factors_the_sign_class_blocks_bit_for_bit"),
    ),
    Mutant(
        "lower-scatter-dropped", "edge_flow.py",
        "buf[start.take(i) + loc.take(j)] = buf[start.take(j) + loc.take(i)] = -w",
        "buf[start.take(i) + loc.take(j)] = -w",
        (_EDGE + "test_limit_multiplicity_factors_the_sign_class_blocks_bit_for_bit",
         _EDGE + "test_limit_multiplicity_solves_each_sign_class[grid75-k5]",
         _ACCEPT + "test_criterion_02_golden_nodal_counts"),
    ),
    Mutant(
        "ground-state-weight-a-psi-ratio", "edge_flow.py",
        "w.take(kept) * product.take(kept)",
        "w.take(kept) * (psi.take(i) / psi.take(j)).take(kept)",
        (_EDGE + "test_limit_multiplicity_counts_on_the_sign_blocks",
         _EDGE + "test_limit_multiplicity_counts_the_strong_domains_on_graded_weights",
         _EDGE + "test_limit_multiplicity_solves_each_sign_class[graded-k2]",
         _EDGE + "test_nodal_and_dirichlet_print_one_count[graded-A]",
         "tests/test_invariance.py::test_direct_count_is_invariant_under_relabelling_and_scaling"),
    ),
    Mutant(
        "diagonal-psi-in-class-order", "edge_flow.py",
        "ends + -tol * psi**2",
        "ends + -tol * psi[order] ** 2",
        (_EDGE + "test_limit_multiplicity_factors_each_class_block_as_the_class_builds_it"
         "[grid75-k5]",
         _EDGE + "test_limit_multiplicity_factors_the_sign_class_blocks_bit_for_bit"),
    ),
    Mutant(
        "zero-vertex-not-refused", "edge_flow.py",
        "    if not sel.nowhere_zero:\n        raise ZeroVertex(zero_vertices(sel.psi))\n",
        "",
        (_EDGE + "test_limit_multiplicity_refuses_a_zero_entry",
         _IMPORTS + "[edge_flow.py]"),
    ),
    # The vertex flow's crossing count on the ghost Schur complement S.
    Mutant(
        "schur-off-diagonal-at-i-squared", "vertex_flow.py",
        "edge_matrix(n, pert.i, pert.j, ww,",
        "edge_matrix(n, pert.i, pert.j, ww * pert.q_ji,",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "schur-diagonal-without-t", "vertex_flow.py",
        "ww * pert.q_ij, -t)",
        "ww * pert.q_ij, 0.0)",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "schur-diagonal-shifted-up", "vertex_flow.py",
        "ww * pert.q_ij, -t)",
        "ww * pert.q_ij, t)",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "schur-end-terms-swapped", "vertex_flow.py",
        "ww * pert.q_ji, ww * pert.q_ij, -t)",
        "ww * pert.q_ij, ww * pert.q_ji, -t)",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "schur-weight-without-s", "vertex_flow.py",
        "ww = s * (sigma - t) / d * pert.w",
        "ww = (sigma - t) / d * pert.w",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "schur-psi-not-deflated", "vertex_flow.py",
        "S = pert.laplacian + (1.0 + abs(t)) * unit_psi",
        "S = pert.laplacian.copy()",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_vertex_flow_brackets_hold_a_fall_of_the_ghost_schur_count"
         "[er20-p0.5-s304-k10]"),
    ),
    Mutant(
        "schur-pivot-fallback-removed", "vertex_flow.py",
        "        if np.any(np.abs(d) <= COUNT_TOL_REL * max(1.0, abs(t), sigma)):\n"
        "            return _count_below(bilinear_matrix(pert, sigma).matrix, t)\n",
        "",
        (_VERTEX + "test_ghost_schur_count_falls_back_at_a_ghost_pivot",),
    ),
    Mutant(
        "schur-fallback-counts-the-base-block", "vertex_flow.py",
        "        if np.any(np.abs(d) <= COUNT_TOL_REL * max(1.0, abs(t), sigma)):\n"
        "            return _count_below(bilinear_matrix(pert, sigma).matrix, t)\n",
        "        if np.any(np.abs(d) <= COUNT_TOL_REL * max(1.0, abs(t), sigma)):\n"
        "            return _count_below(flow_matrix(pert, s).matrix, t)\n",
        (_VERTEX + "test_ghost_schur_count_falls_back_at_a_ghost_pivot",),
    ),
    # The vertex flow's crossing count on the reduced matrix M.
    Mutant(
        "reduced-matrix-built-at-lambda-k", "vertex_flow.py",
        "K = (zt_f / (lam_f - t)) @ zt_f.T",
        "K = (zt_f / (lam_f - lam_g[0])) @ zt_f.T",
        (_VERTEX + "test_ghost_schur_count_solves_the_hand_scattered_complement",
         _VERTEX + "test_ghost_schur_count_matches_eigvalsh_and_40_digits_on_both_paths"),
    ),
    Mutant(
        "reduced-count-drops-the-mu-term", "vertex_flow.py",
        "return 1 + below_f + int(below) - mu * (sigma > t)",
        "return 1 + below_f + int(below)",
        (_VERTEX + "test_ghost_schur_count_matches_eigvalsh_and_40_digits_on_both_paths",
         _VERTEX + "test_ghost_schur_count_matches_the_full_count"),
    ),
    Mutant(
        "reduced-count-solves-at-sigma-t", "vertex_flow.py",
        "if sigma == 0.0 or near_t or reduced_terms(t) is None:",
        "if sigma == 0.0 or reduced_terms(t) is None:",
        (_VERTEX + "test_reduced_count_solves_through_a_ghost_pivot_and_falls_back_at_sigma_t",),
    ),
    Mutant(
        "reduced-count-solves-at-a-pole-of-k", "vertex_flow.py",
        "        if np.any(np.abs(lam_f - t) <= COUNT_TOL_REL * max(1.0, abs(t))):\n"
        "            return None\n",
        "",
        (_VERTEX + "test_reduced_count_solves_through_a_ghost_pivot_and_falls_back_at_sigma_t",),
    ),
    # The reduced count's seeds: the pencil's roots at t.
    Mutant(
        "pencil-built-at-lambda-k", "vertex_flow.py",
        "else _pencil_roots(terms[0], m, c2, t)",
        "else _pencil_roots(terms[0], m, c2, lam_g[0])",
        (_VERTEX + "test_pencil_seeds_are_the_falls_of_the_reduced_count",),
    ),
    # The seeded crossing bisection: a seed's cell is the bisection's, and
    # its cells are taken only where their falls add up.
    Mutant(
        "seeded-cells-accepted-without-summing-their-falls", "spectra.py",
        "if sum(falls) == n_lo - n_hi and min(falls, default=0) >= 0:",
        "if falls and min(falls) >= 0:",
        (_SPECTRA + "test_seeded_falls_are_the_bisections_cells",
         _SPECTRA + "test_a_wrong_seed_falls_back_to_the_bisection"),
    ),
    Mutant(
        "seed-cell-by-offset-not-by-midpoints", "spectra.py",
        "        a, b = lo, hi\n"
        "        while b - a > BRACKET_WIDTH:\n"
        "            mid = 0.5 * (a + b)\n"
        "            a, b = (a, mid) if seed < mid else (mid, b)\n"
        "        return a, b\n",
        "        h = hi - lo\n"
        "        while h > BRACKET_WIDTH:\n"
        "            h *= 0.5\n"
        "        m = min((seed - lo) // h, (hi - lo) // h - 1)\n"
        "        return lo + m * h, lo + (m + 1) * h\n",
        (_SPECTRA + "test_seeded_falls_are_the_bisections_cells",
         _VERTEX + "test_pencil_seeds_hold_every_crossing_cell"),
    ),
    # The inertia count's pivot reading.
    Mutant(
        "two-by-two-pivot-counted-as-zero", "spectra.py",
        " + np.count_nonzero(~one) // 2)",
        ")",
        (_SPECTRA + "test_count_below_reads_two_by_two_pivots",
         _SPECTRA + "test_count_below_matches_eigvalsh"),
    ),
    Mutant(
        "two-by-two-pivot-counted-as-two", "spectra.py",
        "np.count_nonzero(~one) // 2)",
        "np.count_nonzero(~one))",
        (_SPECTRA + "test_count_below_reads_two_by_two_pivots",
         _SPECTRA + "test_count_below_matches_eigvalsh"),
    ),
    Mutant(
        "zero-pivot-counted-as-positive", "spectra.py",
        "np.diagonal(ldu)[one] <= 0)",
        "np.diagonal(ldu)[one] < 0)",
        (_SPECTRA + "test_count_below_at_an_exactly_singular_shift",
         _SPECTRA + "test_count_below_takes_t_only_when_closed"),
    ),
    Mutant(
        "default-count-by-eigensolve", "spectra.py",
        "return _count_below(_as_matrix(flow_matrix(sigma)), t)",
        "return int(np.sum(eigendecompose(flow_matrix(sigma), vectors=False).eigenvalues <= t))",
        (_SPECTRA + "test_only_value_reads_solve_without_vectors",
         _SPECTRA + "test_only_tracked_grid_points_use_divide_and_conquer"),
    ),
    # Multiplicity groups: a gap opens a group only when it exceeds the
    # tolerance of the larger value.
    Mutant(
        "cluster-cut-at-the-tolerance", "spectra.py",
        "np.diff(vals) > group_tolerance(vals[1:])",
        "np.diff(vals) >= group_tolerance(vals[1:])",
        (_SPECTRA + "test_cluster_matches_the_chain_rule_loop",),
    ),
    Mutant(
        "cluster-tolerance-of-the-smaller-value", "spectra.py",
        "np.diff(vals) > group_tolerance(vals[1:])",
        "np.diff(vals) > group_tolerance(vals[:-1])",
        (_SPECTRA + "test_cluster_matches_the_chain_rule_loop",),
    ),
    # _match_step's degenerate blocks: rotated into line, or refused.
    Mutant(
        "arriving-block-not-rotated", "spectra.py",
        "b.vecs[:, Hb] = b.vecs[:, Hb] @ _procrustes(b.vecs[:, Hb], target)",
        "b.vecs[:, Hb] = b.vecs[:, Hb]",
        (_SPECTRA + "test_match_step_rotates_an_arriving_degenerate_block_into_line",
         _SPECTRA + "test_flows_rotate_and_refuse_degenerate_blocks"),
    ),
    Mutant(
        "turned-away-block-not-refused", "spectra.py",
        "        if scipy.linalg.svdvals(a.vecs[:, Ga].T @ b.vecs[:, Hb])[-1] < OVERLAP_MIN:\n"
        "            return False, perm\n",
        "",
        (_SPECTRA + "test_match_step_refuses_a_block_whose_subspace_turned_away",),
    ),
    # _match_step's assignment: the solver, not the row maxima.
    Mutant(
        "fallback-takes-row-maxima", "spectra.py",
        "rows, perm = linear_sum_assignment(-O)",
        "rows, perm = np.arange(len(O)), np.argmax(O, axis=1)",
        (_SPECTRA + "test_match_step_solves_the_assignment_without_a_dominant_overlap",
         _SPECTRA + "test_accepted_steps_keep_each_position_isolated_by_interlacing",
         _CLI + "test_cold_start_flows_solve_their_fallback_without_scipy"),
    ),
    Mutant(
        "assignment-solver-imported-at-start-up", "spectra.py",
        "import scipy.linalg\n",
        "import scipy.linalg\nimport scipy.optimize\n",
        (_CLI + "test_cold_start_counts_load_no_assignment_solver",
         _CLI + "test_cold_start_flows_solve_their_fallback_without_scipy"),
    ),
    # linear_sum_assignment: its warm start and its dual update.
    Mutant(
        "assignment-warm-start-lets-rows-share-a-column", "spectra.py",
        "np.bincount(col4row, minlength=n)[col4row] == 1",
        "np.bincount(col4row, minlength=n)[col4row] >= 1",
        (_SPECTRA + "test_linear_sum_assignment_matches_scipys",
         _SPECTRA + "test_accepted_steps_keep_each_position_isolated_by_interlacing"),
    ),
    Mutant(
        "assignment-scanned-rows-keep-their-duals", "spectra.py",
        "        u[row_scanned] += low - dist[col4row[row_scanned]]\n",
        "",
        (_SPECTRA + "test_linear_sum_assignment_matches_scipys",),
    ),
    # Spectrum.group_of.
    Mutant(
        "group-of-bisects-left", "spectra.py",
        "from bisect import bisect_right",
        "from bisect import bisect_left as bisect_right",
        (_SPECTRA + "test_group_of_finds_the_group_holding_each_index",),
    ),
    Mutant(
        "group-of-without-range-check", "spectra.py",
        "        if not 0 <= index < self.n:\n            raise IndexError(index)\n",
        "",
        (_SPECTRA + "test_group_of_finds_the_group_holding_each_index",),
    ),
    # dirichlet's eigenvalues come from both sign classes' blocks.
    Mutant(
        "dirichlet-positive-class-only", "cli.py",
        "for S in (sel.psi > 0, sel.psi < 0)",
        "for S in (sel.psi > 0,)",
        (_CLI + "test_cli_dirichlet_interval",
         _CLI + "test_cli_dirichlet_matches_the_limit_graph_oracle"),
    ),
    # The package's exports and kept imports.
    Mutant(
        "all-lists-a-name-not-imported", "__init__.py",
        "__all__ = [\n",
        '__all__ = [\n    "SIGN_TOL",\n',
        ("tests/test_unused_imports.py::test_package_exports_exactly_what_it_imports",),
    ),
    Mutant(
        "kept-import-not-a-binding", "cli.py",
        "from .spectra import eigendecompose\n",
        "from .spectra import eigendecompose\nfrom .spectra import SIGN_TOL  # noqa: F401\n",
        ("tests/test_unused_imports.py::test_every_kept_import_is_a_benchmark_binding[cli.py]",),
    ),
    # The flow's writers and the graph reader.
    Mutant(
        "deficiency-nu-minus-k", "fileio.py",
        '"deficiency": k - nu,',
        '"deficiency": nu - k,',
        (_CLI + "test_cli_flow_writes_the_summary_built_field_by_field",),
    ),
    Mutant(
        "csv-at-16-digits", "fileio.py",
        'row = ",".join(["%.17g"] * (B + 1))',
        'row = ",".join(["%.16g"] * (B + 1))',
        (_CLI + "test_writers_match_the_per_value_writers_at_the_extremes",
         _CLI + "test_writers_match_the_per_value_writers_on_a_flow"),
    ),
    Mutant(
        "chart-x-and-y-slots-swapped", "svg.py",
        "    xy[0::2] = to_x(xs)\n    for b in range(values.shape[0]):\n"
        "        xy[1::2] = to_y(values[b])\n",
        "    xy[1::2] = to_x(xs)\n    for b in range(values.shape[0]):\n"
        "        xy[0::2] = to_y(values[b])\n",
        (_CLI + "test_writers_match_the_per_value_writers_at_the_extremes",
         _CLI + "test_writers_match_the_per_value_writers_on_a_flow"),
    ),
    Mutant(
        "chart-pad-by-range-only", "svg.py",
        "        pad = 0.04 * max(1.0, abs(lo), abs(hi))\n",
        "        pad = 0.04 * (hi - lo or 1.0)\n",
        (_CLI + "test_chart_frame_has_width_and_ticks_on_every_range",
         _CLI + "test_chart_ticks_end_on_near_flat_and_subnormal_ranges",
         _CLI + "test_cli_flow_charts_a_flat_range_far_from_zero"),
    ),
    Mutant(
        "chart-ticks-run-past-the-range", "svg.py",
        "end = hi + min(slack, step / 2)",
        "end = hi + slack",
        (_CLI + "test_chart_ticks_stop_half_a_step_past_a_near_flat_range",
         _CLI + "test_chart_frame_has_width_and_ticks_on_every_range"),
    ),
    Mutant(
        "chart-wide-range-at-full-scale", "svg.py",
        "half = 1.0 if math.isfinite(yhi - ylo) else 0.5",
        "half = 1.0",
        (_CLI + "test_chart_frame_stays_finite_past_the_largest_double",),
    ),
    Mutant(
        "reader-takes-infinite-numbers", "fileio.py",
        "    if not math.isfinite(x):\n"
        '        raise ValueError(f"expected a finite number, got {x}")\n',
        "",
        (_CLI + "test_parse_graph_rejects_malformed",
         _CLI + "test_parse_graph_names_the_field_and_the_value",
         _IMPORTS + "[fileio.py]"),
    ),
)


def _failed_ids(output: str) -> set[str]:
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE))


def _fails(test_id: str, failed: set[str]) -> bool:
    return test_id in failed or any(f.startswith(test_id + "[") for f in failed)


def run(mutant: Mutant, copy: Path) -> list[str]:
    """The listed tests of mutant that pass on copy with it applied."""
    path = copy / PACKAGE / mutant.file
    source = path.read_text()
    path.write_text(source.replace(mutant.old, mutant.new, 1))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.kills],
            cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    except subprocess.TimeoutExpired:
        return [f"(no result in {TIMEOUT_S} s)"]
    finally:
        path.write_text(source)
    failed = _failed_ids(proc.stdout)
    return [t for t in mutant.kills if not _fails(t, failed)]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", "out"))
        for m in chosen:
            passed = run(m, copy)
            survivors += bool(passed)
            print(f"{'survived' if passed else 'killed':8}  {m.name}", flush=True)
            for test_id in passed:
                print(f"    passes: {test_id}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
