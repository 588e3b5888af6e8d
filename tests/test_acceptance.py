"""Acceptance suite: one test per shipped guarantee.

Every test prints a single PASS/FAIL line (visible with -s or in failure
reports) and asserts the same condition, so `pytest -v tests/test_acceptance.py`
reads as a checklist of the package's quantitative claims.
"""

from collections import Counter

import numpy as np

from nodalflow.dirichlet import (
    component_first_eigenpairs,
    d_connected_components,
    dirichlet_problem,
    dirichlet_spectrum,
)
from nodalflow.edge_flow import (
    build_perturbation,
    flow_matrix,
    nodal_count_direct,
    run_edge_flow,
)
from nodalflow.edge_flow import derivative_identity_check as edge_derivative_check
from nodalflow.errors import DegenerateEigenvalue
from nodalflow.families import (
    complete,
    cycle,
    generate_connected_er,
    grid,
    interval,
    petersen,
)
from nodalflow.graph_core import betti_1, laplacian
from nodalflow.nodal import (
    nodal_decomposition,
    perturb_to_nonzero,
    select_eigenpair,
    strong_domains_allowing_zeros,
)
from nodalflow.spectra import eigendecompose, group_tolerance, multiplicity_of
from nodalflow.vertex_flow import (
    bilinear_matrix,
    check_edge_equivalence,
    derivative_identity_check,
    limit_graph,
    restrict_eigenvector,
    run_vertex_flow,
    subdivide,
)

from _oracles import flood_fill_nodal_count
from test_cli_io import run_cli


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _select(g, k):
    return select_eigenpair(eigendecompose(laplacian(g)), k)


def _goldens():
    return (
        ("complete_5_k2", complete(5), 2),
        ("cycle_5_k2", cycle(5), 2),
        ("petersen_7_3_k7", petersen(7, 3), 7),
        ("grid_7_5_k5", grid(7, 5), 5),
        ("interval_7_k3", interval(7), 3),
        ("interval_7_k5", interval(7), 5),
        ("interval_7_k7", interval(7), 7),
    )


def test_criterion_01_closed_form_spectra():
    worst = 0.0

    def dev(g, expected):
        vals = eigendecompose(laplacian(g)).eigenvalues
        return float(np.max(np.abs(vals - np.sort(expected))))

    worst = max(worst, dev(complete(5), np.array([0.0, 5.0, 5.0, 5.0, 5.0])))
    for n in (4, 5, 31):
        worst = max(worst, dev(cycle(n), 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)))
    for n in (2, 7):
        worst = max(worst, dev(interval(n), 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)))
    _report(1, "closed-form spectra", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_02_golden_nodal_counts():
    expected = {
        "complete_5_k2": 2,
        "cycle_5_k2": 2,
        "petersen_7_3_k7": 3,
        "grid_7_5_k5": 3,
    }
    ok = True
    details = []
    for name, g, k in _goldens()[:4]:
        sel = _select(g, k)
        direct = nodal_count_direct(g, sel, allow_degenerate=True)
        comb = nodal_decomposition(g, sel).nu
        good = direct.nu == expected[name] and comb == direct.nu
        if not sel.simple:
            good = good and direct.degenerate_warning
        ok = ok and good
        details.append(f"{name} nu={direct.nu}")

    # The path graph is a tree, so every index has deficiency zero; rows
    # whose eigenvector vanishes at the middle vertex go through the seeded
    # diagonal perturbation, and their zero-tolerant combinatorial count is
    # checked on the unperturbed vector as well.
    g = interval(7)
    spec = eigendecompose(laplacian(g))
    gp = perturb_to_nonzero(g)
    specp = eigendecompose(laplacian(gp))
    for k in range(1, 8):
        sel = select_eigenpair(spec, k)
        ok = ok and sel.simple
        if sel.nowhere_zero:
            direct = nodal_count_direct(g, sel)
            ok = ok and direct.deficiency == 0
            ok = ok and nodal_decomposition(g, sel).nu == direct.nu
        else:
            domains, _ = strong_domains_allowing_zeros(g, sel.psi)
            ok = ok and len(domains) == k
            selp = select_eigenpair(specp, k)
            ok = ok and selp.nowhere_zero
            ok = ok and nodal_count_direct(gp, selp).deficiency == 0
    details.append("interval_7 deficiency 0 for all k")
    _report(2, "golden nodal counts", ok, "; ".join(details))


def test_criterion_03_crossing_localization():
    g = petersen(7, 3)
    sel = _select(g, 7)

    fr_e = run_edge_flow(g, sel, allow_degenerate=True)
    mids_e = [(c.sigma_lo + c.sigma_hi) / 2 for c in fr_e.crossings]
    near = [m for m in mids_e if abs(m - 0.990) <= 0.01]
    ok_edge = len(near) == 1

    fr_v = run_vertex_flow(g, sel, allow_degenerate=True)
    mids_v = [(c.sigma_lo + c.sigma_hi) / 2 for c in fr_v.crossings]
    in_window = [m for m in mids_v if 400.0 <= m <= 800.0]
    ok_vertex = len(in_window) >= 1

    detail = (
        f"edge crossing at {near[0]:.6f}" if near else "edge crossing missing"
    )
    if in_window:
        detail += f", vertex crossing at {in_window[0]:.1f}"
    _report(3, "crossing localization", ok_edge and ok_vertex, detail)


def test_criterion_04_monotonicity_and_constancy_suite():
    violations = []
    flows = brackets = 0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for s in range(10):
            seed = int(p * 10) * 100 + s
            g = generate_connected_er(20, p, seed).graph
            spec = eigendecompose(laplacian(g))
            b1 = betti_1(g)
            for k in range(1, g.n + 1):
                sel = select_eigenpair(spec, k)
                if not (sel.simple and sel.nowhere_zero):
                    continue
                fr = run_edge_flow(g, sel, steps=33)
                flows += 1
                tag = f"p={p} seed={seed} k={k}"
                if float(np.diff(fr.branch_values, axis=1).min()) < -1e-8:
                    violations.append(f"{tag}: branch decreased")
                starts = fr.branch_values[:, 0]
                gtol = group_tolerance(sel.lambda_k)
                cands = np.flatnonzero(np.abs(starts - sel.lambda_k) <= gtol)
                drift = min(
                    float(np.max(np.abs(fr.branch_values[b] - sel.lambda_k)))
                    for b in cands
                )
                if drift > 1e-9:
                    violations.append(f"{tag}: psi branch drifted {drift:.2e}")
                nu = nodal_decomposition(g, sel).nu
                if fr.converged_count != nu:
                    violations.append(f"{tag}: multiplicity {fr.converged_count} != nu {nu}")
                if not sel.k - b1 <= nu <= sel.k:
                    violations.append(f"{tag}: nu {nu} outside [k-b1, k]")
                if not fr.count_identity_ok:
                    violations.append(f"{tag}: count identity failed")
                # Matching-free certificate: across every reported bracket,
                # the number of eigenvalues at or below lambda_k falls by at
                # least the number of crossings reported in it.
                pert = build_perturbation(g, sel)
                cells = Counter((c.sigma_lo, c.sigma_hi) for c in fr.crossings)
                for (lo, hi), shared in cells.items():
                    at_lo, at_hi = (
                        int(np.sum(np.linalg.eigvalsh(flow_matrix(pert, s).matrix)
                                   <= sel.lambda_k + 1e-11))
                        for s in (lo, hi)
                    )
                    brackets += shared
                    if at_lo - at_hi < shared:
                        violations.append(
                            f"{tag}: [{lo:.9g}, {hi:.9g}] holds {shared} crossings"
                            f" but the count falls by {at_lo - at_hi}"
                        )
    _report(
        4,
        "monotonicity and constancy suite",
        not violations,
        f"{flows} flows over 50 graphs, {brackets} brackets, {len(violations)} violations"
        + ("; " + "; ".join(violations[:3]) if violations else ""),
    )


def test_criterion_05_derivative_identities():
    rng = np.random.default_rng(50)

    def sample_graph(seed):
        g = generate_connected_er(12, 0.4, seed).graph
        spec = eigendecompose(laplacian(g))
        ks = [
            k
            for k in range(2, g.n + 1)
            if (sel := select_eigenpair(spec, k)).simple and sel.nowhere_zero
        ]
        if not ks:
            return None
        k = ks[int(rng.integers(len(ks)))]
        return g, select_eigenpair(spec, k)

    worst_edge = 0.0
    checked = 0
    seed = 5000
    while checked < 20:
        seed += 1
        drawn = sample_graph(seed)
        if drawn is None:
            continue
        g, sel = drawn
        pert = build_perturbation(g, sel)
        sigma = float(rng.uniform(0.05, 0.95))
        fspec = eigendecompose(flow_matrix(pert, sigma))
        simple_idx = [j for j in range(fspec.n) if len(fspec.group_of(j)) == 1]
        j = simple_idx[int(rng.integers(len(simple_idx)))]
        try:
            res = edge_derivative_check(pert, sigma, fspec.eigenvectors[:, j])
        except DegenerateEigenvalue:
            continue
        worst_edge = max(worst_edge, res)
        checked += 1

    worst_vertex = 0.0
    checked = 0
    seed = 6000
    while checked < 20:
        seed += 1
        drawn = sample_graph(seed)
        if drawn is None:
            continue
        g, sel = drawn
        sg = subdivide(g, sel)
        sigma = float(rng.uniform(0.1, 50.0))
        bspec = eigendecompose(bilinear_matrix(sg, sigma))
        simple_idx = [j for j in range(bspec.n) if len(bspec.group_of(j)) == 1]
        j = simple_idx[int(rng.integers(len(simple_idx)))]
        try:
            res = derivative_identity_check(sg, sigma, bspec.eigenvectors[:, j])
        except DegenerateEigenvalue:
            continue
        worst_vertex = max(worst_vertex, res)
        checked += 1

    ok = worst_edge <= 1e-4 and worst_vertex <= 1e-4
    _report(
        5,
        "derivative identities",
        ok,
        f"20 edge samples worst {worst_edge:.2e}, 20 vertex samples worst {worst_vertex:.2e}",
    )


def test_criterion_06_vertex_edge_equivalence():
    ok = True
    details = []
    for name, g, k in (("complete_5", complete(5), 2), ("cycle_5", cycle(5), 2),
                       ("petersen_7_3", petersen(7, 3), 7)):
        sel = _select(g, k)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for t in range(100):
            sigma = float(rng.uniform(0.0, 10.0))
            worst = max(worst, check_edge_equivalence(g, sel, sigma, trials=1, seed=t))
        ok = ok and worst <= 1e-10
        details.append(f"{name} {worst:.1e}")
    _report(6, "vertex/edge form equivalence", ok, ", ".join(details))


def test_criterion_07_limit_identification():
    ok = True
    details = []
    for name, g, k in _goldens():
        sel = _select(g, k)
        sg = subdivide(g, sel)
        lim = limit_graph(sg)
        dspec = dirichlet_spectrum(dirichlet_problem(lim, tuple(range(sg.n_base))))
        bspec = eigendecompose(bilinear_matrix(sg, 1e4))
        lowest = np.sort(bspec.eigenvalues)[: sg.n_base]
        dev = float(np.max(np.abs(lowest - np.sort(dspec.eigenvalues))))

        lvals = eigendecompose(laplacian(g)).eigenvalues
        above = lvals[lvals > sel.lambda_k + group_tolerance(sel.lambda_k)]
        gap = float(above.min() - sel.lambda_k) if above.size else max(sel.lambda_k, 1.0)
        conv_tol = max(1e-6, gap / 100.0)

        nu = nodal_count_direct(g, sel, allow_degenerate=True).nu
        mult = multiplicity_of(dspec, sel.lambda_k)
        good = dev <= conv_tol and mult == nu
        ok = ok and good
        details.append(f"{name} dev={dev:.1e} tol={conv_tol:.1e} mult={mult} nu={nu}")
    _report(7, "limit identification", ok, "; ".join(details))


def test_criterion_08_dirichlet_structure():
    ok = True
    worst_dev = 0.0
    worst_resid = 0.0
    for name, g, k in _goldens():
        sel = _select(g, k)
        sg = subdivide(g, sel)
        lim = limit_graph(sg)
        base = tuple(range(sg.n_base))
        for rep in component_first_eigenpairs(lim, base):
            ok = ok and rep.simple and rep.signed
            worst_dev = max(worst_dev, abs(rep.lambda_1 - sel.lambda_k))
        for comp in d_connected_components(lim, base):
            restricted = restrict_eigenvector(sg, np.asarray(sel.psi), comp)
            dp = dirichlet_problem(lim, comp)
            sub = restricted[np.array(comp)]
            resid = float(np.max(np.abs(dp.matrix @ sub - sel.lambda_k * sub)))
            worst_resid = max(worst_resid, resid)
    ok = ok and worst_dev <= 1e-8 and worst_resid <= 1e-8
    _report(
        8,
        "Dirichlet structure",
        ok,
        f"worst first-eigenvalue dev {worst_dev:.1e}, worst restriction residual {worst_resid:.1e}",
    )


def test_criterion_09_flood_fill_oracle_equivalence():
    mismatches = []
    for name, g, k in _goldens():
        sel = _select(g, k)
        nu = nodal_count_direct(g, sel, allow_degenerate=True).nu
        if nu != flood_fill_nodal_count(g.n, g.edges, sel.psi):
            mismatches.append(name)

    rng = np.random.default_rng(90)
    instances = 0
    seed = 9000
    while instances < 50:
        seed += 1
        p = (0.3, 0.5, 0.7)[seed % 3]
        g = generate_connected_er(16, p, seed).graph
        spec = eigendecompose(laplacian(g))
        ks = [
            k
            for k in range(2, g.n + 1)
            if (sel := select_eigenpair(spec, k)).simple and sel.nowhere_zero
        ]
        if not ks:
            continue
        k = ks[int(rng.integers(len(ks)))]
        sel = select_eigenpair(spec, k)
        nu = nodal_count_direct(g, sel).nu
        if nu != flood_fill_nodal_count(g.n, g.edges, sel.psi):
            mismatches.append(f"er seed={seed} k={k}")
        instances += 1
    _report(
        9,
        "flood-fill oracle equivalence",
        not mismatches,
        f"7 named cases + {instances} random instances, {len(mismatches)} mismatches",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    ok = True
    details = []

    gen_outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"er_{tag}.json"
        r = run_cli("generate", "--family", "erdos_renyi", "--params", "18,0.4",
                    "--seed", "11", "-o", str(path))
        ok = ok and r.returncode == 0
        gen_outputs.append(path.read_bytes())
    ok = ok and gen_outputs[0] == gen_outputs[1]
    details.append("generate" + ("=" if gen_outputs[0] == gen_outputs[1] else "!"))

    graph = tmp_path / "gp.json"
    run_cli("generate", "--family", "petersen", "--params", "7,3", "-o", str(graph))
    flow_outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"flow_{tag}"
        r = run_cli("flow", "--method", "edge", "--graph", str(graph), "--k", "7",
                    "--steps", "60", "--out", str(out), "--svg")
        ok = ok and r.returncode == 3  # degenerate pair, computed anyway
        flow_outputs.append(
            tuple((tmp_path / f"flow_{tag}{ext}").read_bytes()
                  for ext in (".csv", ".json", ".svg"))
        )
    ok = ok and flow_outputs[0] == flow_outputs[1]
    details.append("flow" + ("=" if flow_outputs[0] == flow_outputs[1] else "!"))

    scans = [run_cli("scan", "--graph", str(tmp_path / "er_a.json")) for _ in range(2)]
    ok = ok and all(s.returncode == 0 for s in scans)
    ok = ok and scans[0].stdout == scans[1].stdout and scans[0].stdout.startswith("k,")
    details.append("scan" + ("=" if scans[0].stdout == scans[1].stdout else "!"))

    _report(10, "CLI reproducibility", ok, " ".join(details))
