"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance and runtime budget is pinned here.  Criterion 5's slope band
is asserted exactly as stated; see the test body for the measured
diagnostics it prints alongside the verdict.
"""

import time

import numpy as np

from fastslow.jets import Jet, JetVector, max_coeff_diff, monomials_of_degree
from fastslow.model import nilpotency_index
from fastslow.embedding import (flow_time1_jet, takens_embed_unipotent,
                                verify_reduced_embedding)
from fastslow.singularities import (center_manifold_restricted_map,
                                    cm_normal_form_transform, embed_2d,
                                    embed_on_center_manifold)
from fastslow.dynamics import (branch_selection_experiment, compile_jet_callable,
                               fit_powerlaw, fold_exit_experiment,
                               integrate_time1)
from conftest import (make_contact3d_spec, make_fold_spec, make_pitchfork_spec,
                      make_quadratic_g_spec, make_transcritical_spec,
                      random_nilpotent_field)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _corpus(seed=42, count=50, order=4):
    rng = np.random.default_rng(seed)
    return [random_nilpotent_field(rng, order=order) for _ in range(count)]


def test_criterion_01_embedding_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for V in _corpus():
        H = flow_time1_jet(V, 4)
        res = takens_embed_unipotent(H, 4)
        worst = max(worst, max_coeff_diff(res.V, V.degree_cap(4)), res.residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 30.0
    _report(1, ok, f"50-field round trip: worst coefficient error "
                   f"{worst:.3e} (<= 1e-9), {elapsed:.1f}s (<= 30s)")


def test_criterion_02_flow_jets_vs_integrator():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_margin = -np.inf
    for V in _corpus():
        m = V.num_vars
        flow = compile_jet_callable(flow_time1_jet(V, 4))
        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, m)
            z *= rng.uniform(0.0, 0.1) / max(1e-12, np.linalg.norm(z))
            num = integrate_time1(V, z)
            rel = np.max(np.abs(num - flow(z))) / (1.0 + np.max(np.abs(num)))
            bound = 1e-6 + 10.0 * np.linalg.norm(z) ** 5
            worst_margin = max(worst_margin, rel - bound)
    elapsed = time.perf_counter() - start
    ok = worst_margin <= 0.0 and elapsed <= 60.0
    _report(2, ok, f"1000 points vs Bulirsch-Stoer: worst excess over "
                   f"1e-6 + 10|z|^5 is {worst_margin:.3e} (<= 0), "
                   f"{elapsed:.1f}s (<= 60s)")


def test_criterion_03_slow_map_order_structure():
    spec = make_quadratic_g_spec()
    rep = verify_reduced_embedding(spec, [0.0, 0.0], 4)
    worst01 = max(rep.eps01_diffs[l] for l in (2, 3, 4))
    ok = worst01 <= 1e-10 and rep.eps2_diff <= 1e-10
    _report(3, ok, f"slow map vs reduced flow: eps-exponent {{0,1}} "
                   f"discrepancy {worst01:.3e} (<= 1e-10), eps^2 closed-form "
                   f"gap {rep.eps2_diff:.3e} (<= 1e-10)")


def test_criterion_04_nilpotency_index_shift():
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        n = k + p
        J = np.zeros((p, p))
        index = int(rng.integers(1, p + 1))
        for i in range(index - 1):
            J[i, i + 1] = 1.0
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = Q @ J @ Q.T
        while True:
            N = rng.standard_normal((n, p))
            if np.linalg.matrix_rank(N) == p:
                break
        pinv = np.linalg.pinv(N)
        while True:
            W = rng.standard_normal((p, n))
            Df = A @ pinv + W @ (np.eye(n) - N @ pinv)
            if np.linalg.matrix_rank(Df) == p:
                break
        got_small = nilpotency_index(Df @ N, 1e-10)
        got_big = nilpotency_index(N @ Df, 1e-10)
        if got_small != index or got_big != index + 1:
            failures += 1
    _report(4, failures == 0,
            f"100 random factorizations: index(N Df) = index(Df N) + 1 "
            f"failed {failures} times (tol 1e-10)")


def test_criterion_05_fold_exit_law():
    start = time.perf_counter()
    spec = make_fold_spec()
    grid = np.logspace(-4, -2, 13)
    fit = fold_exit_experiment(spec, 0.1, grid)
    elapsed = time.perf_counter() - start
    # companion diagnostics: the exit level carries the corner analysis'
    # eps*log(eps)-order correction inside this window; the crossing level
    # at the critical fiber shows the clean leading power
    fiber = fold_exit_experiment(spec, 0.1, grid, observable="fiber")
    print(f"ACCEPTANCE  5 diagnostics: exit-level slope {fit.slope:.4f} "
          f"(r^2 {fit.r_squared:.6f}); fiber-crossing slope {fiber.slope:.4f} "
          f"(r^2 {fiber.r_squared:.6f}); {elapsed:.1f}s")
    ok = (abs(fit.slope - 0.667) <= 0.05 and fit.r_squared >= 0.999
          and elapsed <= 120.0)
    _report(5, ok, f"fold exit law on eps in [1e-4, 1e-2]: slope "
                   f"{fit.slope:.4f} (need 0.667 +- 0.05), r^2 "
                   f"{fit.r_squared:.6f} (>= 0.999), {elapsed:.1f}s (<= 120s)")


def test_criterion_06_transcritical_dichotomy():
    start = time.perf_counter()
    exch = branch_selection_experiment(make_transcritical_spec(0.5),
                                       "Transcritical", 1e-3)
    esc = branch_selection_experiment(make_transcritical_spec(2.0),
                                      "Transcritical", 1e-3)
    eps_grid = np.logspace(-4, -2, 9)
    dists = []
    for eps in eps_grid:
        sel = branch_selection_experiment(make_transcritical_spec(2.0),
                                          "Transcritical", float(eps))
        dists.append(abs(sel.exit_point[1]))
    fit = fit_powerlaw(eps_grid, dists)
    elapsed = time.perf_counter() - start
    ok = (exch.label == "ExchangeOfStability" and esc.label == "FastEscape"
          and abs(fit.slope - 0.5) <= 0.1 and elapsed <= 120.0)
    _report(6, ok, f"transcritical: lam=0.5 -> {exch.label}, lam=2 -> "
                   f"{esc.label}, escape-distance slope {fit.slope:.3f} "
                   f"(0.5 +- 0.1), {elapsed:.1f}s (<= 120s)")


def test_criterion_07_pitchfork_branch_selection():
    start = time.perf_counter()
    minus = branch_selection_experiment(make_pitchfork_spec(-0.5, 1.0),
                                        "Pitchfork", 1e-3)
    plus = branch_selection_experiment(make_pitchfork_spec(+0.5, 1.0),
                                       "Pitchfork", 1e-3)
    centers = [branch_selection_experiment(make_pitchfork_spec(0.5, -1.0),
                                           "Pitchfork", 1e-3, side=side).label
               for side in ("plus", "minus")]
    elapsed = time.perf_counter() - start
    ok = (minus.label == "BranchMinus" and plus.label == "BranchPlus"
          and centers == ["BothToCenter", "BothToCenter"] and elapsed <= 120.0)
    _report(7, ok, f"pitchfork: -0.5 -> {minus.label}, +0.5 -> {plus.label}, "
                   f"g0=-1 -> {centers}, {elapsed:.1f}s (<= 120s)")


def test_criterion_08_planar_case_preservation():
    results = []
    for maker in (make_fold_spec, make_transcritical_spec, make_pitchfork_spec):
        r = embed_2d(maker(), order=4)
        results.append((r.case_in, r.case_out, abs(r.K0 - 1.0),
                        r.factor_residual))
    ok = all(cin == cout and k0 <= 1e-8 and res <= 1e-8
             for cin, cout, k0, res in results)
    detail = "; ".join(f"{cin}->{cout} K0-1={k0:.1e} res={res:.1e}"
                       for cin, cout, k0, res in results)
    _report(8, ok, f"planar embedding case preservation: {detail}")


def test_criterion_09_contact_pipeline():
    spec = make_contact3d_spec()
    nf = cm_normal_form_transform(spec)
    cm = center_manifold_restricted_map(nf, order=4)
    emb = embed_on_center_manifold(cm, order=4)
    ok = (cm.invariance_residual <= 1e-10
          and abs(cm.mu1 - 1.0) <= 1e-10
          and emb.partials_diff <= 1e-8
          and emb.quad_closed_diff <= 1e-8
          and emb.linear_match <= 1e-8
          and emb.factor_residual <= 1e-8)
    _report(9, ok, f"3-D contact pipeline: invariance "
                   f"{cm.invariance_residual:.2e} (<= 1e-10), multiplier-1 "
                   f"{abs(cm.mu1 - 1.0):.2e} (<= 1e-10), slow-partials gap "
                   f"{emb.partials_diff:.2e}, quadratic closed-form gap "
                   f"{emb.quad_closed_diff:.2e} (<= 1e-8)")


def test_criterion_10_embedding_error_scaling():
    rng = np.random.default_rng(12)
    order = 4
    checked = []
    for trial in range(3):
        V = random_nilpotent_field(rng, num_vars=2, order=5)
        V = JetVector([c.degree_cap(order) for c in V], 2, 5)
        H = flow_time1_jet(V, order)
        tail = {alpha.exponents: float(rng.uniform(0.5, 1.0))
                for alpha in monomials_of_degree(2, order + 1)}
        H_tailed = JetVector([c + Jet.from_terms(2, 5, tail) for c in H], 2, 5)
        h_eval = compile_jet_callable(H_tailed)
        sups = []
        for s in (0.2, 0.1, 0.05):
            worst = 0.0
            for _ in range(40):
                z = rng.uniform(-1.0, 1.0, 2)
                z *= s / np.linalg.norm(z)
                worst = max(worst, np.max(np.abs(h_eval(z)
                                                 - integrate_time1(V, z))))
            sups.append(worst)
        ratios = [hi / lo for hi, lo in zip(sups, sups[1:])]
        checked.append(min(ratios))
    floor = 2 ** (order - 1) * 0.8
    ok = all(r >= floor for r in checked)
    _report(10, ok, f"tail-error decay over radii 0.2/0.1/0.05: worst "
                    f"successive ratio {min(checked):.1f} (>= {floor:.1f})")
