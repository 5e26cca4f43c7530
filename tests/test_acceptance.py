"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import json
import time

import numpy as np

import nlhjb as nl
from nlhjb.cli import run as cli_run
from nlhjb.config import parse_config
from nlhjb.operators import apply_control

from conftest import random_problem, smooth_field
from oracles import (apply_quadrature_pointwise, build_dense_oracles,
                     dense_fixed_point, fractional_laplacian_constant,
                     fractional_laplacian_reference, jump_apply_reference,
                     verify_ergodic_pair)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")


def zero_costs(p):
    return dataclasses.replace(
        p, cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                      for _ in p.controls))


def test_criterion_01_quadrature_consistency():
    t0 = time.time()
    worst = 0.0
    decreased = True
    for s in (0.6, 0.75, 0.9):
        kern = fractional_laplacian_constant(1, s) / 2.0
        oracle = fractional_laplacian_reference("cos", 0.0, s)
        u = lambda x: np.cos(np.asarray(x, float)[..., 0])
        errs = []
        for hx in (2.0**-7, 2.0**-8):
            q = nl.build_quadrature(nl.build_grid(1, hx, 4.0), s, 64.0)
            val = apply_quadrature_pointwise(q, u, np.zeros(1), kern)
            errs.append(abs(val - oracle))
        worst = max(worst, errs[0])
        decreased &= errs[1] < errs[0]
    elapsed = time.time() - t0
    ok = worst <= 2e-3 and decreased and elapsed < 5.0
    report(1, "quadrature consistency", ok,
           f"max |I[cos](0)+1| = {worst:.2e} (tol 2e-3), "
           f"halving decreases error: {decreased}, {elapsed:.1f}s (< 5s)")
    assert worst <= 2e-3
    assert decreased
    assert elapsed < 5.0


def test_criterion_02_affine_annihilation():
    worst = 0.0
    rng = np.random.default_rng(42)
    for d, hx, R, s in ((1, 0.5, 4.0, 0.75), (1, 0.25, 4.0, 0.9),
                        (2, 0.5, 4.0, 0.8)):
        coef = rng.normal(size=d)
        icpt = rng.normal()

        def aff(x, coef=coef, icpt=icpt):
            return np.tensordot(np.asarray(x, float), coef, axes=([-1], [0])) + icpt

        p = nl.ControlProblem(
            controls=("j",),
            kernel=nl.KernelSpec(s=s, lambda_ell=0.8, Lambda_ell=1.2,
                                 k=lambda x, y, s=s: (2 - 2 * s) * (
                                     1.0 + 0.2 * np.cos(np.linalg.norm(
                                         np.asarray(y, float), axis=-1))
                                     * np.ones(np.asarray(x).shape[:-1]))),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = nl.build_grid(d, hx, R)
        q = nl.build_quadrature(g, s, R + 2.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.function(aff))
        vals = apply_control(op, 0, aff(g.nodes))
        worst = max(worst, float(np.max(np.abs(vals))))
    ok = worst <= 1e-12
    report(2, "affine annihilation", ok, f"max residual {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        p = random_problem(seed, s=0.75, vary_kernel=True)
        g = nl.build_grid(1, 0.25, 8.0)   # 65 nodes
        q = nl.build_quadrature(g, 0.75, 9.0)
        ext = nl.ExteriorRule.zero()
        alpha = 0.35
        op = nl.assemble(p, g, q, ext, alpha=alpha)
        sol = nl.solve_policy_iteration(op, 1e-11)
        u = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=alpha),
                              tol=1e-11)
        worst = max(worst, float(np.max(np.abs(sol.w - u))))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, "oracle equivalence", ok,
           f"max sup-diff over 10 seeds {worst:.2e} (tol 1e-8), "
           f"{elapsed:.1f}s (< 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_04_comparison_monotonicity():
    worst = -np.inf
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        p1 = random_problem(seed, s=0.75, vary_kernel=True)
        bump = smooth_field(rng, 1, amp=0.5)
        p2 = dataclasses.replace(
            p1, cost=tuple((lambda f: (lambda x: f(x) + np.abs(bump(x))))(f)
                           for f in p1.cost))
        g = nl.build_grid(1, 0.25, 6.0)
        q = nl.build_quadrature(g, 0.75, 7.0)
        ext = nl.ExteriorRule.zero()
        w1 = nl.solve_policy_iteration(nl.assemble(p1, g, q, ext, alpha=0.4),
                                       1e-11).w
        w2 = nl.solve_policy_iteration(nl.assemble(p2, g, q, ext, alpha=0.4),
                                       1e-11).w
        worst = max(worst, float(np.max(w1 - w2)))
    ok = worst <= 1e-9
    report(4, "discrete comparison", ok,
           f"max (w1 - w2) over 10 seeds = {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_05_barrier_and_m_bounds():
    p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
    gc = nl.build_grid(1, 0.25, 32.0)
    qc = nl.build_quadrature(gc, 0.9, 64.0)
    cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, gc, qc), p.lyapunov, gc)
    assert cert.ok
    sup_g = max(float(np.max(np.abs(gg(gc.nodes)))) for gg in p.cost)
    all_ok = True
    worst_margin = np.inf
    for alpha in (0.5, 0.25, 0.125):
        for R in (8.0, 16.0, 32.0):
            g = nl.build_grid(1, 0.25, R)
            q = nl.build_quadrature(g, 0.9, R + 1.0)
            op = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=alpha)
            sol = nl.solve_policy_iteration(op, 1e-10)
            br = nl.check_barrier(sol, p, g, k0=cert.k0)
            m_ok = float(np.max(np.abs(sol.w))) <= sup_g / alpha + 1e-9
            all_ok &= sol.converged and br.ok and m_ok
            worst_margin = min(worst_margin, br.min_margin)
    report(5, "barrier and M bounds", all_ok,
           f"all nine (alpha, R) pairs hold; min barrier margin "
           f"{worst_margin:.3f}")
    assert all_ok


def test_criterion_06_constant_cost_exactness():
    dom = nl.DomainConfig(d=1, hx=0.25, radii=(4.0, 8.0))
    sched = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=12)
    worst_lam = worst_u = 0.0
    for kappa in (0.0, 1.0, -3.0):
        p = nl.constant_cost_problem(kappa, 1)
        sol = nl.vanishing_discount(p, dom, sched, 1e-10)
        assert sol.converged
        worst_lam = max(worst_lam, abs(sol.lambda_star - kappa))
        worst_u = max(worst_u, float(np.max(np.abs(sol.u))))
    ok = worst_lam <= 1e-9 and worst_u <= 1e-9
    report(6, "constant-cost exactness", ok,
           f"max |lambda*-kappa| = {worst_lam:.2e}, max ||u|| = {worst_u:.2e} "
           f"(tol 1e-9)")
    assert worst_lam <= 1e-9
    assert worst_u <= 1e-9


def test_criterion_07_shift_covariance():
    p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
    shifted = dataclasses.replace(
        p, cost=tuple((lambda f: (lambda x: f(x) + 2.0))(f) for f in p.cost))
    dom = nl.DomainConfig(d=1, hx=0.25, radii=(8.0, 16.0, 32.0))
    sched = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=25)
    s1 = nl.vanishing_discount(p, dom, sched, 1e-6, solver_tol=1e-9)
    s2 = nl.vanishing_discount(shifted, dom, sched, 1e-6, solver_tol=1e-9)
    assert s1.converged and s2.converged
    win = np.flatnonzero(s1.grid.radii() <= dom.window_radius + 1e-12)
    dlam = abs(s2.lambda_star - s1.lambda_star - 2.0)
    du = float(np.max(np.abs(s2.u[win] - s1.u[win])))
    ok = dlam <= 1e-6 and du <= 1e-6
    report(7, "shift covariance", ok,
           f"|Δlambda - 2| = {dlam:.2e}, window ||Δu|| = {du:.2e} (tol 1e-6)")
    assert dlam <= 1e-6
    assert du <= 1e-6


def test_criterion_08_uniqueness_probe():
    t0 = time.time()
    results = []
    # d = 1 instance
    p1 = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
    dom1 = nl.DomainConfig(d=1, hx=0.25, radii=(8.0, 16.0))
    tol1 = 1e-6
    sched = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=30)
    s1 = nl.vanishing_discount(p1, dom1, sched, tol1, solver_tol=1e-9)
    v1 = verify_ergodic_pair(s1, p1, dom1, sched, tol1, probe_factor=0.8)
    results.append(("d=1", s1.converged and v1.ok,
                    v1.probe_lambda_diff, v1.probe_u_diff, 5 * tol1))
    # d = 2 desk instance (hx = 0.25, R <= 8)
    p2 = nl.power_drift_problem(1.4, 0.02, 2, 0.75)
    dom2 = nl.DomainConfig(d=2, hx=0.25, radii=(2.0, 4.0))
    tol2 = 1e-4
    sched2 = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=20)
    s2 = nl.vanishing_discount(p2, dom2, sched2, tol2, solver_tol=1e-7)
    v2 = verify_ergodic_pair(s2, p2, dom2, sched2, tol2, probe_factor=0.8)
    results.append(("d=2", s2.converged and v2.ok,
                    v2.probe_lambda_diff, v2.probe_u_diff, 5 * tol2))
    elapsed = time.time() - t0
    ok = all(r[1] for r in results) and elapsed < 300.0
    detail = "; ".join(
        f"{name}: dlam={dl:.2e}, du={du:.2e} (tol {lim:.0e})"
        for name, _, dl, du, lim in results)
    report(8, "uniqueness probe", ok, detail + f"; {elapsed:.0f}s (< 300s)")
    for name, good, dl, du, lim in results:
        assert good, name
    assert elapsed < 300.0


def test_criterion_09_lyapunov_certificate_cli(tmp_path):
    base = {
        "mode": "certify",
        "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                    "s": 0.9},
        "grid": {"d": 1, "hx": 0.25, "radii": [32.0], "r_far_margin": 32.0},
    }
    code = cli_run(parse_config(base), output_dir=str(tmp_path / "fwd"))
    cert = json.loads((tmp_path / "fwd" / "certificate.json").read_text())
    fwd_ok = code == 0 and cert["violations"] == []
    flipped = dict(base, problem=dict(base["problem"], drift_sign=1.0))
    code2 = cli_run(parse_config(flipped), output_dir=str(tmp_path / "rev"))
    cert2 = json.loads((tmp_path / "rev" / "certificate.json").read_text())
    rev_ok = code2 == 2 and len(cert2["violations"]) > 0
    ok = fwd_ok and rev_ok
    report(9, "lyapunov certificate", ok,
           f"forward drift: zero violations (k0={cert['k0']:.3f}, "
           f"k1={cert['k1']:.3f}); flipped drift: "
           f"{len(cert2['violations'])} violations")
    assert fwd_ok
    assert rev_ok


def test_criterion_10_discrete_liouville():
    worst = 0.0
    for seed in range(10):
        c_floor = 0.15 + 0.05 * (seed % 4)
        p = zero_costs(random_problem(2000 + seed, c_floor=c_floor,
                                      vary_kernel=True))
        g = nl.build_grid(1, 0.25, 6.0)
        q = nl.build_quadrature(g, 0.75, 7.0)
        sol = nl.solve_policy_iteration(
            nl.assemble(p, g, q, nl.ExteriorRule.zero()), 1e-10)
        worst = max(worst, float(np.max(np.abs(sol.w))))
    ok = worst <= 1e-10
    report(10, "discrete Liouville", ok,
           f"max ||w|| over 10 seeded dynamics = {worst:.2e} (tol = solver tol)")
    assert worst <= 1e-10


def test_criterion_11_pucci_envelope():
    s = 0.75
    lam, Lam = 0.8, 1.3
    g = nl.build_grid(1, 0.25, 6.0)
    q = nl.build_quadrature(g, s, 7.0)
    ext = nl.ExteriorRule.zero()
    base = 2.0 - 2.0 * s

    def wrap(fn):
        def k(x, y):
            out = fn(np.asarray(x, float), np.asarray(y, float))
            return base * np.broadcast_to(out, np.broadcast_shapes(
                np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()
        return k

    kernels = [
        wrap(lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1],
                                                      y.shape[:-1]), lam)),
        wrap(lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1],
                                                      y.shape[:-1]), Lam)),
        wrap(lambda x, y: lam + (Lam - lam) * 0.5
             * (1 + np.cos(np.linalg.norm(y, axis=-1)))),
        wrap(lambda x, y: lam + (Lam - lam) * 0.5
             * (1 + np.sin(x[..., 0]) * np.cos(np.linalg.norm(y, axis=-1)))),
        wrap(lambda x, y: lam + (Lam - lam) / (1 + np.linalg.norm(y, axis=-1))),
    ]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        u = rng.normal(size=g.n_nodes)
        Mp = nl.pucci_extremal(q, g, u, ext, "+", lam, Lam)
        Mm = nl.pucci_extremal(q, g, u, ext, "-", lam, Lam)
        for k in kernels:
            I = jump_apply_reference(q, g, u, ext, k)
            worst = max(worst, float(np.max(I - Mp)), float(np.max(Mm - I)))
    ok = worst <= 1e-12
    report(11, "pucci envelope", ok,
           f"max envelope violation over 10 x 5 cases = {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_12_lambda_alpha_boundedness():
    p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
    gc = nl.build_grid(1, 0.25, 32.0)
    qc = nl.build_quadrature(gc, 0.9, 64.0)
    cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, gc, qc), p.lyapunov, gc)
    assert cert.ok
    dom = nl.DomainConfig(d=1, hx=0.25, radii=(8.0, 16.0))
    sol = nl.vanishing_discount(p, dom, nl.AlphaSchedule(max_levels=25),
                                1e-6, solver_tol=1e-9)
    assert sol.converged
    rep = nl.check_lambda_bound(sol.alpha_trace, p, sol.grid, cert.k0)
    margin = min(rep.margins)
    ok = rep.ok and len(sol.alpha_trace) >= 3
    report(12, "lambda_alpha bound", ok,
           f"alpha|w_alpha(0)| <= k0 + alpha V(0) across "
           f"{len(sol.alpha_trace)} levels; min margin {margin:.3f}")
    assert rep.ok
