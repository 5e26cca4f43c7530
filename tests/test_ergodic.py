import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlhjb as nl
from nlhjb.ergodic import AlphaLevel, _predicted_start

from oracles import fractional_laplacian_constant, verify_ergodic_pair


DOM1 = nl.DomainConfig(d=1, hx=0.25, radii=(4.0, 8.0))
SCHED = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=20)


class TestExpandDomain:
    def test_zero_cost_stabilizes_immediately(self):
        p = nl.constant_cost_problem(0.0, 1)
        sol, trace, _, _ = nl.expand_domain(
            p, 0.4, nl.DomainConfig(d=1, hx=0.25, radii=(4.0, 8.0, 12.0)), 1e-10)
        assert len(trace) == 2 and trace[1][1] <= 1e-10
        assert np.max(np.abs(sol.u)) <= 1e-10

    def test_constant_cost_matching_exterior_zero_change(self):
        kappa, alpha = 2.0, 0.25
        p = nl.constant_cost_problem(kappa, 1)
        sol, trace, _, _ = nl.expand_domain(p, alpha, DOM1, 1e-8,
                                         ext=lambda x: kappa / alpha)
        assert trace[-1][1] <= 1e-8
        np.testing.assert_allclose(sol.u, kappa / alpha, atol=1e-7)

    def test_power_drift_changes_decrease(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        _, trace, _, _ = nl.expand_domain(
            p, 0.25, nl.DomainConfig(d=1, hx=0.5, radii=(8.0, 16.0, 32.0)), 1e-12)
        changes = [c for _, c in trace[1:]]
        assert len(changes) == 2
        assert changes[1] < changes[0]

    def test_schedule_validation(self):
        p = nl.constant_cost_problem(0.0, 1)
        with pytest.raises(ValueError):
            nl.expand_domain(p, 0.4, nl.DomainConfig(d=1, hx=0.25, radii=(8.0, 4.0)), 1e-8)
        with pytest.raises(ValueError):
            nl.expand_domain(p, 0.4, nl.DomainConfig(d=1, hx=0.25, radii=(0.5,)), 1e-8)


class TestRadiusLadder:
    """Both drivers climb one radius ladder; assemblies are counted per radius."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        import nlhjb.ergodic as erg
        radii = []

        def counting(p, grid, *args, **kwargs):
            radii.append(grid.R)
            return nl.assemble(p, grid, *args, **kwargs)

        monkeypatch.setattr(erg, "assemble", counting)
        return radii

    def test_vanishing_discount_assembles_each_radius_once(self, assembled):
        dom = nl.DomainConfig(d=1, hx=0.5, radii=(4.0, 8.0, 16.0))
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, dom, SCHED, 1e-5, solver_tol=1e-9)
        assert Counter(assembled) == {4.0: 1, 8.0: 1, 16.0: 1}
        assert [R for R, _ in sol.radius_trace] == [4.0, 8.0, 16.0]

    def test_expand_domain_never_assembles_past_the_stop(self, assembled):
        p = nl.constant_cost_problem(0.0, 1)
        _, trace, op, _ = nl.expand_domain(
            p, 0.4, nl.DomainConfig(d=1, hx=0.25, radii=(4.0, 8.0, 12.0)), 1e-10)
        assert assembled == [4.0, 8.0]
        assert trace[-1][1] <= 1e-10
        assert op.grid.R == 8.0


class TestVanishingDiscount:
    def test_problem_with_its_own_zeroth_term_is_rejected(self):
        # the sweep sets c ≡ -alpha, which would replace the problem's c ≡ -2
        p = nl.constant_cost_problem(1.0, 1)
        p = dataclasses.replace(p, zeroth=(lambda x: np.full(np.shape(x)[:-1], -2.0),)
                                * p.n_controls)
        for run in (nl.vanishing_discount, nl.convergence_study):
            with pytest.raises(ValueError, match="problem carries its own"):
                run(p, DOM1, SCHED, 1e-8)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -3.0])
    def test_constant_cost_exactness(self, kappa):
        p = nl.constant_cost_problem(kappa, 1)
        sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-10)
        assert sol.converged
        assert sol.lambda_star == pytest.approx(kappa, abs=1e-9)
        assert np.max(np.abs(sol.u)) <= 1e-9

    def test_lambda_trace_is_recorded(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-4, solver_tol=1e-8)
        assert sol.converged
        lams = [lv.lam for lv in sol.alpha_trace]
        assert len(lams) >= 3
        # Cauchy behaviour: recorded changes reach the tolerance
        assert sol.alpha_trace[-1].lam_change <= 1e-4
        assert sol.alpha_trace[-1].wbar_change <= 1e-4
        assert sol.alpha_trace[-1].alpha_norm <= 1e-4

    def test_shift_covariance(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        shifted = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: f(x) + 2.0))(f) for f in p.cost))
        s1 = nl.vanishing_discount(p, DOM1, SCHED, 1e-6, solver_tol=1e-9)
        s2 = nl.vanishing_discount(shifted, DOM1, SCHED, 1e-6, solver_tol=1e-9)
        assert s2.lambda_star - s1.lambda_star == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(s2.u - s1.u)) <= 1e-8

    def test_exhausted_schedule_is_flagged(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, DOM1, nl.AlphaSchedule(max_levels=2), 1e-12)
        assert not sol.converged
        assert len(sol.alpha_trace) == 2

    def test_mixed_local_path_constant_cost(self):
        # jumps disabled, a = identity: same driver, same exact answer
        p = nl.constant_cost_problem(1.5, 1, local_identity=True)
        sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-10)
        assert sol.converged
        assert sol.lambda_star == pytest.approx(1.5, abs=1e-9)
        assert np.max(np.abs(sol.u)) <= 1e-9

    def test_sweep_solves_largest_ball_then_one_ladder(self, monkeypatch):
        import nlhjb.ergodic as erg
        calls = []

        def counting(op, alpha, *args, **kwargs):
            calls.append((op.grid.R, alpha))
            return nl.solve_normalized(op, alpha, *args, **kwargs)

        monkeypatch.setattr(erg, "solve_normalized", counting)
        dom = nl.DomainConfig(d=1, hx=0.5, radii=(4.0, 8.0, 16.0))
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, dom, SCHED, 1e-5, solver_tol=1e-9)
        alphas = [lv.alpha for lv in sol.alpha_trace]
        assert len(alphas) >= 3
        assert len(calls) == len(alphas) + len(dom.radii) - 1
        assert calls[:len(alphas)] == [(16.0, a) for a in alphas]
        assert calls[len(alphas):] == [(4.0, alphas[-1]), (8.0, alphas[-1])]
        assert [R for R, _ in sol.radius_trace] == [4.0, 8.0, 16.0]

    def test_radius_trace_matches_cold_solves_at_last_alpha(self):
        dom = nl.DomainConfig(d=1, hx=0.5, radii=(4.0, 8.0, 16.0))
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, dom, SCHED, 1e-5, solver_tol=1e-9)
        alpha = sol.alpha_trace[-1].alpha
        cold = []
        for R in dom.radii:
            g = nl.build_grid(1, 0.5, R)
            op = nl.assemble(p, g, nl.build_quadrature(g, 0.9, R + 1.0),
                             None)
            cold.append((g, nl.solve_normalized(op, alpha, 1e-9)))
        want = [np.inf]
        for (ga, sa), (gb, sb) in zip(cold, cold[1:]):
            win = np.flatnonzero(ga.radii() <= dom.window_radius)
            ib = gb.node_index_of_lattice(ga.lattice[win])
            want.append(float(np.max(np.abs(sb.u[ib] - sa.u[win]))))
        got = [c for _, c in sol.radius_trace]
        assert got[0] == np.inf
        np.testing.assert_allclose(got[1:], want[1:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.u, cold[-1][1].u, rtol=0, atol=1e-12)

    def test_fine_1d_sweep_solves_every_pair_by_krylov(self):
        # At N=1025 one restarted bordered solve breaks down (info < 0) at the
        # FFT round-off floor, its true residual about 3e-12 against the 1e-10
        # rule; judged by that residual the pair is kept, so the sweep never
        # falls back to sparse LU
        dom = nl.DomainConfig(d=1, hx=0.0625, radii=(8.0, 16.0, 32.0))
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, dom, nl.AlphaSchedule(max_levels=25), 1e-6,
                                    solver_tol=1e-9)
        assert sol.converged
        assert sol.counts.linear_solves["splu"] == 0
        assert abs(sol.lambda_star - 0.22482180072756755) <= 1e-8

    def test_fallback_does_not_pin_the_sweep_to_lu(self, monkeypatch):
        # The first bordered solve falls back to sparse LU; every later solve
        # of the sweep and the radius ladder still tries BiCGStab first
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        want = nl.vanishing_discount(p, DOM1, SCHED, 1e-4, solver_tol=1e-8)
        bicgstab = spla.bicgstab
        calls = []

        def fail_first(A, b, *args, **kwargs):
            calls.append(A)
            if len(calls) == 1:
                return np.zeros_like(b), 1
            return bicgstab(A, b, *args, **kwargs)

        monkeypatch.setattr(spla, "bicgstab", fail_first)
        sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-4, solver_tol=1e-8)
        assert sol.converged and len(calls) > 1
        assert sol.counts.linear_solves["splu"] == 1
        assert sol.counts.linear_solves["bicgstab"] == want.counts.linear_solves["bicgstab"] - 1
        assert abs(sol.lambda_star - want.lambda_star) <= 1e-8

    def test_growth_report_tail_nonincreasing(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-4, solver_tol=1e-8)
        rays = sol.growth_report["rays"]
        assert len(rays) == 2  # both signs in d=1
        # o(V) proxy: |u|/(1+V) falls off at the outermost sampled radii
        assert sol.growth_report["nonincreasing_tail"] is True


def _levels(alphas, v, m):
    """Solved levels at ``alphas`` whose pair is (v(alpha), m(alpha))."""
    return [AlphaLevel(alpha=a, lam=m(a), wbar=v(a), lam_change=np.inf,
                       wbar_change=np.inf, alpha_norm=0.0, residual=0.0)
            for a in alphas]


class TestPredictedStart:
    """A level starts from the Lagrange interpolant in alpha through the
    last three solved levels' (wbar, lam), or through all when fewer."""

    coefficients = st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5)

    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3, unique=True),
           frac=st.floats(0.0, 1.0), c=coefficients, d=st.floats(-10.0, 10.0),
           junk=st.floats(-1e3, 1e3))
    def test_reproduces_a_quadratic_pair(self, alphas, frac, c, d, junk):
        alphas = sorted(alphas, reverse=True)
        assume(min(a - b for a, b in zip(alphas, alphas[1:])) >= 0.05)
        # slot 0 is the origin, where every level's wbar is 0
        c0, c1, c2 = np.array([0.0, *c[:2]]), np.array([0.0, *c[2:4]]), np.array([0.0, c[4], 1.0])

        def v(a):
            return c0 + c1 * a + c2 * a * a

        def m(a):
            return d - 2.0 * a + 0.5 * a * a

        # an older level than the last three takes no part
        older = _levels([0.995], lambda a: np.full(3, junk), lambda a: junk)
        alpha = frac * alphas[-1]
        got_v, got_m = _predicted_start(older + _levels(alphas, v, m), alpha)
        scale = max(np.max(np.abs(v(a))) + abs(m(a)) for a in alphas)
        assert got_v[0] == 0.0
        np.testing.assert_allclose(got_v, v(alpha), rtol=0, atol=1e-12 * scale)
        assert abs(got_m - m(alpha)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2, unique=True),
           frac=st.floats(0.0, 1.0), c=coefficients)
    def test_two_levels_are_exact_on_lines(self, alphas, frac, c):
        alphas = sorted(alphas, reverse=True)
        assume(alphas[0] - alphas[1] >= 0.05)

        def v(a):
            return np.array([0.0, c[0] + c[1] * a, c[2] + c[3] * a])

        def m(a):
            return c[4] - 3.0 * a

        alpha = frac * alphas[-1]
        got_v, got_m = _predicted_start(_levels(alphas, v, m), alpha)
        scale = max(np.max(np.abs(v(a))) + abs(m(a)) for a in alphas)
        np.testing.assert_allclose(got_v, v(alpha), rtol=0, atol=1e-12 * scale)
        assert abs(got_m - m(alpha)) <= 1e-12 * scale

    def test_one_level_gives_its_own_pair(self):
        (level,) = _levels([0.5], lambda a: np.array([0.0, 1.25, -3.5]), lambda a: 0.75)
        v, m = _predicted_start([level], 0.25)
        assert np.array_equal(v, level.wbar) and m == level.lam


class TestPredictedSweep:
    """Against the start it replaced (the previous level's v, m guessed as
    0), the predicted start reaches the same answer in fewer iterations."""

    @pytest.mark.parametrize("schedule", [
        nl.AlphaSchedule(max_levels=25),
        nl.AlphaSchedule(explicit=(0.5, 0.3, 0.1, 0.07, 0.02, 0.011, 0.004, 0.001, 3e-4,
                                   2e-4, 5e-5, 1e-5, 4e-6, 1e-6, 3e-7, 1e-7)),
    ], ids=["geometric", "uneven"])
    def test_fewer_iterations_same_answer(self, monkeypatch, schedule):
        import nlhjb.ergodic as erg
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        dom = nl.DomainConfig(d=1, hx=0.25, radii=(8.0, 16.0, 32.0))
        got = nl.vanishing_discount(p, dom, schedule, 1e-6, solver_tol=1e-9)
        monkeypatch.setattr(erg, "_predicted_start",
                            lambda levels, alpha: (levels[-1].wbar, 0.0))
        was = nl.vanishing_discount(p, dom, schedule, 1e-6, solver_tol=1e-9)
        assert got.converged and was.converged
        assert len(got.alpha_trace) == len(was.alpha_trace)
        assert abs(got.lambda_star - was.lambda_star) <= 1e-12
        assert got.counts.linear_solves["splu"] == was.counts.linear_solves["splu"] == 0
        assert got.counts.krylov_iterations < was.counts.krylov_iterations


def _sweep(p):
    sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-4, solver_tol=1e-8)
    return sol, sol.counts


def _ladder(p):
    sol, _, _, counts = nl.expand_domain(
        p, 0.25, nl.DomainConfig(d=1, hx=0.5, radii=(4.0, 8.0, 16.0)), 1e-12)
    return sol, counts


class TestSolveCounts:
    """The ``counts`` total of a sweep or a ladder is the exact sum of its Howard
    solves, and each Howard solve's ``counts`` is its own."""

    RUNS = {"vanishing_discount": ("solve_normalized", _sweep),
            "expand_domain": ("solve_policy_iteration", _ladder)}

    @pytest.mark.parametrize("fail_first", [False, True])
    @pytest.mark.parametrize("driver", sorted(RUNS))
    def test_counts_sum_every_howard_solve(self, monkeypatch, driver, fail_first):
        import nlhjb.ergodic as erg
        name, run = self.RUNS[driver]
        solve, bicgstab, made, calls = getattr(erg, name), spla.bicgstab, [], []

        def recording(*args, **kwargs):
            out = solve(*args, **kwargs)
            made.append((out.iterations, out.counts))
            return out

        def fail_first_call(A, b, *args, **kwargs):
            calls.append(A)
            if fail_first and len(calls) == 1:
                return np.zeros_like(b), 1
            return bicgstab(A, b, *args, **kwargs)

        monkeypatch.setattr(erg, name, recording)
        monkeypatch.setattr(spla, "bicgstab", fail_first_call)
        sol, total = run(nl.power_drift_problem(1.6, 0.1, 1, 0.9))
        assert sol.converged and len(made) >= 3
        for iterations, counts in made:
            assert sum(counts.linear_solves.values()) == iterations
        assert vars(total) == {
            "linear_solves": {tag: sum(c.linear_solves[tag] for _, c in made)
                              for tag in ("bicgstab", "splu")},
            "krylov_iterations": sum(c.krylov_iterations for _, c in made),
            "near_factors": sum(c.near_factors for _, c in made)}
        assert total.linear_solves["splu"] == int(fail_first)
        assert total.krylov_iterations > made[-1][1].krylov_iterations


@pytest.fixture(scope="module")
def power_run():
    p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
    sol = nl.vanishing_discount(p, DOM1, SCHED, 1e-5, solver_tol=1e-9)
    return p, sol


class TestTraceChecks:
    def test_bar_w_bound_passes(self, power_run):
        p, sol = power_run
        rep = nl.check_bar_w_bound(sol.alpha_trace, p, sol.grid,
                                   DOM1.window_radius)
        assert rep.ok

    def test_bar_w_bound_detects_injection(self, power_run):
        p, sol = power_run
        V = p.lyapunov.V(sol.grid.nodes)
        fake = dataclasses.replace(sol.alpha_trace[-1])
        fake.wbar = 2.0 * V + 50.0
        levels = sol.alpha_trace[:-1] + [fake]
        rep = nl.check_bar_w_bound(levels, p, sol.grid, DOM1.window_radius)
        assert not rep.ok

    def test_lambda_bound_holds_with_certificate(self, power_run):
        # k0 comes from a certificate grid wide enough for the decay regime
        p, sol = power_run
        gc = nl.build_grid(1, 0.25, 32.0)
        qc = nl.build_quadrature(gc, 0.9, 33.0)
        cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, gc, qc),
                               p.lyapunov, gc)
        assert cert.ok
        rep = nl.check_lambda_bound(sol.alpha_trace, p, sol.grid, cert.k0)
        assert rep.ok

    def test_verify_ergodic_pair(self, power_run):
        p, sol = power_run
        rep = verify_ergodic_pair(sol, p, DOM1, SCHED, 1e-5,
                                  uniqueness_probe=True)
        assert rep.residual_ok
        assert rep.probe_ok
        assert rep.probe_lambda_diff <= 5e-5

    def test_verify_reuses_the_final_operator(self, power_run, monkeypatch):
        import nlhjb.ergodic as erg

        def no_assembly(*args, **kwargs):
            raise AssertionError("final radius assembled again")

        monkeypatch.setattr(erg, "assemble", no_assembly)
        p, sol = power_run
        assert sol.operator.grid is sol.grid
        rep = verify_ergodic_pair(sol, p, DOM1, SCHED, 1e-5,
                                  uniqueness_probe=False)
        assert rep.residual_ok

    def test_bar_w_needs_two_levels(self, power_run):
        p, sol = power_run
        with pytest.raises(ValueError, match="two alpha levels"):
            nl.check_bar_w_bound(sol.alpha_trace[:1], p, sol.grid, 1.0)


class TestAlphaSchedule:
    def test_explicit_must_decrease(self):
        with pytest.raises(ValueError):
            nl.AlphaSchedule(explicit=(0.25, 0.5))
        with pytest.raises(ValueError):
            nl.AlphaSchedule(explicit=(1.5, 0.5))

    def test_explicit_iteration(self):
        s = nl.AlphaSchedule(explicit=(0.5, 0.25))
        assert list(s.alphas()) == [0.5, 0.25]


class TestManufacturedPair:
    """Independent end-to-end check: drift -theta*x with the symbol-normalised
    kernel makes (cos(x)-1, lam_t) an exact ergodic pair for the manufactured
    cost g = lam_t + cos(x) - theta*x*sin(x)."""

    def run_case(self, hx):
        s, theta, lam_t = 0.75, 0.5, 0.7
        kval = fractional_laplacian_constant(1, s) / 2.0
        ell = kval / (2 - 2 * s)

        def g(x):
            r = np.asarray(x, float)[..., 0]
            return lam_t + np.cos(r) - theta * r * np.sin(r)

        p = nl.ControlProblem(
            controls=("ou",),
            kernel=nl.KernelSpec(s=s, lambda_ell=ell, Lambda_ell=ell,
                                 k=nl.constant_kernel(kval)),
            drift=(lambda x: -theta * np.asarray(x, float),),
            cost=(g,))
        dom = nl.DomainConfig(d=1, hx=hx, radii=(8.0, 16.0))
        sol = nl.vanishing_discount(p, dom, nl.AlphaSchedule(max_levels=22),
                                    1e-6, solver_tol=1e-9)
        assert sol.converged
        win = np.flatnonzero(sol.grid.radii() <= 2.0)
        phi = np.cos(sol.grid.nodes[win, 0]) - 1.0
        return (abs(sol.lambda_star - lam_t),
                float(np.max(np.abs(sol.u[win] - phi))))

    def test_recovers_known_pair_and_improves_under_refinement(self):
        dlam_c, du_c = self.run_case(0.25)
        dlam_f, du_f = self.run_case(0.125)
        assert dlam_c <= 3e-2 and dlam_f <= 3e-2
        assert du_c <= 8e-2 and du_f <= 8e-2
        assert dlam_f < 0.9 * dlam_c
        assert du_f < 0.7 * du_c
