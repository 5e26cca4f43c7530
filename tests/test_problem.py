import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhjb import (ControlProblem, KernelSpec, build_grid, build_quadrature,
                   constant_kernel, power_drift_problem, validate_problem)

from conftest import random_problem


class TestPowerDriftFamily:
    def test_reference_parameters_accepted(self):
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        assert p.lyapunov.mu == pytest.approx(0.1 / (1.6 * 0.8))
        assert p.lyapunov.mu == pytest.approx(0.078125)
        assert p.lyapunov.envelope_exponent == pytest.approx(0.7)

    def test_gamma_below_window_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            power_drift_problem(1.0, 0.0, 1, 0.6)

    def test_theta_above_limit_rejected(self):
        # (2s-gamma)(2s-1) = 0.2*0.8 = 0.16 at gamma=1.6, s=0.9
        with pytest.raises(ValueError, match="theta"):
            power_drift_problem(1.6, 0.2, 1, 0.9)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            power_drift_problem(1.6, -0.05, 1, 0.9)

    def test_cap_is_c2_at_unit_radius(self):
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        ly = p.lyapunov
        eps = 1e-7
        below = np.array([[1.0 - eps]])
        above = np.array([[1.0 + eps]])
        assert ly.V(below)[0] == pytest.approx(ly.V(above)[0], abs=1e-6)
        assert ly.grad_V(below)[0, 0] == pytest.approx(ly.grad_V(above)[0, 0], abs=1e-5)
        assert ly.hess_V(below)[0, 0, 0] == pytest.approx(ly.hess_V(above)[0, 0, 0], abs=1e-4)

    def test_lyapunov_nonnegative_inside_cap(self):
        p = power_drift_problem(1.6, 0.1, 2, 0.9)
        pts = np.random.default_rng(0).uniform(-1, 1, size=(200, 2))
        assert np.all(p.lyapunov.V(pts) >= 0)

    def test_drift_inward_bound(self):
        # b_tau(x)·x <= -|x|^{theta+1} outside the unit ball, every control
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        x = np.linspace(1.0, 20.0, 50)[:, None]
        for b in p.drift:
            bx = b(x)[:, 0] * x[:, 0]
            assert np.all(bx <= -np.abs(x[:, 0]) ** 1.1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(min_value=0.8, max_value=2.0),
           theta=st.floats(min_value=0.0, max_value=0.5),
           s=st.floats(min_value=0.55, max_value=0.95))
    def test_constraint_chain_is_enforced(self, gamma, theta, s):
        valid = (s + 0.5 < gamma < 2 * s and theta >= 0
                 and theta + gamma - 1 > 0 and theta < (2 * s - gamma) * (2 * s - 1))
        if valid:
            p = power_drift_problem(gamma, theta, 1, s)
            assert p.lyapunov.mu == pytest.approx(theta / (gamma * (2 * s - 1)))
        else:
            with pytest.raises(ValueError):
                power_drift_problem(gamma, theta, 1, s)


class TestValidation:
    def test_constant_kernel_passes_bounds(self):
        s = 0.75
        p = random_problem(3, s=s, vary_kernel=False)
        g = build_grid(1, 0.5, 8.0)
        q = build_quadrature(g, s, 9.0)
        rep = validate_problem(p, g, q)
        assert rep.check("kernel-symmetry").passed
        assert rep.check("kernel-bounds").passed

    def test_sine_kernel_asymmetry_flagged_with_witness(self):
        s = 0.75

        def k(x, y):
            prod = np.asarray(x, float)[..., 0] * np.asarray(y, float)[..., 0]
            return (2 - 2 * s) * (1.0 + 0.5 * np.sin(prod))

        p = ControlProblem(
            controls=("a",),
            kernel=KernelSpec(s=s, lambda_ell=0.5, Lambda_ell=1.5, k=k),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = build_grid(1, 0.5, 4.0)
        q = build_quadrature(g, s, 5.0)
        rep = validate_problem(p, g, q)
        chk = rep.check("kernel-symmetry")
        assert not chk.passed
        assert chk.witness is not None

    def test_discounted_sign_records_c_floor(self):
        p = random_problem(5, c_floor=0.1)
        g = build_grid(1, 0.5, 8.0)
        q = build_quadrature(g, 0.75, 9.0)
        chk = validate_problem(p, g, q).check("zeroth-sign")
        assert chk.passed
        assert "0.1" in chk.detail

    def test_nan_cost_is_hard_error(self):
        p = random_problem(6, vary_kernel=False)
        bad = ControlProblem(
            controls=p.controls, kernel=p.kernel, drift=p.drift,
            cost=tuple(lambda x: np.full(np.asarray(x).shape[:-1], np.nan)
                       for _ in p.controls))
        g = build_grid(1, 0.5, 8.0)
        q = build_quadrature(g, 0.75, 9.0)
        with pytest.raises(ValueError, match="NaN"):
            validate_problem(bad, g, q)

    def test_negative_kernel_is_hard_error(self):
        s = 0.75
        p = ControlProblem(
            controls=("a",),
            kernel=KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                              k=constant_kernel(-0.1)),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = build_grid(1, 0.5, 8.0)
        q = build_quadrature(g, s, 9.0)
        with pytest.raises(ValueError, match="negative"):
            validate_problem(p, g, q)

    @pytest.mark.parametrize("R", [8.0, 32.0])
    def test_power_family_passes_structural_checks(self, R):
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        g = build_grid(1, 0.5, R)
        q = build_quadrature(g, 0.9, R + 1.0)
        rep = validate_problem(p, g, q)
        for name in ("kernel-symmetry", "kernel-bounds", "drift-growth",
                     "cost-growth", "lyapunov-inf-compact",
                     "lyapunov-integrability", "cost-dominated"):
            assert rep.check(name).passed, name

    def test_validation_is_deterministic(self):
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        g = build_grid(1, 0.5, 8.0)
        q = build_quadrature(g, 0.9, 9.0)
        assert validate_problem(p, g, q).summary() == validate_problem(p, g, q).summary()

    def test_empty_control_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ControlProblem(controls=(), kernel=None, drift=(), cost=(),
                           mixed=None)


def test_zeroth_growth_ratio_checked_when_discounted():
    p = power_drift_problem(1.6, 0.1, 1, 0.9)
    import dataclasses
    p = dataclasses.replace(
        p, zeroth=tuple(lambda x: np.full(np.asarray(x).shape[:-1], -0.25)
                        for _ in p.controls))
    g = build_grid(1, 0.5, 16.0)
    q = build_quadrature(g, 0.9, 17.0)
    rep = validate_problem(p, g, q)
    assert rep.check("zeroth-growth").passed
    assert rep.check("zeroth-sign").passed


def test_mixed_checks_flagged_with_witness():
    import dataclasses
    from nlhjb import MixedSpec
    p = power_drift_problem(1.6, 0.1, 2, 0.9)   # lambda = Lambda = 1
    g = build_grid(2, 0.5, 3.0)
    q = build_quadrature(g, 0.9, 4.0)

    def a(x, top=1.5):
        # eigenvalue `top` above Lambda only where x1 > 1
        x = np.atleast_2d(np.asarray(x, float))
        out = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
        out[:, 1, 1] = np.where(x[:, 0] > 1.0, top, 1.0)
        return out

    def majorant(y):
        return np.exp(-np.linalg.norm(y, axis=-1))

    def levy(x, y, over=0.5):
        # above the majorant only where x2 > 1
        bump = 1.0 + over * (np.asarray(x, float)[..., 1] > 1.0)
        return bump * majorant(y)

    bad = dataclasses.replace(p, mixed=MixedSpec(a=a, levy_kernel=levy,
                                                 levy_majorant=majorant))
    rep = validate_problem(bad, g, q)
    ell = rep.check("mixed-ellipticity")
    assert not ell.passed
    control, x = ell.witness
    assert control in p.controls and x[0] > 1.0
    maj = rep.check("mixed-majorant")
    assert not maj.passed
    control, x, y = maj.witness
    assert control in p.controls and x[1] > 1.0 and len(y) == 2

    good = dataclasses.replace(p, mixed=MixedSpec(
        a=lambda x: a(x, top=1.0), levy_kernel=lambda x, y: levy(x, y, over=0.0),
        levy_majorant=majorant))
    rep = validate_problem(good, g, q)
    for name in ("mixed-ellipticity", "mixed-majorant"):
        assert rep.check(name).passed and rep.check(name).witness is None
