import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhjb import (ControlProblem, KernelSpec, MixedSpec, assemble,
                   build_grid, build_quadrature, constant_cost_problem, constant_kernel,
                   power_drift_problem, validate_problem)

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

    def test_nan_theta_names_its_own_rule(self):
        with pytest.raises(ValueError, match=r"^theta=nan violates theta >= 0$"):
            power_drift_problem(1.6, float("nan"), 1, 0.9)

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


@pytest.mark.parametrize("s, lam, Lam, field", [
    (1.5, 1.0, 1.0, "s"), (0.3, 1.0, 1.0, "s"), (float("nan"), 1.0, 1.0, "s"),
    (0.75, -1.0, 1.0, "lambda_ell"), (0.75, 0.0, 1.0, "lambda_ell"),
    (0.75, float("nan"), 1.0, "lambda_ell"), (0.75, 2.0, 1.0, "Lambda_ell"),
    (0.75, 1.0, float("inf"), "Lambda_ell")])
def test_kernel_class_outside_its_range_is_rejected(s, lam, Lam, field):
    # s in (1/2, 1) and 0 < lambda_ell <= Lambda_ell < inf, the field named
    with pytest.raises(ValueError, match=f"^{field} must"):
        KernelSpec(s=s, lambda_ell=lam, Lambda_ell=Lam, k=constant_kernel(0.5))


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

    def test_kernel_bounds_read_at_the_tail_probes(self):
        # the kernel leaves the band only beyond |y| = 10: at the tail probe
        # R_c = 15, never at a half offset (|y| <= R_far = 5); assembly
        # reads it there, so validation must too
        s = 0.75

        def k(x, y):
            x, y = np.asarray(x, float), np.asarray(y, float)
            return 0.5 + 4.5 * (np.abs(y[..., 0]) > 10.0) + 0.0 * x[..., 0]

        p = ControlProblem(
            controls=("a",),
            kernel=KernelSpec(s=s, lambda_ell=0.9, Lambda_ell=1.1, k=k),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = build_grid(1, 0.5, 4.0)
        q = build_quadrature(g, s, 5.0)
        assert q.tail_probe_radius == 15.0
        chk = validate_problem(p, g, q).check("kernel-bounds")
        assert not chk.passed
        assert chk.witness[2] == (15.0,)
        with pytest.raises(ValueError, match=r"kernel value 5 .* y=\(15.0,\)"):
            assemble(p, g, q, None)

    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_mirror_fails_symmetry(self, d):
        # k(x, y) is finite at every y read (y1 >= 0), k(x, -y) is NaN: an
        # infinite gap, not a pair left out
        from nlhjb.expressions import compile_kernel_field

        s = 0.75
        p = ControlProblem(
            controls=("a",),
            kernel=KernelSpec(s=s, lambda_ell=0.9, Lambda_ell=1.1,
                              k=compile_kernel_field("0.5+0.01*sqrt(y1)", d)),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = build_grid(d, 0.5, 2.0)
        q = build_quadrature(g, s, 3.0)
        with np.errstate(invalid="ignore"):
            chk = validate_problem(p, g, q).check("kernel-symmetry")
        assert not chk.passed
        assert chk.detail.endswith("= inf")
        assert chk.witness[2][0] > 0

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


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("field", ["kernel", "a", "levy_kernel"])
def test_per_control_sequences_must_match_the_control_count(field, count):
    # two controls; a sequence of one or three fields is rejected at
    # construction, not left to an index error (or ignored) at assembly
    k = constant_kernel(0.5)
    kernel = KernelSpec(s=0.75, lambda_ell=1.0, Lambda_ell=1.0,
                        k=(k,) * count if field == "kernel" else k)
    mixed = None
    if field != "kernel":
        mixed = MixedSpec(a=(_eye,) * count if field == "a" else _eye,
                          levy_kernel=(k,) * count if field == "levy_kernel" else None)
    with pytest.raises(ValueError, match=f"^{field} fields must match the control count$"):
        ControlProblem(controls=("a", "b"), kernel=kernel, mixed=mixed,
                       drift=(lambda x: np.zeros_like(x),) * 2,
                       cost=(lambda x: np.zeros(np.shape(x)[:-1]),) * 2)


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


def _power_2d_with(**lyapunov):
    p = power_drift_problem(1.6, 0.1, 2, 0.9)
    return dataclasses.replace(p, lyapunov=dataclasses.replace(p.lyapunov, **lyapunov))


def test_integrability_without_gamma_is_a_lattice_estimate():
    p = _power_2d_with(gamma=None)
    g = build_grid(2, 0.5, 4.0)
    chk = validate_problem(p, g, build_quadrature(g, 0.9, 5.0)).check("lyapunov-integrability")
    assert chk.passed
    assert chk.detail == "lattice estimate of ∫ V^(1+mu) ω_s = 2.411"


def test_decreasing_V_fails_inf_compact_with_the_last_ray():
    # V falls along every ray; the witness is the last ray scanned
    p = _power_2d_with(V=lambda x: 10.0 / (1.0 + np.linalg.norm(np.asarray(x, float), axis=-1)))
    g = build_grid(2, 0.5, 4.0)
    chk = validate_problem(p, g, build_quadrature(g, 0.9, 5.0)).check("lyapunov-inf-compact")
    assert not chk.passed
    assert chk.witness == ("V", 1, -1)


def test_negative_V_is_hard_error():
    p = _power_2d_with(V=lambda x: np.full(np.asarray(x).shape[:-1], -1.0))
    g = build_grid(2, 0.5, 3.0)
    with pytest.raises(ValueError, match="^Lyapunov fields must be nonnegative$"):
        validate_problem(p, g, build_quadrature(g, 0.9, 4.0))


def _eye(x):
    x = np.atleast_2d(np.asarray(x, float))
    return np.broadcast_to(np.eye(x.shape[1]), (x.shape[0], x.shape[1], x.shape[1])).copy()


def _flat(x):
    # zero eigenvalue along x2
    out = _eye(x)
    out[:, 1, 1] = 0.0
    return out


@pytest.mark.parametrize("a, witness", [
    ((_flat, _eye), "tau0"), ((_eye, _flat), "tau1"), ((_flat, _flat), "tau1")])
def test_kernel_free_ellipticity_names_the_last_degenerate_control(a, witness):
    p = constant_cost_problem(1.0, 2, local_identity=True)
    p = dataclasses.replace(p, mixed=MixedSpec(a=a))
    g = build_grid(2, 0.5, 3.0)
    chk = validate_problem(p, g, build_quadrature(g, 0.75, 4.0)).check("mixed-ellipticity")
    assert not chk.passed
    assert chk.detail == "max eigenvalue excursion 1.000e+00"
    assert chk.witness == (witness, (-3.0, 0.0))


def test_negative_levy_kernel_is_hard_error():
    p = constant_cost_problem(1.0, 2, local_identity=True)

    def majorant(y):
        return np.exp(-np.linalg.norm(y, axis=-1))

    p = dataclasses.replace(p, mixed=MixedSpec(
        a=_eye, levy_kernel=lambda x, y: -majorant(y) + 0.0 * np.asarray(x)[..., 0],
        levy_majorant=majorant))
    g = build_grid(2, 0.5, 3.0)
    with pytest.raises(ValueError, match="^Lévy kernel negative on sampled points$"):
        validate_problem(p, g, build_quadrature(g, 0.75, 4.0))


def test_report_check_of_an_unknown_name_is_a_key_error():
    p = power_drift_problem(1.6, 0.1, 1, 0.9)
    g = build_grid(1, 0.5, 4.0)
    rep = validate_problem(p, g, build_quadrature(g, 0.9, 5.0))
    with pytest.raises(KeyError, match="mixed-ellipticity"):
        rep.check("mixed-ellipticity")
