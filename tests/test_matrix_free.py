"""The FFT jump path for x-independent kernels against the CSR oracle.

``assemble`` applies the jump part of constant-kernel problems as a lattice
convolution; ``op.csr()`` builds the explicit stencils of the same operator.
Every quantity the solvers read from the fast operator must agree with the
oracle to 1e-10 relative.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import nlhjb as nl
from nlhjb.discounted import _MatrixFreeSystem, _policy_system
from nlhjb.lyapunov import _jump_on_V
from nlhjb.operators import apply_control

from conftest import smooth_drift, smooth_field

REL = 1e-10


def assert_rel_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(np.asarray(got) - want))) <= REL * scale


def constant_kernel_problem(seed, d, s, kvals, zeroth=False):
    rng = np.random.default_rng(seed)
    n = len(kvals)
    zs = None
    if zeroth:
        zs = tuple((lambda x, f=smooth_field(rng, d, 0.3): -0.3 - np.abs(f(x)))
                   for _ in range(n))
    return nl.ControlProblem(
        controls=tuple(f"tau{i}" for i in range(n)),
        kernel=nl.KernelSpec(s=s, lambda_ell=0.5, Lambda_ell=1.5,
                             k=tuple(nl.constant_kernel(k) for k in kvals)),
        drift=tuple(smooth_drift(rng, d) for _ in range(n)),
        cost=tuple(smooth_field(rng, d) for _ in range(n)),
        zeroth=zs)


def exterior_rule(kind, seed, d):
    if kind == "zero":
        return nl.ExteriorRule.zero()
    if kind == "constant":
        return nl.ExteriorRule.constant(0.7)
    return nl.ExteriorRule.function(smooth_field(np.random.default_rng(seed + 1), d))


@st.composite
def fast_operators(draw):
    d = draw(st.sampled_from([1, 2]))
    s = draw(st.floats(0.55, 0.95))
    hx = draw(st.sampled_from([0.125, 0.25, 0.5] if d == 1 else [0.25, 0.5]))
    R = draw(st.floats(4 * hx, 5.0 if d == 1 else 2.5))
    margin = draw(st.floats(1.0, 2.0))
    reg = draw(st.one_of(st.none(), st.floats(2 * hx, 2 * hx + 0.5)))
    n = draw(st.integers(1, 3))
    kvals = [draw(st.floats(0.5, 1.5)) * (2 - 2 * s) for _ in range(n)]
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["zero", "constant", "function"]))
    p = constant_kernel_problem(seed, d, s, kvals)
    g = nl.build_grid(d, hx, R)
    q = nl.build_quadrature(g, s, R + margin, reg)
    op = nl.assemble(p, g, q, exterior_rule(kind, seed, d), alpha=0.4)
    return op, seed


class TestOperatorOracle:
    @settings(max_examples=30, deadline=None)
    @given(case=fast_operators())
    def test_apply_diagonal_and_exterior_match_csr(self, case):
        op, seed = case
        assert op.jump is not None
        ref = op.csr()
        assert ref.jump is None and ref.csr() is ref
        u = np.random.default_rng(seed).normal(size=op.n_nodes)
        for t in range(len(op.controls)):
            assert_rel_close(apply_control(op, t, u), apply_control(ref, t, u))
            assert_rel_close(op.diagonal(t), ref.matrix(t).diagonal())
            assert_rel_close(op.ext_const[t], ref.ext_const[t])
        vmin, policy = nl.apply_inf(op, u)
        assert_rel_close(vmin, nl.apply_inf(ref, u)[0])

    @settings(max_examples=30, deadline=None)
    @given(case=fast_operators(), data=st.data())
    def test_frozen_policy_operator_matches_csr_system(self, case, data):
        op, seed = case
        policy = np.array(data.draw(st.lists(
            st.integers(0, len(op.controls) - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A, const = _policy_system(op, policy)
        ref, ref_const = _policy_system(op.csr(), policy)
        assert isinstance(A, _MatrixFreeSystem)
        x = np.random.default_rng(seed).normal(size=op.n_nodes)
        assert_rel_close(A @ x, ref @ x)
        assert_rel_close(A.diagonal(), ref.diagonal())
        assert_rel_close(const, ref_const)

    def test_x_dependent_kernels_keep_csr(self):
        from conftest import random_problem
        p = random_problem(3, vary_kernel=True)
        g = nl.build_grid(1, 0.25, 3.0)
        q = nl.build_quadrature(g, 0.75, 4.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.4)
        assert op.jump is None and op.csr() is op

    def test_negative_kernel_rejected(self):
        p = constant_kernel_problem(1, 1, 0.75, [0.5, -0.1])
        g = nl.build_grid(1, 0.25, 2.0)
        q = nl.build_quadrature(g, 0.75, 3.0)
        with pytest.raises(nl.MonotonicityError, match="tau1"):
            nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.4)


class TestSolves:
    @settings(max_examples=15, deadline=None)
    @given(case=fast_operators())
    def test_policy_iteration_matches_csr_operator(self, case):
        # With c <= -0.4 the discrete comparison principle bounds the gap by
        # the two final residuals (plus the apply difference) over 0.4.  Some
        # draws stall a little above tol on either path, by rounding luck,
        # so the bound uses the residuals actually reached.
        op, _ = case
        fast = nl.solve_policy_iteration(op, 1e-9)
        ref = nl.solve_policy_iteration(op.csr(), 1e-9)
        assert max(fast.residual_inf_norm, ref.residual_inf_norm) <= 1e-7
        gap = float(np.max(np.abs(fast.w - ref.w)))
        assert gap <= (fast.residual_inf_norm + ref.residual_inf_norm + 1e-10) / 0.4

    @settings(max_examples=15, deadline=None)
    @given(d=st.sampled_from([1, 2]), seed=st.integers(0, 10_000),
           bump=st.floats(0.0, 1.0))
    def test_comparison_principle(self, d, seed, bump):
        # g1 <= g2 pointwise for every control gives w1 <= w2
        p1 = constant_kernel_problem(seed, d, 0.8, [0.3, 0.5], zeroth=True)
        extra = smooth_field(np.random.default_rng(seed + 2), d)
        p2 = dataclasses.replace(p1, cost=tuple(
            (lambda x, g=g: g(x) + bump * np.abs(extra(x))) for g in p1.cost))
        g = nl.build_grid(d, 0.25 if d == 1 else 0.5, 3.0 if d == 1 else 2.0)
        q = nl.build_quadrature(g, 0.8, g.R + 1.0)
        ext = nl.ExteriorRule.zero()
        op1, op2 = nl.assemble(p1, g, q, ext), nl.assemble(p2, g, q, ext)
        assert op1.jump is not None
        w1 = nl.solve_policy_iteration(op1, 1e-11).w
        w2 = nl.solve_policy_iteration(op2, 1e-11).w
        assert np.all(w1 <= w2 + 1e-9)

    def test_value_iteration_matches_policy_iteration(self):
        p = constant_kernel_problem(5, 1, 0.75, [0.4, 0.6])
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)
        s1 = nl.solve_policy_iteration(op, 1e-11)
        s2 = nl.solve_value_iteration(op, 1e-11)
        assert s2.converged
        assert np.max(np.abs(s1.w - s2.w)) <= 1e-8

    def test_policy_iteration_does_not_stall_on_large_exterior_data(self):
        # Exterior constants near 20: a BiCGStab stop relative to max|rhs|
        # left the Howard residual at 1.9e-9 > tol with no policy change, and
        # the loop re-solved the same system until max_iter on both paths.
        s = 0.5625
        p = constant_kernel_problem(2, 1, s, [k * (2 - 2 * s) for k in (0.6, 0.9, 1.3)])
        g = nl.build_grid(1, 0.125, 0.75)
        q = nl.build_quadrature(g, s, 2.25)
        op = nl.assemble(p, g, q, exterior_rule("function", 2, 1), alpha=0.4)
        assert float(np.max(np.abs(op.ext_const))) > 10.0
        for o in (op, op.csr()):
            sol = nl.solve_policy_iteration(o, 1e-9)
            assert sol.converged
            assert sol.iterations <= 5
            assert sol.residual_inf_norm <= 1e-9
            assert sol.diagnostics["linear_solves"]["splu"] == 0

    def test_bicgstab_failure_falls_back_to_splu_on_csr(self, monkeypatch):
        p = constant_kernel_problem(7, 2, 0.8, [0.3, 0.5])
        g = nl.build_grid(2, 0.5, 2.5)
        q = nl.build_quadrature(g, 0.8, 3.5)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.4)
        want = nl.solve_policy_iteration(op, 1e-11)
        assert want.diagnostics["linear_solves"]["splu"] == 0
        assert op.jump.stencils is None
        bicgstab = spla.bicgstab
        calls = []

        def fail_first(A, b, *args, **kwargs):
            calls.append(A)
            if len(calls) == 1:
                return np.zeros_like(b), 1
            return bicgstab(A, b, *args, **kwargs)

        monkeypatch.setattr(spla, "bicgstab", fail_first)
        got = nl.solve_policy_iteration(op, 1e-11)
        assert isinstance(calls[0], _MatrixFreeSystem)
        assert got.diagnostics["linear_solves"]["splu"] == 1
        assert got.diagnostics["linear_solves"]["bicgstab"] == got.iterations - 1
        assert op.jump.stencils is not None   # the fallback factorised op.csr()
        assert np.max(np.abs(got.w - want.w)) <= 1e-10

    def test_expand_domain_never_builds_csr(self, monkeypatch):
        def no_csr(self):
            raise AssertionError("op.csr() built on the discounted ladder")

        monkeypatch.setattr(nl.DiscreteOperator, "csr", no_csr)
        p = nl.power_drift_problem(1.6, 0.1, 2, 0.9)
        domain = nl.DomainConfig(d=2, hx=0.5, radii=(2.0, 4.0))
        sol = nl.expand_domain(p, 0.5, domain, 1e-9)
        assert sol.converged
        assert sol.diagnostics["linear_solves"]["splu"] == 0
        assert sol.diagnostics["linear_solves"]["bicgstab"] >= 2


class TestLyapunovConvolution:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("gamma_tail", [True, False])
    def test_matches_direct_evaluation(self, d, gamma_tail):
        p = nl.power_drift_problem(1.6, 0.1, d, 0.9)
        ly = p.lyapunov if gamma_tail else dataclasses.replace(p.lyapunov, gamma=None)
        g = nl.build_grid(d, 0.25 if d == 1 else 0.5, 6.0 if d == 1 else 3.0)
        q = nl.build_quadrature(g, 0.9, g.R + 1.5)
        k = 0.37

        def untagged(x, y):
            return nl.constant_kernel(k)(x, y)

        got = _jump_on_V(ly, g, q, nl.constant_kernel(k))
        want = _jump_on_V(ly, g, q, untagged)
        assert_rel_close(got, want)

    def test_certificate_matches_csr_kernel_path(self):
        p = nl.power_drift_problem(1.6, 0.1, 2, 0.9)
        g = nl.build_grid(2, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.9, 5.0)
        slow = dataclasses.replace(p, kernel=dataclasses.replace(
            p.kernel, k=lambda x, y: p.kernel.k(x, y)))
        got = nl.evaluate_lyapunov_drift(p, g, q)
        want = nl.evaluate_lyapunov_drift(slow, g, q)
        assert_rel_close(got, want)
        assert nl.fit_envelope(got, p.lyapunov, g).k0 == pytest.approx(
            nl.fit_envelope(want, p.lyapunov, g).k0, rel=1e-10)
