"""The FFT jump path for kernels that read no y against the CSR oracle.

``assemble`` applies the jump part of constant-kernel and x-only-kernel
problems as a lattice convolution scaled per node; ``op.csr()`` builds the
explicit stencils of the same operator.  Every quantity the solvers read
from the fast operator must agree with the oracle to 1e-10 relative, and
the Krylov bordered (v, m) solves must agree with the augmented-system
oracle: m within the pair's own bordered residual, which -A^{-1} >= 0 makes
exact.  The near-field preconditioner is checked on explicit stencils too.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import nlhjb as nl
from nlhjb import discounted
from nlhjb.config import build_problem, parse_config
from nlhjb.discounted import _solve, _solve_bordered
from nlhjb.lyapunov import _jump_on_V
from nlhjb.operators import BorderedSystem, FrozenSystem, _stacked_inf, apply_control

from conftest import smooth_drift, smooth_field
from oracles import (bordered_reference, build_dense_oracles, dense_fixed_point,
                     stencil_matrix)

REL = 1e-10


def assert_rel_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(np.asarray(got) - want))) <= REL * scale


def constant_kernel_problem(seed, d, s, kvals, zeroth=False, x_only=()):
    """Problem with kernel constants ``kvals``; control t gets the x-only
    kernel kvals[t]·(1 + 0.4·tanh(f_t(x))) instead where ``x_only[t]``.
    The declared band [0.25, 2.5]·(2-2s) holds every kernel the tests draw."""
    rng = np.random.default_rng(seed)
    xrng = np.random.default_rng(seed + 3)
    n = len(kvals)
    zs = None
    if zeroth:
        zs = tuple((lambda x, f=smooth_field(rng, d, 0.3): -0.3 - np.abs(f(x)))
                   for _ in range(n))
    kernels = []
    for t, k in enumerate(kvals):
        if t < len(x_only) and x_only[t]:
            f = smooth_field(xrng, d)
            kernels.append(nl.x_kernel(lambda x, k=k, f=f: k * (1 + 0.4 * np.tanh(f(x)))))
        else:
            kernels.append(nl.constant_kernel(k))
    return nl.ControlProblem(
        controls=tuple(f"tau{i}" for i in range(n)),
        kernel=nl.KernelSpec(s=s, lambda_ell=0.25, Lambda_ell=2.5, k=tuple(kernels)),
        drift=tuple(smooth_drift(rng, d) for _ in range(n)),
        cost=tuple(smooth_field(rng, d) for _ in range(n)),
        zeroth=zs)


def exterior_data(kind, seed, d):
    if kind == "zero":
        return None
    if kind == "constant":
        return lambda x: 0.7
    return smooth_field(np.random.default_rng(seed + 1), d)


@st.composite
def fast_operators(draw):
    """A fast operator and a seed; its 1-3 controls mix constant and x-only
    kernels."""
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
    xs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = constant_kernel_problem(seed, d, s, kvals, x_only=xs)
    g = nl.build_grid(d, hx, R)
    q = nl.build_quadrature(g, s, R + margin, reg)
    op = nl.assemble(p, g, q, exterior_data(kind, seed, d)).with_alpha(0.4)
    return op, seed


@st.composite
def csr_operators(draw):
    """An operator with explicit stencils and a seed: 1-3 controls with
    kernels that read y, the unit local diffusion of ``local_identity``, or
    that diffusion with a Lévy part."""
    kind = draw(st.sampled_from(["y_kernel", "local_identity", "levy"]))
    d = draw(st.sampled_from([1, 2]))
    hx = draw(st.sampled_from([0.25, 0.5] if d == 1 else [0.5]))
    R = draw(st.floats(4 * hx, 4.0 if d == 1 else 2.5))
    seed = draw(st.integers(0, 10_000))
    g = nl.build_grid(d, hx, R)
    q = None if kind == "local_identity" else nl.build_quadrature(g, 0.75, R + 1.0)
    if kind == "y_kernel":
        kvals = [draw(st.floats(0.5, 1.5)) * 0.5 for _ in range(draw(st.integers(1, 3)))]
        p = constant_kernel_problem(seed, d, 0.75, kvals)
        p = dataclasses.replace(p, kernel=dataclasses.replace(p.kernel, k=tuple(
            (lambda x, y, k=k: k * (1 + 0.2 * np.cos(x[..., 0] * y[..., 0])))
            for k in kvals)))
    else:
        p = nl.constant_cost_problem(1.0, d, local_identity=True)
    if kind == "levy":
        power = 1.2 if d == 1 else 2.5

        def levy(x, y):
            r = np.linalg.norm(np.asarray(y, float), axis=-1)
            return np.broadcast_to(np.exp(-r) * r ** -power, np.broadcast_shapes(
                np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()

        p = dataclasses.replace(p, mixed=nl.MixedSpec(
            a=p.mixed.a, levy_kernel=levy, levy_majorant=lambda y: levy(y, y)))
    ext = exterior_data(draw(st.sampled_from(["zero", "constant", "function"])), seed, d)
    op = nl.assemble(p, g, q, ext).with_alpha(0.4)
    assert op.jump is None
    return op, seed


class TestOperatorOracle:
    @settings(max_examples=30, deadline=None)
    @given(case=fast_operators())
    def test_apply_diagonal_and_exterior_match_csr(self, case):
        op, seed = case
        assert op.jump is not None
        ref = op.csr()
        assert ref.jump is None and ref.csr() is ref
        n = op.n_nodes
        u = np.random.default_rng(seed).normal(size=n)
        for t in range(op.problem.n_controls):
            assert_rel_close(apply_control(op, t, u), apply_control(ref, t, u))
            diag = (op.base[t * n:(t + 1) * n].diagonal() + op.c[t]
                    + op.jump.scale[t] * op.jump.conv.diag)
            assert_rel_close(diag, stencil_matrix(ref, t).diagonal())
            assert_rel_close(op.const[t], ref.const[t])
        vmin, policy = nl.apply_inf(op, u)
        assert_rel_close(vmin, nl.apply_inf(ref, u)[0])

    @settings(max_examples=30, deadline=None)
    @given(case=fast_operators(), data=st.data())
    def test_frozen_policy_operator_matches_csr_system(self, case, data):
        op, seed = case
        policy = np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        ref = op.csr().frozen(policy)
        assert A.op.jump is not None and ref.op.jump is None
        x = np.random.default_rng(seed).normal(size=op.n_nodes)
        assert_rel_close(A @ x, ref @ x)
        assert_rel_close(A.near().diagonal(), ref.tocsr().diagonal())
        assert_rel_close(A.const, ref.const)

    def test_x_dependent_kernels_keep_csr(self):
        from conftest import random_problem
        p = random_problem(3, vary_kernel=True)
        g = nl.build_grid(1, 0.25, 3.0)
        q = nl.build_quadrature(g, 0.75, 4.0)
        op = nl.assemble(p, g, q, None).with_alpha(0.4)
        assert op.jump is None and op.csr() is op

    def test_negative_kernel_rejected(self):
        p = constant_kernel_problem(1, 1, 0.75, [0.5, -0.1])
        g = nl.build_grid(1, 0.25, 2.0)
        q = nl.build_quadrature(g, 0.75, 3.0)
        with pytest.raises(nl.MonotonicityError, match="tau1"):
            nl.assemble(p, g, q, None).with_alpha(0.4)


class TestKernelFactors:
    def test_kernels_that_read_y_keep_csr(self):
        from nlhjb.expressions import compile_kernel_field
        assert hasattr(compile_kernel_field("0.5+0.04*cos(x1)*r", 2), "x_field")
        for expr in ("0.5+0.04*cos(x1*y1)", "0.5+0*ry", "0.5+0*y2"):
            kern = compile_kernel_field(expr, 2)
            assert not hasattr(kern, "x_field")
            p = dataclasses.replace(constant_kernel_problem(1, 2, 0.75, [0.5]),
                                    kernel=nl.KernelSpec(0.75, 0.5, 1.5, k=(kern,)))
            g = nl.build_grid(2, 0.5, 2.0)
            op = nl.assemble(p, g, nl.build_quadrature(g, 0.75, 3.0),
                             None).with_alpha(0.4)
            assert op.jump is None

    @pytest.mark.parametrize("kern, message", [
        # x-only kernel (FFT path) negative, then NaN at x1 < 0; x-y kernel
        # (CSR path) NaN where x1*y1 < 0.  NaN < 0 is false, so a sign check
        # alone let NaN through to the solve.
        (nl.x_kernel(lambda x: 0.5 - np.abs(x[..., 0])),
         r"factor -1\.500e\+00 for control tau1 at node \(-2\.0, 0\.0\)"),
        (nl.x_kernel(lambda x: 0.5 + 0.1 * np.sqrt(x[..., 0])),
         r"factor nan for control tau1 at node \(-"),
        (lambda x, y: 0.5 + 0.1 * np.sqrt(x[..., 0] * y[..., 0]),
         r"non-finite stencil weight nan for control tau1 at node \(-"),
    ])
    def test_bad_kernel_value_names_control_and_node(self, kern, message):
        p = constant_kernel_problem(1, 2, 0.75, [0.5, 0.5])
        p = dataclasses.replace(p, kernel=dataclasses.replace(
            p.kernel, k=(nl.constant_kernel(0.5), kern)))
        g = nl.build_grid(2, 0.5, 2.0)
        q = nl.build_quadrature(g, 0.75, 3.0)
        with np.errstate(invalid="ignore"), pytest.raises(nl.MonotonicityError,
                                                          match=message):
            nl.assemble(p, g, q, None).with_alpha(0.4)


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
        gap = float(np.max(np.abs(fast.u - ref.u)))
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
        ext = None
        op1, op2 = nl.assemble(p1, g, q, ext), nl.assemble(p2, g, q, ext)
        assert op1.jump is not None
        w1 = nl.solve_policy_iteration(op1, 1e-11).u
        w2 = nl.solve_policy_iteration(op2, 1e-11).u
        assert np.all(w1 <= w2 + 1e-9)

    def test_value_iteration_matches_policy_iteration(self):
        p = constant_kernel_problem(5, 1, 0.75, [0.4, 0.6])
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        ext = None
        op = nl.assemble(p, g, q, ext).with_alpha(0.5)
        assert op.jump is not None
        s1 = nl.solve_policy_iteration(op, 1e-11)
        w = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=0.5), tol=1e-11)
        assert np.max(np.abs(s1.u - w)) <= 1e-8

    def test_policy_iteration_does_not_stall_on_large_exterior_data(self):
        # Exterior constants near 20: a BiCGStab stop relative to max|rhs|
        # left the Howard residual at 1.9e-9 > tol with no policy change, and
        # the loop re-solved the same system until max_iter on both paths.
        s = 0.5625
        p = constant_kernel_problem(2, 1, s, [k * (2 - 2 * s) for k in (0.6, 0.9, 1.3)])
        g = nl.build_grid(1, 0.125, 0.75)
        q = nl.build_quadrature(g, s, 2.25)
        op = nl.assemble(p, g, q, exterior_data("function", 2, 1)).with_alpha(0.4)
        assert float(np.max(np.abs(op.const))) > 10.0
        for o in (op, op.csr()):
            sol = nl.solve_policy_iteration(o, 1e-9)
            assert sol.converged
            assert sol.iterations <= 5
            assert sol.residual_inf_norm <= 1e-9
            assert sol.counts.linear_solves["splu"] == 0

    def test_bicgstab_failure_falls_back_to_splu_on_csr(self, monkeypatch):
        p = constant_kernel_problem(7, 2, 0.8, [0.3, 0.5])
        g = nl.build_grid(2, 0.5, 2.5)
        q = nl.build_quadrature(g, 0.8, 3.5)
        op = nl.assemble(p, g, q, None).with_alpha(0.4)
        want = nl.solve_policy_iteration(op, 1e-11)
        assert want.counts.linear_solves["splu"] == 0
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
        assert isinstance(calls[0], FrozenSystem)
        assert got.counts.linear_solves["splu"] == 1
        assert got.counts.linear_solves["bicgstab"] == got.iterations - 1
        assert op.jump.stencils is not None   # the fallback factorised op.csr()
        assert np.max(np.abs(got.u - want.u)) <= 1e-10

    def test_drifted_answer_is_restarted_not_sent_to_lu(self, monkeypatch):
        # BiCGStab can report convergence while its true residual is far above
        # atol; one restart from that answer must keep the Krylov solve
        op = bordered_operator(8).with_alpha(0.4)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        atol = 1e-10
        bicgstab = spla.bicgstab
        starts = []

        def drifting(A, b, *args, **kwargs):
            x, info = bicgstab(A, b, *args, **kwargs)
            starts.append(kwargs.get("x0"))
            return (x + 1e-6 if len(starts) == 1 else x), info

        monkeypatch.setattr(spla, "bicgstab", drifting)
        x, tag = _solve(A, -A.const, atol, atol, 500)
        assert tag == "bicgstab"
        assert len(starts) == 2 and starts[0] is None and starts[1] is not None
        assert float(np.max(np.abs(A @ x + A.const))) <= atol

    def test_expand_domain_never_builds_csr(self, monkeypatch):
        def no_csr(self):
            raise AssertionError("op.csr() built on the discounted ladder")

        monkeypatch.setattr(nl.DiscreteOperator, "csr", no_csr)
        p = nl.power_drift_problem(1.6, 0.1, 2, 0.9)
        domain = nl.DomainConfig(d=2, hx=0.5, radii=(2.0, 4.0))
        sol, _, _ = nl.expand_domain(p, 0.5, domain, 1e-9)
        assert sol.converged
        assert sol.counts.linear_solves["splu"] == 0
        assert sol.counts.linear_solves["bicgstab"] >= 2


def bordered_operator(seed, d=2, x_only=(True, False), R=4.0):
    """Zero-exterior fast operator of the kind the ergodic sweep solves on."""
    p = constant_kernel_problem(seed, d, 0.8, [0.3, 0.5], x_only=x_only)
    g = nl.build_grid(d, 0.5, R)
    return nl.assemble(p, g, nl.build_quadrature(g, 0.8, R + 1.0),
                       None)


class TestBorderedKrylov:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(1e-6, 0.5),
           x_only=st.sampled_from([(True, False), (True, True), (False, False)]),
           data=st.data())
    def test_pair_matches_direct_solve_within_bound(self, seed, alpha, x_only, data):
        op = bordered_operator(seed, x_only=x_only).with_alpha(alpha)
        policy = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        i0, atol = op.grid.origin_index, 1e-10
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        assert tag == "bicgstab"
        assert v[i0] == 0.0
        # -A^{-1} >= 0, so m is within the pair's bordered residual (at most
        # atol) of the exact m; the oracle's own error is far below that
        assert abs(m - m_ref) <= float(np.max(np.abs(A @ v - m + A.const))) + 1e-12
        assert abs(m - m_ref) <= atol + 1e-12
        assert float(np.max(np.abs(v - v_ref))) <= atol + 1e-12

    def test_nan_with_info_zero_falls_back(self, monkeypatch):
        # the answer is exactly the direct LU's of the bordered system, forced here
        op = bordered_operator(3).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        with mock.patch.object(discounted, "_krylov", return_value=None):
            want = _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)
        assert want[2] == "splu"
        monkeypatch.setattr(spla, "bicgstab",
                            lambda A, b, *a, **kw: (np.full(np.shape(b), np.nan), 0))
        v, m, tag = _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)
        assert tag == "splu"
        assert np.array_equal(v, want[0]) and m == want[1]

    def test_capped_solve_falls_back_after_one_attempt(self, monkeypatch):
        op = bordered_operator(4).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        calls = []

        def capped(A, b, *args, **kwargs):
            calls.append(kwargs["maxiter"])
            return np.zeros_like(b), kwargs["maxiter"]

        monkeypatch.setattr(spla, "bicgstab", capped)
        _, _, tag = _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)
        assert tag == "splu"
        assert calls == [-(-op.n_nodes // 4)]

    def test_drifted_residual_is_restarted_not_sent_to_lu(self, monkeypatch):
        # BiCGStab can report convergence while its true residual is far above
        # the target; one restart from that answer must keep the Krylov pair
        op = bordered_operator(7).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        i0, atol = op.grid.origin_index, 1e-10
        bicgstab = spla.bicgstab
        cold = []

        def drifting(A, b, *args, **kwargs):
            x, info = bicgstab(A, b, *args, **kwargs)
            cold.append(kwargs.get("x0") is None)
            return (x + 1e-6 if len(cold) == 1 else x), info

        monkeypatch.setattr(spla, "bicgstab", drifting)
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        assert tag == "bicgstab"
        # one eliminated solve: the drifted cold start and its restart
        assert cold == [True, False]
        assert abs(m - m_ref) <= atol + 1e-12
        assert float(np.max(np.abs(v - v_ref))) <= atol + 1e-12

    def test_converged_solve_calls_bicgstab_once(self, monkeypatch):
        op = bordered_operator(2).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        bicgstab = spla.bicgstab
        calls = []

        def counting(A, b, *args, **kwargs):
            calls.append(A)
            return bicgstab(A, b, *args, **kwargs)

        monkeypatch.setattr(spla, "bicgstab", counting)
        v, m, tag = _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)
        assert tag == "bicgstab"
        assert len(calls) == 1 and isinstance(calls[0], BorderedSystem)
        assert float(np.max(np.abs(A @ v - m + A.const))) <= 1e-10

    def test_answer_between_target_and_rule_is_kept_after_one_call(self, monkeypatch):
        # The Krylov target is atol/100, the acceptance rule atol: an answer
        # whose true residual lies between the two passes the rule, so it is
        # kept as it is, with no restart
        op = bordered_operator(7).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        i0, atol = op.grid.origin_index, 1e-10
        B = A.bordered(i0)
        bicgstab = spla.bicgstab
        calls = []

        def above_target(A, b, *args, **kwargs):
            x, info = bicgstab(A, b, *args, **kwargs)
            calls.append(info)
            return x + 1e-12, 0

        monkeypatch.setattr(spla, "bicgstab", above_target)
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)
        x = v.copy()
        x[i0] = m
        r = float(np.max(np.abs(B @ x + A.const)))
        assert tag == "bicgstab" and len(calls) == 1
        assert atol / 100 < r <= atol

    def test_breakdown_at_round_off_keeps_the_pair(self, monkeypatch):
        # A restart from an answer just above the target can break down
        # (info < 0) at the FFT round-off floor; the answer it returns is
        # judged by the bordered residual rule, not sent to sparse LU
        op = bordered_operator(7).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        i0, atol = op.grid.origin_index, 1e-10
        bicgstab = spla.bicgstab
        infos = []

        def breaking(A, b, *args, **kwargs):
            x, info = bicgstab(A, b, *args, **kwargs)
            infos.append(info)
            return (x + 1e-11, 0) if len(infos) == 1 else (x, -10)

        monkeypatch.setattr(spla, "bicgstab", breaking)
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        assert tag == "bicgstab" and len(infos) == 2
        assert abs(m - m_ref) <= atol + 1e-12
        assert float(np.max(np.abs(v - v_ref))) <= atol + 1e-12

    def test_normalized_solve_matches_csr_path(self):
        op = bordered_operator(5)
        fast = nl.solve_normalized(op, 0.05, 1e-9)
        ref = nl.solve_normalized(op.csr(), 0.05, 1e-9)
        assert fast.counts.linear_solves == {"bicgstab": fast.iterations, "splu": 0}
        assert ref.counts.linear_solves == {"bicgstab": ref.iterations, "splu": 0}
        assert np.array_equal(fast.policy, ref.policy)
        assert abs(fast.m - ref.m) <= 1e-10
        assert float(np.max(np.abs(fast.u - ref.u))) <= 1e-10

    def test_monotone_improvement(self, monkeypatch):
        # Howard on the bordered system: m_{k+1} <= m_k, because -A is a
        # nonsingular M-matrix and v(origin) = 0 pins the shift
        solved = []

        def recording(*args, **kwargs):
            out = _solve_bordered(*args, **kwargs)
            solved.append(out[1:])
            return out

        monkeypatch.setattr(discounted, "_solve_bordered", recording)
        op = bordered_operator(6, x_only=(True, True))
        sol = nl.solve_normalized(op, 0.02, 1e-9)
        assert sol.converged and len(solved) >= 2
        assert all(tag == "bicgstab" for _, tag in solved)
        ms = [m for m, _ in solved]
        assert all(b <= a + 1e-9 for a, b in zip(ms, ms[1:]))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), bump=st.floats(0.0, 1.0))
    def test_comparison_principle(self, seed, bump):
        # g1 <= g2 for every control gives m1 <= m2
        op1 = bordered_operator(seed)
        extra = smooth_field(np.random.default_rng(seed + 2), 2)
        p2 = dataclasses.replace(op1.problem, cost=tuple(
            (lambda x, g=g: g(x) + bump * np.abs(extra(x))) for g in op1.problem.cost))
        op2 = nl.assemble(p2, op1.grid, op1.quadrature, None)
        s1 = nl.solve_normalized(op1, 0.05, 1e-9)
        s2 = nl.solve_normalized(op2, 0.05, 1e-9)
        assert s1.counts.linear_solves["splu"] == s2.counts.linear_solves["splu"] == 0
        assert s1.m <= s2.m + 1e-9


class TestNearField:
    """The near field P of a frozen-policy system, BiCGStab's preconditioner."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(fast_operators(), csr_operators()), data=st.data())
    def test_matches_csr_oracle_and_is_an_m_matrix(self, case, data):
        op, _ = case
        policy = np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        ref = op.csr().frozen(policy).tocsr().toarray()
        lat = op.grid.lattice
        ring = np.abs(lat[:, None, :] - lat[None, :, :]).max(axis=-1) <= 1
        want = np.where(ring, ref, 0.0)
        P = A.near().toarray()
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(P - want))) <= 1e-12 * scale
        # -P is an M-matrix: P's off-diagonals are >= 0 and -P is strictly
        # diagonally dominant by rows
        off = P - np.diag(np.diag(P))
        assert off.min() >= 0.0
        assert np.all(-np.diag(P) > off.sum(axis=1))

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(fast_operators(), csr_operators()), data=st.data())
    def test_bordered_preconditioner_inverts_eliminated_near_field(self, case, data):
        # The bordered preconditioner solves P with column i0 set to -1, the
        # elimination of v(origin) into m, against a dense oracle of P.  The
        # factor and its w = P^{-1} 1 are memoized per policy on the operator
        # and shared by its copies: after another policy was factored, each
        # system's preconditioner still inverts its own policy's near field
        op, _ = case
        i0 = op.grid.origin_index
        policies = [np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64) for _ in range(2)]
        copies = (op, dataclasses.replace(op))
        for k in (0, 1, 0, 0, 1):
            A = copies[k % 2].frozen(policies[k])
            B = A.near().toarray()
            B[:, i0] = -1.0
            got = A.bordered(i0).preconditioner() @ B
            assert float(np.max(np.abs(got - np.eye(op.n_nodes)))) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(fast_operators(), csr_operators()), data=st.data())
    def test_preconditioner_is_p_inverse_with_its_ones(self, case, data):
        # FrozenSystem.preconditioner() owns the near-field factor: it is
        # P^{-1} for P = near(), carries ones = P^{-1} 1, and is one object
        # per policy for with_alpha copies, a fresh one for a csr() copy
        op, _ = case
        policy = np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        P = A.near().toarray()
        inv = A.preconditioner()
        assert float(np.max(np.abs(inv @ P - np.eye(op.n_nodes)))) <= 1e-10
        assert_rel_close(inv.ones, np.linalg.solve(P, np.ones(op.n_nodes)))
        copies = [op.with_alpha(a).frozen(policy.copy()).preconditioner() for a in (0.3, 0.1)]
        assert copies[0] is copies[1] is inv
        if op.jump is not None:
            assert op.csr().frozen(policy).preconditioner() is not inv

    def test_bordered_preconditioner_reads_only_the_owner(self, monkeypatch):
        # any P^{-1} with its ones serves the bordered solve, and the bordered
        # form builds no factor of its own
        op = bordered_operator(7).with_alpha(0.1)
        i0, atol = op.grid.origin_index, 1e-10

        def dense_inverse(self):
            inv = spla.aslinearoperator(np.linalg.inv(self.near().toarray()))
            inv.ones = inv @ np.ones(self.shape[0])
            return inv

        monkeypatch.setattr(FrozenSystem, "preconditioner", dense_inverse)
        calls = counted_splu(monkeypatch)
        A = op.frozen(np.arange(op.n_nodes, dtype=np.int64) % 2)
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)
        assert tag == "bicgstab" and calls == []
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        assert abs(m - m_ref) <= atol + 1e-12
        assert float(np.max(np.abs(v - v_ref))) <= atol + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(fast_operators(), csr_operators()), data=st.data())
    def test_bordered_tocsc_is_the_bordered_system(self, case, data):
        # the sparse-LU fallback factors B.tocsc(): column j must be B e_j,
        # the origin column exactly -1
        op, _ = case
        i0 = op.grid.origin_index
        policy = np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        B = op.frozen(policy).bordered(i0)
        got = B.tocsc()
        assert got.format == "csc"
        got = got.toarray()
        assert np.all(got[:, i0] == -1.0)
        assert_rel_close(got, B @ np.eye(op.n_nodes))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.sampled_from([1, 2]),
           alpha=st.floats(1e-4, 0.5),
           x_only=st.sampled_from([(True, False), (True, True), (False, False)]),
           data=st.data())
    def test_preconditioned_and_jacobi_pairs_agree_within_bound(
            self, seed, d, alpha, x_only, data):
        op = bordered_operator(seed, d=d, x_only=x_only).with_alpha(alpha)
        policy = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        i0, atol = op.grid.origin_index, 1e-10
        v, m, tag = _solve_bordered(A, -A.const, i0, atol)

        def jacobi(self):
            diag = self.A.near().diagonal()
            diag[self.i0] = -1.0
            return sp.diags(1.0 / diag)

        with mock.patch.object(BorderedSystem, "preconditioner", jacobi):
            v_j, m_j, _ = _solve_bordered(A, -A.const, i0, atol)
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        if d == 2:
            assert tag == "bicgstab"
        # each pair's bordered residual is at most atol, which bounds its
        # distance to the exact m (-A^{-1} >= 0); the oracle's own error is
        # far below that, so the two m are within 2 atol
        for got_v, got_m in ((v, m), (v_j, m_j)):
            assert abs(got_m - m_ref) <= atol + 1e-12
            assert float(np.max(np.abs(got_v - v_ref))) <= atol + 1e-12
        assert abs(m - m_j) <= 2 * atol + 1e-12

    def test_one_factor_per_frozen_policy(self, monkeypatch):
        op = bordered_operator(7).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        splu = spla.splu
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        for _ in range(2):
            assert _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)[2] == "bicgstab"
        assert calls == [A.shape]

    def test_same_policy_on_two_alpha_copies_factors_once(self, monkeypatch):
        # with_alpha copies share the jump part and with it the memo, so the
        # next alpha level's solve on the same policy reuses the factor
        op = bordered_operator(7)
        policy = np.zeros(op.n_nodes, dtype=np.int64)
        calls = counted_splu(monkeypatch)
        for alpha in (0.2, 0.1):
            A = op.with_alpha(alpha).frozen(policy.copy())
            assert _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)[2] == "bicgstab"
        assert len(calls) == 1
        assert op.near_factor.count == 1

    def test_changed_policy_gets_a_new_factor(self, monkeypatch):
        op = bordered_operator(7).with_alpha(0.1)
        i0 = op.grid.origin_index
        calls = counted_splu(monkeypatch)
        first = np.zeros(op.n_nodes, dtype=np.int64)
        second = first.copy()
        second[i0] = 1
        for policy in (first, second, first):
            A = op.frozen(policy)
            assert _solve_bordered(A, -A.const, i0, 1e-10)[2] == "bicgstab"
            assert op.near_factor.key == policy.tobytes()
        assert len(calls) == 3

    def test_each_radius_has_its_own_factor(self, monkeypatch):
        ops = [bordered_operator(7, R=R).with_alpha(0.1) for R in (3.0, 4.0)]
        calls = counted_splu(monkeypatch)
        for op in ops + ops:
            A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
            assert _solve_bordered(A, -A.const, op.grid.origin_index, 1e-10)[2] == "bicgstab"
        assert calls == [(op.n_nodes, op.n_nodes) for op in ops]
        assert ops[0].near_factor is not ops[1].near_factor

    def test_failed_factor_is_not_reused(self, monkeypatch):
        op = bordered_operator(7).with_alpha(0.1)
        A = op.frozen(np.zeros(op.n_nodes, dtype=np.int64))
        i0 = op.grid.origin_index
        splu = spla.splu
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", fail_first)
        assert _solve_bordered(A, -A.const, i0, 1e-10)[2] == "splu"
        assert op.near_factor.key is None and op.near_factor.count == 0
        assert _solve_bordered(A, -A.const, i0, 1e-10)[2] == "bicgstab"
        assert len(calls) == 2 and op.near_factor.count == 1

    def test_failed_factor_falls_back_to_lu(self, monkeypatch):
        op = bordered_operator(9)
        want = nl.solve_normalized(op.csr(), 0.05, 1e-9)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        got = nl.solve_normalized(op, 0.05, 1e-9)
        assert got.counts.linear_solves == {"bicgstab": 0, "splu": got.iterations}
        assert got.counts.krylov_iterations == 0
        assert abs(got.m - want.m) <= 1e-10
        assert float(np.max(np.abs(got.u - want.u))) <= 1e-10
        A = op.with_alpha(0.4).frozen(np.zeros(op.n_nodes, dtype=np.int64))
        assert _solve(A, -A.const, 1e-10, 1e-10, 500)[1] == "splu"

    def test_krylov_iterations_count_every_bicgstab_step(self, monkeypatch):
        # each BiCGStab run's matvecs, less the initial residual of a warm
        # start, are two per iteration and one for a stop at the half step
        bicgstab = spla.bicgstab
        runs = []

        def recording(A, b, *args, x0=None, **kwargs):
            calls = []

            def matvec(x):
                calls.append(1)
                return A.matvec(x)

            out = bicgstab(spla.LinearOperator(A.shape, matvec=matvec, dtype=float),
                           b, *args, x0=x0, **kwargs)
            warm = x0 is not None and np.any(x0) and np.any(b)
            runs.append(len(calls) - warm)
            return out

        monkeypatch.setattr(spla, "bicgstab", recording)
        sol = nl.solve_normalized(bordered_operator(5), 0.05, 1e-9)
        assert sol.counts.linear_solves["bicgstab"] == sol.iterations
        assert sol.counts.krylov_iterations == sum(-(-k // 2) for k in runs) > 0
        runs.clear()
        disc = nl.solve_policy_iteration(bordered_operator(5).with_alpha(0.4), 1e-9)
        assert disc.counts.krylov_iterations == sum(-(-k // 2) for k in runs) > 0
        # the near field of a purely local operator is the whole system, so
        # each solve stops at the half step of its first iteration
        runs.clear()
        cfg = parse_config({"mode": "discounted",
                            "problem": {"family": "constant_cost", "kappa": 1.0,
                                        "local_identity": True},
                            "grid": {"d": 2, "hx": 0.5, "radii": [2.0, 3.0]}})
        exact, _, _ = nl.expand_domain(build_problem(cfg), 0.5, cfg.grid, 1e-9)
        assert runs == [1] * exact.counts.linear_solves["bicgstab"]
        assert exact.counts.krylov_iterations == len(runs) > 0


def test_warm_started_bordered_solves_save_matvecs(monkeypatch):
    # the same alpha level solved from the level above: the bordered solves
    # started from the Howard iterate against the same solves started from
    # zero, counting every matvec BiCGStab makes, initial residual included
    op = bordered_operator(5)
    above = nl.solve_normalized(op, 0.1, 1e-9)
    bicgstab, krylov = spla.bicgstab, discounted._krylov
    calls = []

    def counting(A, b, *args, **kwargs):
        def matvec(x):
            calls.append(1)
            return A.matvec(x)
        return bicgstab(spla.LinearOperator(A.shape, matvec=matvec, dtype=float),
                        b, *args, **kwargs)

    monkeypatch.setattr(spla, "bicgstab", counting)
    warm = nl.solve_normalized(op, 0.05, 1e-9, v0=above.u, policy0=above.policy)
    warm_calls = len(calls)
    calls.clear()

    def cold_krylov(A, b, atol, accept, maxiter, x0=None, counts=None):
        return krylov(A, b, atol, accept, maxiter, None, counts)

    with mock.patch.object(discounted, "_krylov", cold_krylov):
        cold = nl.solve_normalized(op, 0.05, 1e-9, v0=above.u, policy0=above.policy)
    assert warm.converged and cold.converged
    assert warm.counts.linear_solves == cold.counts.linear_solves == {"bicgstab": warm.iterations,
                                                        "splu": 0}
    assert warm_calls < len(calls)
    assert warm.counts.krylov_iterations < cold.counts.krylov_iterations
    assert abs(warm.m - cold.m) <= 1e-10
    assert float(np.max(np.abs(warm.u - cold.u))) <= 1e-10


def counted_splu(monkeypatch) -> list:
    """Patch ``spla.splu`` to record the shape of every matrix it factors."""
    splu = spla.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def permuted(p, perm):
    """``p`` with its controls reordered: new control t is old control perm[t]."""
    def pick(seq):
        return None if seq is None else tuple(seq[i] for i in perm)
    return dataclasses.replace(p, controls=pick(p.controls), drift=pick(p.drift),
                               cost=pick(p.cost), zeroth=pick(p.zeroth),
                               kernel=dataclasses.replace(p.kernel, k=pick(p.kernel.k)))


@st.composite
def permuted_problems(draw, zeroth):
    """(d, problem, the problem with its controls permuted, the permutation).

    2-3 controls with constant or x-only kernels; the last control may be a
    copy of control 0, which ties it with control 0 wherever either is best.
    """
    d, s = draw(st.sampled_from([1, 2])), 0.75
    n = draw(st.integers(2, 3))
    kvals = [draw(st.floats(0.5, 1.5)) * (2 - 2 * s) for _ in range(n)]
    xs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = constant_kernel_problem(draw(st.integers(0, 10_000)), d, s, kvals,
                                zeroth=zeroth, x_only=xs)
    if draw(st.booleans()):
        def copy0(seq):
            return None if seq is None else (*seq[:-1], seq[0])
        p = dataclasses.replace(p, drift=copy0(p.drift), cost=copy0(p.cost),
                                zeroth=copy0(p.zeroth),
                                kernel=dataclasses.replace(p.kernel, k=copy0(p.kernel.k)))
    perm = draw(st.permutations(range(n)))
    return d, p, permuted(p, perm), np.array(perm)


def assert_policy_permuted(op, u, policy, permuted_policy, perm):
    """policy = perm[permuted_policy] wherever, at u, the best control beats
    the second best by more than 1e-12; closer ties may resolve either way."""
    vals, _, _ = _stacked_inf(op, u)
    best, second = np.sort(vals, axis=0)[:2]
    clear = second - best > 1e-12
    np.testing.assert_array_equal(policy[clear], perm[permuted_policy[clear]])


class TestControlPermutation:
    """Reordering the controls changes no answer, up to the documented
    lowest-index tie-break of ``_stacked_inf``."""

    @settings(max_examples=15, deadline=None)
    @given(case=permuted_problems(zeroth=True), csr=st.booleans())
    def test_discounted_solve(self, case, csr):
        d, p, pp, perm = case
        g = nl.build_grid(d, 0.25 if d == 1 else 0.5, 3.0 if d == 1 else 2.0)
        q = nl.build_quadrature(g, p.kernel.s, g.R + 1.0)
        ops = [nl.assemble(x, g, q, None) for x in (p, pp)]
        if csr:
            ops = [op.csr() for op in ops]
        sol, psol = (nl.solve_policy_iteration(op, 1e-12) for op in ops)
        assert sol.converged and psol.converged
        assert float(np.max(np.abs(sol.u - psol.u))) <= 1e-12
        assert_policy_permuted(ops[0], sol.u, sol.policy, psol.policy, perm)

    @settings(max_examples=15, deadline=None)
    @given(case=permuted_problems(zeroth=False))
    def test_ergodic_run(self, case):
        d, p, pp, perm = case
        domain = nl.DomainConfig(d=d, hx=0.5, radii=(2.0, 3.0))
        schedule = nl.AlphaSchedule(start=0.5, factor=0.5, max_levels=3)
        sol, psol = (nl.vanishing_discount(x, domain, schedule, 1e-13) for x in (p, pp))
        assert abs(sol.lambda_star - psol.lambda_star) <= 1e-12
        assert float(np.max(np.abs(sol.u - psol.u))) <= 1e-12
        # No zeroth term, so the argmin at u is the last level's policy.
        policy = nl.apply_inf(sol.operator, sol.u)[1]
        permuted_policy = nl.apply_inf(psol.operator, psol.u)[1]
        assert_policy_permuted(sol.operator, sol.u, policy, permuted_policy, perm)


CERT_KERNELS = {
    "": nl.constant_kernel(0.37),
    "x_only-": nl.x_kernel(
        lambda x: 0.37 * (1 + 0.3 * np.cos(x[..., 0]) * np.exp(-0.1 * x[..., -1]))),
}


class TestLyapunovConvolution:
    @pytest.mark.parametrize("kern, gamma_tail, d", [
        pytest.param(kern, gamma_tail, d, id=f"{name}{gamma_tail}-{d}")
        for name, kern in CERT_KERNELS.items()
        for gamma_tail in (True, False) for d in (1, 2)])
    def test_matches_direct_evaluation(self, d, gamma_tail, kern):
        p = nl.power_drift_problem(1.6, 0.1, d, 0.9)
        ly = p.lyapunov if gamma_tail else dataclasses.replace(p.lyapunov, gamma=None)
        g = nl.build_grid(d, 0.25 if d == 1 else 0.5, 6.0 if d == 1 else 3.0)
        q = nl.build_quadrature(g, 0.9, g.R + 1.5)

        def untagged(x, y):
            return kern(x, y)

        got = _jump_on_V(ly, g, q, kern)
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
