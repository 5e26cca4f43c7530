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
from nlhjb.discounted import _policy_system, _solve_bordered
from nlhjb.operators import apply_control

from conftest import random_problem
from oracles import (bordered_reference, build_dense_oracles, dense_fixed_point,
                     dump_stencils, stacked_policy_system)


def setup(seed=1, s=0.75, hx=0.25, R=4.0, alpha=0.4, **kw):
    p = random_problem(seed, s=s, **kw)
    g = nl.build_grid(1, hx, R)
    q = nl.build_quadrature(g, s, R + 1.0)
    ext = nl.ExteriorRule.zero()
    op = nl.assemble(p, g, q, ext, alpha=alpha)
    return p, g, q, ext, op


class TestPolicyIteration:
    def test_constant_cost_with_matching_exterior_is_exact(self):
        kappa, alpha = 3.0, 0.5
        p = nl.constant_cost_problem(kappa, 1)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.constant(kappa / alpha),
                         alpha=alpha)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.converged
        np.testing.assert_allclose(sol.w, kappa / alpha, atol=1e-9)

    def test_zero_cost_zero_solution(self):
        p, g, q, ext, op = setup(seed=2)
        p0 = dataclasses.replace(
            p, cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                          for _ in p.controls))
        op = nl.assemble(p0, g, q, ext, alpha=0.4)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.converged
        assert np.max(np.abs(sol.w)) <= 1e-11

    def test_matches_dense_fixed_point(self):
        p, g, q, ext, op = setup(seed=3, hx=0.25, R=4.0, vary_kernel=True)
        sol = nl.solve_policy_iteration(op, 1e-11)
        oracle_u = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=0.4),
                                     tol=1e-12)
        assert np.max(np.abs(sol.w - oracle_u)) <= 1e-10

    def test_monotone_improvement(self):
        _, _, _, _, op = setup(seed=4)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.diagnostics["monotone_violation"] <= 1e-9

    def test_residual_recomputed_at_acceptance(self):
        _, _, _, _, op = setup(seed=5)
        sol = nl.solve_policy_iteration(op, 1e-10)
        vals, _ = nl.apply_inf(op, sol.w)
        assert sol.residual_inf_norm == pytest.approx(np.max(np.abs(vals)))
        assert sol.residual_inf_norm <= 1e-10

    def test_cost_scaling_linearity(self):
        # g -> kappa*g scales w exactly and leaves the policy invariant
        p, g, q, ext, op = setup(seed=6)
        kappa = 2.5
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: kappa * f(x)))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, ext, alpha=0.4)
        s1 = nl.solve_policy_iteration(op, 1e-12)
        s2 = nl.solve_policy_iteration(op2, 1e-12)
        np.testing.assert_allclose(s2.w, kappa * s1.w, atol=1e-9)
        np.testing.assert_array_equal(s1.policy, s2.policy)

    def test_discrete_liouville(self):
        # g = 0, general c <= -c_floor < 0: solution vanishes
        for seed in range(3):
            p = random_problem(seed, c_floor=0.2, vary_kernel=True)
            p = dataclasses.replace(
                p, cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                              for _ in p.controls))
            g = nl.build_grid(1, 0.25, 4.0)
            q = nl.build_quadrature(g, 0.75, 5.0)
            op = nl.assemble(p, g, q, nl.ExteriorRule.zero())
            sol = nl.solve_policy_iteration(op, 1e-11)
            assert np.max(np.abs(sol.w)) <= 1e-11

    def test_comparison_in_cost(self):
        p, g, q, ext, op1 = setup(seed=7, nonneg_cost=True)
        bump = lambda x: 0.3 + 0.2 * np.cos(np.asarray(x, float)[..., 0])
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: f(x) + bump(x)))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, ext, alpha=0.4)
        w1 = nl.solve_policy_iteration(op1, 1e-11).w
        w2 = nl.solve_policy_iteration(op2, 1e-11).w
        assert np.all(w1 <= w2 + 1e-9)

    def test_needs_strict_dominance(self):
        p, g, q, ext, _ = setup(seed=8)
        op0 = nl.assemble(p, g, q, ext)  # no zeroth term at all
        with pytest.raises(ValueError, match="c_floor"):
            nl.solve_policy_iteration(op0, 1e-8)

    def test_nonconvergence_is_flagged_not_raised(self):
        _, _, _, _, op = setup(seed=9)
        sol = nl.solve_policy_iteration(op, 1e-13, max_iter=1)
        assert isinstance(sol.converged, bool)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("max_iter", [1, 60])
def test_residual_is_recomputed_at_the_answer_bit_for_bit(d, max_iter):
    # residual_inf_norm comes from the last Howard evaluation; a converged
    # and a max_iter-exhausted solve of each solver
    p = random_problem(4, d=d, s=0.75) if d == 1 else nl.power_drift_problem(1.6, 0.1, 2, 0.9)
    g = nl.build_grid(d, 0.25 if d == 1 else 0.5, 4.0)
    op = nl.assemble(p, g, nl.build_quadrature(g, 0.75 if d == 1 else 0.9, 5.0),
                     nl.ExteriorRule.zero(), alpha=0.4)
    sol = nl.solve_policy_iteration(op, 1e-12, max_iter=max_iter)
    vals, _ = nl.apply_inf(op, sol.w)
    assert sol.converged == (max_iter > 1)
    assert sol.residual_inf_norm == float(np.max(np.abs(vals)))
    norm = nl.solve_normalized(op, 0.05, 1e-12, max_iter=max_iter)
    vals, _ = nl.apply_inf(op.with_alpha(0.05), norm.v)
    assert norm.converged == (max_iter > 1) and norm.v[g.origin_index] == 0.0
    assert norm.residual_inf_norm == float(np.max(np.abs(vals - norm.m)))


_FROZEN_OPS: dict = {}


def _frozen_operator(name):
    """Small operators for the frozen-policy property test, built once."""
    if name not in _FROZEN_OPS:
        if name == "power_drift_1d":
            p, g = nl.power_drift_problem(1.6, 0.1, 1, 0.9), nl.build_grid(1, 0.25, 4.0)
            q = nl.build_quadrature(g, 0.9, 5.0)
        elif name == "power_drift_2d":
            p, g = nl.power_drift_problem(1.6, 0.1, 2, 0.9), nl.build_grid(2, 0.5, 3.0)
            q = nl.build_quadrature(g, 0.9, 4.0)
        elif name == "xy_kernel_2d":  # kernels that read y: explicit stencils
            p = build_problem(parse_config({
                "mode": "discounted",
                "problem": {"family": "custom", "s": 0.75,
                            "lambda_ell": 0.9, "Lambda_ell": 1.1,
                            "controls": [{"drift": ["-x1", "-x2"], "cost": "exp(-r*r)",
                                          "kernel": "0.5+0.04*cos(x1*y1)*cos(x2)"},
                                         {"drift": ["-2*x1", "-0.5*x2"], "cost": "0.3",
                                          "kernel": "0.5-0.04*exp(-ry*ry)"}]},
                "grid": {"d": 2, "hx": 0.5, "radii": [3.0]}}))
            g = nl.build_grid(2, 0.5, 3.0)
            q = nl.build_quadrature(g, 0.75, 4.0)
        elif name == "local_identity_2d":
            p = nl.constant_cost_problem(1.0, 2, local_identity=True)
            g, q = nl.build_grid(2, 0.5, 3.0), None
        else:  # three controls with control-dependent zeroth terms
            p, g = random_problem(15, n_controls=3, c_floor=0.2), nl.build_grid(1, 0.25, 4.0)
            q = nl.build_quadrature(g, 0.75, 5.0)
        _FROZEN_OPS[name] = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.3)
    return _FROZEN_OPS[name]


def _policy_system_reference(op, policy):
    """Sum over controls of diags(1[policy == t]) @ (B_t + diag(c_t))."""
    A = sp.csr_matrix((op.n_nodes, op.n_nodes))
    const = np.zeros(op.n_nodes)
    for t in range(len(op.controls)):
        ind = (policy == t).astype(float)
        A = A + sp.diags(ind) @ op.matrix(t)
        const += ind * op.constant(t)
    A = A.tocsr()
    A.eliminate_zeros()
    return A, const


class TestFrozenPolicySystem:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["power_drift_1d", "power_drift_2d", "xy_kernel_2d",
                                 "local_identity_2d", "random_zeroth_1d"]),
           explicit=st.booleans(), data=st.data())
    def test_row_gather_is_the_stacked_formula_bit_for_bit(self, name, explicit, data):
        # FFT operators gather their drift stencils, explicit ones (and
        # kernels that read y) the whole system
        op = _frozen_operator(name)
        op = op.csr() if explicit else op
        policy = np.array(data.draw(st.lists(
            st.integers(0, len(op.controls) - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        got, want = _policy_system(op, policy)[0].local, stacked_policy_system(op, policy)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["power_drift_1d", "power_drift_2d",
                                 "local_identity_2d", "random_zeroth_1d"]),
           data=st.data())
    def test_row_gather_matches_reference(self, name, data):
        op = _frozen_operator(name)
        policy = np.array(data.draw(st.lists(
            st.integers(0, len(op.controls) - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A, const = _policy_system(op.csr(), policy)
        ref, ref_const = _policy_system_reference(op, policy)
        A, ref = A.tocsr().sorted_indices(), ref.sorted_indices()
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)
        assert np.array_equal(const, ref_const)


class TestBorderedElimination:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["power_drift_1d", "power_drift_2d",
                                 "local_identity_2d", "random_zeroth_1d"]),
           alpha=st.floats(1e-6, 0.5), data=st.data())
    def test_matches_augmented_solve(self, name, alpha, data):
        # the direct path, forced here by a failing Krylov solve, eliminates
        # m through one LU of A; the reference solves the augmented
        # (N+1)-order system.  random_zeroth_1d has a kernel that reads y.
        op = _frozen_operator(name).csr().with_alpha(alpha)
        policy = np.array(data.draw(st.lists(
            st.integers(0, len(op.controls) - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A, const = _policy_system(op, policy)
        i0 = op.grid.origin_index
        with mock.patch.object(discounted, "_krylov", return_value=None):
            v, m, tag = _solve_bordered(A, -const, i0, 1e-10)
        v_ref, m_ref = bordered_reference(A.tocsr(), -const, i0)
        assert tag == "splu" and v[i0] == 0.0
        scale = max(1.0, float(np.max(np.abs(v_ref))), abs(m_ref))
        assert abs(m - m_ref) <= 1e-12 * scale
        assert float(np.max(np.abs(v - v_ref))) <= 1e-12 * scale


class TestFailedSolve:
    def test_non_finite_solve_raises_on_both_paths(self, monkeypatch):
        def nan_like(b):
            return np.full(np.shape(b), np.nan)
        monkeypatch.setattr(spla, "spsolve", lambda A, b, *a, **kw: nan_like(b))
        monkeypatch.setattr(spla, "bicgstab", lambda A, b, *a, **kw: (nan_like(b), 0))
        p, g, q, ext, op = setup(seed=14)
        with pytest.raises(ValueError, match="non-finite"):
            nl.solve_policy_iteration(op, 1e-10)
        with pytest.raises(ValueError, match="non-finite"):
            nl.solve_normalized(nl.assemble(p, g, q, ext), 0.25, 1e-10)


class TestNormalized:
    def test_reconstruction_identity_single_control(self):
        # w := v + m/alpha solves the literal equation up to the exterior-mass
        # term: apply(w) = -extmass * m / alpha exactly
        alpha = 0.3
        p = random_problem(11, n_controls=1)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero())
        sol = nl.solve_normalized(op, alpha, 1e-12)
        assert sol.converged
        w = sol.v + sol.m / alpha
        opa = op.with_alpha(alpha)
        got = apply_control(opa, 0, w)
        extmass = -(op.base[0] @ np.ones(g.n_nodes))
        np.testing.assert_allclose(got, -extmass * sol.m / alpha, atol=1e-8)

    def test_origin_exactly_zero(self):
        p = random_problem(12)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero())
        sol = nl.solve_normalized(op, 0.25, 1e-11)
        assert sol.v[g.origin_index] == 0.0

    def test_cost_shift_moves_m_exactly(self):
        p = random_problem(13)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero())
        s1 = nl.solve_normalized(op, 0.25, 1e-12)
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: f(x) + 2.0))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, nl.ExteriorRule.zero())
        s2 = nl.solve_normalized(op2, 0.25, 1e-12)
        assert s2.m - s1.m == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(s1.v, s2.v, atol=1e-10)


class TestBarrier:
    def test_zero_solution_passes(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 8.0)
        sol = nl.DiscountedSolution(w=np.zeros(g.n_nodes),
                                    policy=np.zeros(g.n_nodes, dtype=int),
                                    residual_inf_norm=0.0, iterations=0,
                                    converged=True, diagnostics={"c_floor": 0.5})
        rep = nl.check_barrier(sol, p, g, k0=1.0)
        assert rep.ok and rep.n_violations == 0

    def test_adversarial_injection_fails(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 8.0)
        k0, alpha = 1.0, 0.5
        V = p.lyapunov.V(g.nodes)
        w = V + 2 * k0 / alpha
        sol = nl.DiscountedSolution(w=w, policy=np.zeros(g.n_nodes, dtype=int),
                                    residual_inf_norm=0.0, iterations=0,
                                    converged=True, diagnostics={"c_floor": alpha})
        rep = nl.check_barrier(sol, p, g, k0=k0)
        assert not rep.ok and rep.n_violations > 0

    def test_missing_lyapunov_data(self):
        p = nl.constant_cost_problem(1.0, 1)
        g = nl.build_grid(1, 0.5, 8.0)
        sol = nl.DiscountedSolution(w=np.zeros(g.n_nodes),
                                    policy=np.zeros(g.n_nodes, dtype=int),
                                    residual_inf_norm=0.0, iterations=0,
                                    converged=True, diagnostics={"c_floor": 0.5})
        with pytest.raises(ValueError, match="Lyapunov"):
            nl.check_barrier(sol, p, g, k0=1.0)


def test_dump_cap_enforced():
    _, _, _, _, op = setup(seed=31, hx=0.25, R=8.0)   # 65 nodes
    with pytest.raises(ValueError, match="capped"):
        dump_stencils(op, max_nodes=16)
