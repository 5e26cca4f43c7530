import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlhjb as nl
from nlhjb import discounted
from nlhjb.config import build_problem, parse_config
from nlhjb.discounted import _solve_bordered
from nlhjb.operators import apply_control

from conftest import failed_near_factor, random_problem
from oracles import (bordered_reference, build_dense_oracles, dense_fixed_point,
                     dump_stencils, stacked_policy_system, stencil_matrix)


def setup(seed=1, s=0.75, hx=0.25, R=4.0, alpha=0.4, **kw):
    p = random_problem(seed, s=s, **kw)
    g = nl.build_grid(1, hx, R)
    q = nl.build_quadrature(g, s, R + 1.0)
    ext = None
    op = nl.assemble(p, g, q, ext).with_alpha(alpha)
    return p, g, q, ext, op


class TestPolicyIteration:
    def test_constant_cost_with_matching_exterior_is_exact(self):
        kappa, alpha = 3.0, 0.5
        p = nl.constant_cost_problem(kappa, 1)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, lambda x: kappa / alpha).with_alpha(alpha)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.converged
        np.testing.assert_allclose(sol.u, kappa / alpha, atol=1e-9)

    def test_zero_cost_zero_solution(self):
        p, g, q, ext, op = setup(seed=2)
        p0 = dataclasses.replace(
            p, cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                          for _ in p.controls))
        op = nl.assemble(p0, g, q, ext).with_alpha(0.4)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.converged
        assert np.max(np.abs(sol.u)) <= 1e-11

    def test_matches_dense_fixed_point(self):
        p, g, q, ext, op = setup(seed=3, hx=0.25, R=4.0, vary_kernel=True)
        sol = nl.solve_policy_iteration(op, 1e-11)
        oracle_u = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=0.4),
                                     tol=1e-12)
        assert np.max(np.abs(sol.u - oracle_u)) <= 1e-10

    def test_monotone_improvement(self):
        _, _, _, _, op = setup(seed=4)
        sol = nl.solve_policy_iteration(op, 1e-11)
        assert sol.monotone_violation <= 1e-9

    def test_residual_recomputed_at_acceptance(self):
        _, _, _, _, op = setup(seed=5)
        sol = nl.solve_policy_iteration(op, 1e-10)
        vals, _ = nl.apply_inf(op, sol.u)
        assert sol.residual_inf_norm == pytest.approx(np.max(np.abs(vals)))
        assert sol.residual_inf_norm <= 1e-10

    def test_cost_scaling_linearity(self):
        # g -> kappa*g scales w exactly and leaves the policy invariant
        p, g, q, ext, op = setup(seed=6)
        kappa = 2.5
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: kappa * f(x)))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, ext).with_alpha(0.4)
        s1 = nl.solve_policy_iteration(op, 1e-12)
        s2 = nl.solve_policy_iteration(op2, 1e-12)
        np.testing.assert_allclose(s2.u, kappa * s1.u, atol=1e-9)
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
            op = nl.assemble(p, g, q, None)
            sol = nl.solve_policy_iteration(op, 1e-11)
            assert np.max(np.abs(sol.u)) <= 1e-11

    def test_comparison_in_cost(self):
        p, g, q, ext, op1 = setup(seed=7, nonneg_cost=True)
        bump = lambda x: 0.3 + 0.2 * np.cos(np.asarray(x, float)[..., 0])
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: f(x) + bump(x)))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, ext).with_alpha(0.4)
        w1 = nl.solve_policy_iteration(op1, 1e-11).u
        w2 = nl.solve_policy_iteration(op2, 1e-11).u
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
                     None).with_alpha(0.4)
    sol = nl.solve_policy_iteration(op, 1e-12, max_iter=max_iter)
    vals, _ = nl.apply_inf(op, sol.u)
    assert sol.converged == (max_iter > 1)
    assert sol.residual_inf_norm == float(np.max(np.abs(vals)))
    norm = nl.solve_normalized(op, 0.05, 1e-12, max_iter=max_iter)
    vals, _ = nl.apply_inf(op.with_alpha(0.05), norm.u)
    assert norm.converged == (max_iter > 1) and norm.u[g.origin_index] == 0.0
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
        else:  # three controls with control-dependent zeroth terms, so no alpha
            p, g = random_problem(15, n_controls=3, c_floor=0.2), nl.build_grid(1, 0.25, 4.0)
            q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, None)
        _FROZEN_OPS[name] = op if p.zeroth is not None else op.with_alpha(0.3)
    return _FROZEN_OPS[name]


def _policy_system_reference(op, policy):
    """Sum over controls of diags(1[policy == t]) @ (B_t + diag(c_t))."""
    A = sp.csr_matrix((op.n_nodes, op.n_nodes))
    const = np.zeros(op.n_nodes)
    for t in range(op.problem.n_controls):
        ind = (policy == t).astype(float)
        A = A + sp.diags(ind) @ stencil_matrix(op, t)
        const += ind * op.const[t]
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
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        got, want = op.frozen(policy).local, stacked_policy_system(op, policy)
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
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.csr().frozen(policy)
        ref, ref_const = _policy_system_reference(op, policy)
        assert np.array_equal(A.const, ref_const)
        A, ref = A.tocsr().sorted_indices(), ref.sorted_indices()
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)


class TestBorderedElimination:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["power_drift_1d", "power_drift_2d",
                                 "local_identity_2d", "xy_kernel_2d"]),
           alpha=st.floats(1e-6, 0.5) | st.just(0.0), data=st.data())
    def test_matches_augmented_solve(self, name, alpha, data):
        # the direct path, forced here by a failing Krylov solve, is one LU
        # of the bordered system (A with its origin column set to -1); the
        # reference solves the augmented (N+1)-order system.
        # xy_kernel_2d has kernels that read y.  alpha = 0 is drawn
        # for the operators with a jump part, whose leak to the exterior
        # keeps -A a nonsingular M-matrix there
        assume(alpha > 0 or name != "local_identity_2d")
        op = _frozen_operator(name).csr().with_alpha(alpha)
        policy = np.array(data.draw(st.lists(
            st.integers(0, op.problem.n_controls - 1),
            min_size=op.n_nodes, max_size=op.n_nodes)), dtype=np.int64)
        A = op.frozen(policy)
        i0 = op.grid.origin_index
        with failed_near_factor():
            v, m, tag, _ = _solve_bordered(A, -A.const, i0, 1e-10)
        v_ref, m_ref = bordered_reference(A.tocsr(), -A.const, i0)
        assert tag == "splu" and v[i0] == 0.0
        scale = max(1.0, float(np.max(np.abs(v_ref))), abs(m_ref))
        assert abs(m - m_ref) <= 1e-12 * scale
        assert float(np.max(np.abs(v - v_ref))) <= 1e-12 * scale

    def test_fallback_meets_the_residual_rule_on_a_fine_ball(self):
        # README problem on the 1-d ball hx = 1/16, R = 32 (N = 1025), where
        # max|A^{-1} 1| is about 900, so forming m from solves of A loses
        # digits to cancellation.  The forced fallback must meet the rule
        # solve_normalized applies at tol 1e-9
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 1 / 16, 32.0)
        op = nl.assemble(p, g, nl.build_quadrature(g, 0.9, 33.0), None)
        A = op.with_alpha(1e-6).frozen(np.zeros(op.n_nodes, dtype=np.int64))
        with failed_near_factor():
            v, m, tag, _ = _solve_bordered(A, -A.const, g.origin_index, 1e-10)
        assert tag == "splu" and v[g.origin_index] == 0.0
        assert float(np.max(np.abs(A @ v - m + A.const))) <= 1e-10


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
        op = nl.assemble(p, g, q, None)
        sol = nl.solve_normalized(op, alpha, 1e-12)
        assert sol.converged
        w = sol.u + sol.m / alpha
        opa = op.with_alpha(alpha)
        got = apply_control(opa, 0, w)
        extmass = -(op.base @ np.ones(g.n_nodes))
        np.testing.assert_allclose(got, -extmass * sol.m / alpha, atol=1e-8)

    def test_origin_exactly_zero(self):
        p = random_problem(12)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, None)
        sol = nl.solve_normalized(op, 0.25, 1e-11)
        assert sol.u[g.origin_index] == 0.0

    def test_cost_shift_moves_m_exactly(self):
        p = random_problem(13)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, None)
        s1 = nl.solve_normalized(op, 0.25, 1e-12)
        p2 = dataclasses.replace(
            p, cost=tuple((lambda f: (lambda x: f(x) + 2.0))(f) for f in p.cost))
        op2 = nl.assemble(p2, g, q, None)
        s2 = nl.solve_normalized(op2, 0.25, 1e-12)
        assert s2.m - s1.m == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(s1.u, s2.u, atol=1e-10)


    @pytest.mark.parametrize("m0", [0.4, -3.0])
    def test_bordered_start_carries_m(self, monkeypatch, m0):
        # the first bordered solve starts with m0 in the origin slot, each
        # later one with the m of the step before; the pair is the m0 = 0 pair
        p = random_problem(13)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        op = nl.assemble(p, g, q, None)
        want = nl.solve_normalized(op, 0.05, 1e-11)
        solve, i0, seen = discounted._solve, g.origin_index, []

        def spy(S, rhs, rule, target, maxiter, x0=None):
            out = solve(S, rhs, rule, target, maxiter, x0)
            seen.append((x0[i0], out[0][i0]))
            return out

        monkeypatch.setattr(discounted, "_solve", spy)
        got = nl.solve_normalized(op, 0.05, 1e-11, m0=m0)
        assert got.counts.linear_solves == {"bicgstab": got.iterations, "splu": 0}
        assert len(seen) == got.iterations >= 2
        assert seen[0][0] == m0
        assert [start for start, _ in seen[1:]] == [m for _, m in seen[:-1]]
        assert seen[-1][1] == got.m
        assert abs(got.m - want.m) <= 1e-10
        assert float(np.max(np.abs(got.u - want.u))) <= 1e-10


_GATE_DOMAIN = nl.DomainConfig(d=1, hx=0.25, radii=(4.0,))


def _gate_operator(p):
    g = nl.build_grid(1, 0.25, 4.0)
    return nl.assemble(p, g, nl.build_quadrature(g, p.jump_order, 5.0), None)


# every entry point that discounts, as (problem, alpha) -> result; each
# reaches DiscreteOperator.with_alpha, but vanishing_discount's schedule
# rejects a bad alpha before that
_DISCOUNTS = {
    "with_alpha": lambda p, a: _gate_operator(p).with_alpha(a),
    "solve_normalized": lambda p, a: nl.solve_normalized(_gate_operator(p), a, 1e-8),
    "expand_domain": lambda p, a: nl.expand_domain(p, a, _GATE_DOMAIN, 1e-8),
    "vanishing_discount": lambda p, a: nl.vanishing_discount(
        p, _GATE_DOMAIN, nl.AlphaSchedule(explicit=(a,)), 1e-8),
}


class TestDiscountGate:
    @pytest.mark.parametrize("entry", sorted(_DISCOUNTS))
    @pytest.mark.parametrize("alpha", [-0.5, np.inf, np.nan])
    def test_alpha_negative_or_not_finite_is_rejected(self, entry, alpha):
        match = "values must be" if entry == "vanishing_discount" else "must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            _DISCOUNTS[entry](random_problem(3), alpha)

    @pytest.mark.parametrize("entry", sorted(_DISCOUNTS))
    def test_problem_with_its_own_zeroth_term_is_rejected(self, entry):
        # c ≡ -alpha would silently replace the problem's c <= -2
        with pytest.raises(ValueError, match=r"alpha=0\.3 given.* own zeroth-order term"):
            _DISCOUNTS[entry](random_problem(3, c_floor=2.0), 0.3)

    def test_alpha_zero_is_accepted(self):
        op = _gate_operator(random_problem(3)).with_alpha(0.0)
        assert np.all(op.c == 0.0)
        sol = nl.solve_normalized(op, 0.0, 1e-10)
        assert sol.converged and sol.u[op.grid.origin_index] == 0.0

    @pytest.mark.parametrize("kind", ["fft", "csr"])
    def test_constant_zeroth_term_is_the_same_discount(self, kind):
        # the two discount sources of a discounted run (a problem's c ≡ -alpha
        # and with_alpha) give the same operator and the same solve, bit for bit
        alpha = 0.5
        p = (nl.power_drift_problem(1.6, 0.1, 1, 0.9) if kind == "fft"
             else random_problem(3, s=0.9))
        p_c = dataclasses.replace(
            p, zeroth=(lambda x: np.full(np.shape(x)[:-1], -alpha),) * p.n_controls)
        a, b = _gate_operator(p_c), _gate_operator(p).with_alpha(alpha)
        assert (a.jump is None) == (kind == "csr")
        for x, y in ((a.c, b.c), (a.const, b.const), (a.base.indptr, b.base.indptr),
                     (a.base.indices, b.base.indices), (a.base.data, b.base.data)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        sa, sb = nl.solve_policy_iteration(a, 1e-10), nl.solve_policy_iteration(b, 1e-10)
        assert sa.converged and np.array_equal(sa.u, sb.u) and sa.trace == sb.trace


class TestBarrier:
    @staticmethod
    def solution(w):
        return nl.HowardSolution(u=w, m=0.0, policy=np.zeros(w.size, dtype=int),
                                 converged=True, trace=[(0, 0.0, 0)],
                                 monotone_violation=0.0, counts=discounted.SolveCounts())

    def test_zero_solution_passes(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 8.0)
        rep = nl.check_barrier(self.solution(np.zeros(g.n_nodes)), p, g, k0=1.0,
                               c_floor=0.5)
        assert rep.ok and rep.n_violations == 0

    def test_adversarial_injection_fails(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 8.0)
        k0, alpha = 1.0, 0.5
        V = p.lyapunov.V(g.nodes)
        w = V + 2 * k0 / alpha
        rep = nl.check_barrier(self.solution(w), p, g, k0=k0, c_floor=alpha)
        assert not rep.ok and rep.n_violations > 0

    def test_missing_lyapunov_data(self):
        p = nl.constant_cost_problem(1.0, 1)
        g = nl.build_grid(1, 0.5, 8.0)
        with pytest.raises(ValueError, match="Lyapunov"):
            nl.check_barrier(self.solution(np.zeros(g.n_nodes)), p, g, k0=1.0,
                             c_floor=0.5)


def test_dump_cap_enforced():
    _, _, _, _, op = setup(seed=31, hx=0.25, R=8.0)   # 65 nodes
    with pytest.raises(ValueError, match="capped"):
        dump_stencils(op, max_nodes=16)
