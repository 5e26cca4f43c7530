import numpy as np
import pytest

import nlhjb as nl

from conftest import random_problem
from oracles import (build_dense_oracles, dense_apply, dense_fixed_point,
                     fractional_laplacian_reference)


class TestFractionalReference:
    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
    def test_cos_at_origin_is_minus_one(self, s):
        assert fractional_laplacian_reference("cos", 0.0, s) == pytest.approx(
            -1.0, abs=1e-8)

    def test_cos_at_half_pi_vanishes(self):
        assert fractional_laplacian_reference("cos", np.pi / 2, 0.75) == \
            pytest.approx(0.0, abs=1e-8)

    def test_continuity_in_s(self):
        vals = [fractional_laplacian_reference("cos", 0.3, s)
                for s in (0.74, 0.75, 0.76)]
        assert abs(vals[0] - vals[1]) < 1e-6 and abs(vals[2] - vals[1]) < 1e-6

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
    def test_cos_keeps_classical_structure_across_s(self, s):
        # unit frequency: the symbol is 1 at every order, so each reference
        # value must already sit on the classical -cos(x) profile
        for x in (0.0, 0.3, 1.1, 2.0):
            got = fractional_laplacian_reference("cos", x, s)
            assert got == pytest.approx(-np.cos(x), abs=1e-8)

    def test_gaussian_at_origin_closed_form(self):
        from scipy.special import gamma
        s = 0.8
        want = -(2.0**s * gamma(s + 0.5) / np.sqrt(np.pi))
        got = fractional_laplacian_reference("gaussian", 0.0, s)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadratic_truncated_formula(self):
        s = 0.7
        got = fractional_laplacian_reference("quadratic-truncated", 1.3, s,
                                             r_far=16.0)
        assert got == pytest.approx(4.0 * 16.0 ** (2 - 2 * s), rel=1e-14)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown test"):
            fractional_laplacian_reference("sinc", 0.0, 0.75)


class TestDenseOracle:
    def test_size_cap(self):
        p = random_problem(0, vary_kernel=False)
        g = nl.build_grid(1, 0.05, 8.0)
        q = nl.build_quadrature(g, 0.75, 9.0)
        with pytest.raises(ValueError, match="capped"):
            build_dense_oracles(p, g, q, None, alpha=0.4)

    def test_zero_input_returns_constant(self):
        p = random_problem(1)
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        oracles = build_dense_oracles(p, g, q, None, alpha=0.4)
        got = dense_apply(oracles[0], np.zeros(g.n_nodes))
        np.testing.assert_array_equal(got, oracles[0].const)

    def test_fixed_point_matches_policy_iteration(self):
        p = random_problem(17, vary_kernel=True)
        g = nl.build_grid(1, 0.25, 4.0)   # 33 nodes
        q = nl.build_quadrature(g, 0.75, 5.0)
        ext = None
        op = nl.assemble(p, g, q, ext).with_alpha(0.35)
        sol = nl.solve_policy_iteration(op, 1e-11)
        u = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=0.35),
                              tol=1e-12)
        assert np.max(np.abs(sol.u - u)) <= 1e-8

    def test_fixed_point_zero_cost(self):
        import dataclasses
        p = random_problem(18)
        p = dataclasses.replace(
            p, cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                          for _ in p.controls))
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        u = dense_fixed_point(
            build_dense_oracles(p, g, q, None, alpha=0.4),
            tol=1e-12)
        assert np.max(np.abs(u)) <= 1e-11

    def test_fixed_point_constant_matching_exterior(self):
        kappa, alpha = 1.5, 0.5
        p = nl.constant_cost_problem(kappa, 1, n_controls=1)
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        u = dense_fixed_point(
            build_dense_oracles(p, g, q, lambda x: kappa / alpha,
                                alpha=alpha), tol=1e-12)
        np.testing.assert_allclose(u, kappa / alpha, atol=1e-10)
