import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlhjb as nl
from nlhjb.operators import apply_control

from conftest import random_problem
from oracles import (build_dense_oracles, dense_apply, dump_stencils,
                     jump_apply_reference)


def small_setup(seed=1, s=0.75, d=1, hx=0.25, R=4.0, alpha=0.4, **kw):
    p = random_problem(seed, d=d, s=s, **kw)
    g = nl.build_grid(d, hx, R)
    q = nl.build_quadrature(g, s, R + 1.0)
    ext = nl.ExteriorRule.zero()
    op = nl.assemble(p, g, q, ext, alpha=alpha)
    return p, g, q, ext, op


class TestAssembledInvariants:
    def test_constant_function_yields_c_minus_exterior_mass(self):
        p, g, q, ext, op = small_setup()
        ones = np.ones(g.n_nodes)
        for t in range(2):
            extmass = -(op.base[t] @ ones)
            assert np.all(extmass >= -1e-13)
            got = apply_control(op, t, ones)
            want = op.cvals[t] - extmass + op.gvals[t] + op.ext_const[t]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_offdiagonal_weights_nonnegative(self):
        _, g, _, _, op = small_setup(seed=7, vary_kernel=True)
        for t in range(2):
            m = op.matrix(t).tocoo()
            off = m.row != m.col
            assert np.all(m.data[off] >= -1e-13)

    def test_strict_diagonal_dominance_in_discounted_mode(self):
        # diagonal <= -(interior off-diagonal row sum) + c at every node
        _, g, _, _, op = small_setup(seed=7, vary_kernel=True, alpha=0.4)
        for t in range(2):
            m = op.matrix(t).toarray()
            offsum = m.sum(axis=1) - np.diag(m)
            assert np.all(np.diag(m) <= -offsum + op.cvals[t] + 1e-11)
            assert np.all(np.diag(m) + offsum <= -0.4 + 1e-11)

    def test_constant_shift_zero_exterior(self):
        p, g, q, ext, op = small_setup(seed=2)
        rng = np.random.default_rng(0)
        u = rng.normal(size=g.n_nodes)
        kappa = 1.7
        ones = np.ones(g.n_nodes)
        for t in range(2):
            extmass = -(op.base[t] @ ones)
            change = apply_control(op, t, u + kappa) - apply_control(op, t, u)
            np.testing.assert_allclose(change, kappa * op.cvals[t] - kappa * extmass,
                                       atol=1e-10)

    def test_constant_shift_with_whole_space_extension(self):
        # extending the same constant outside turns the change into exactly c*kappa
        p, g, q, _, op0 = small_setup(seed=2)
        kappa = 1.7
        op1 = nl.assemble(p, g, q, nl.ExteriorRule.constant(kappa), alpha=0.4)
        u = np.zeros(g.n_nodes)
        for t in range(2):
            change = (apply_control(op1, t, u + kappa)
                      - apply_control(op0, t, u))
            np.testing.assert_allclose(change, kappa * op0.cvals[t], atol=1e-10)

    def test_delta_symmetry_of_assembled_weights(self):
        # equal stencil weight on +y and -y targets at the central node
        p, g, q, ext, op = small_setup(seed=3, vary_kernel=True)
        i0 = g.origin_index
        m = op.matrix(0).tocsr()
        row = m.getrow(i0).toarray().ravel()
        for j in range(g.n_nodes):
            xj = g.nodes[j, 0]
            j_mirror = g.node_index_of_lattice(-g.lattice[j][None, :])[0]
            if j != i0 and j_mirror >= 0 and abs(xj) > g.hx / 2:
                # drift breaks symmetry; compare the jump-only operator instead
                pass
        pj = random_problem(3, vary_kernel=True)
        import dataclasses
        pj = dataclasses.replace(
            pj, drift=tuple(lambda x: np.zeros_like(np.asarray(x, float))
                            for _ in pj.controls))
        opj = nl.assemble(pj, g, q, ext, alpha=0.4)
        row = opj.matrix(0).getrow(i0).toarray().ravel()
        for j in range(g.n_nodes):
            j_mirror = g.node_index_of_lattice(-g.lattice[j][None, :])[0]
            assert row[j] == pytest.approx(row[j_mirror], rel=1e-12, abs=1e-15)

    def test_row_sums_match_quadrature_mass(self):
        # single control, constant kernel, no drift: interior + exterior weight
        # mass equals the full quadrature mass (offsets + axis + tail)
        s = 0.75
        p = nl.ControlProblem(
            controls=("only",),
            kernel=nl.KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                                 k=nl.constant_kernel(2 - 2 * s)),
            drift=(lambda x: np.zeros_like(np.asarray(x, float)),),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),))
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero())
        k = 2 - 2 * s
        total = k * (np.sum(2 * q.pair_weights) + 2 * q.axis_coeff + 2 * q.tail_mass)
        m = op.matrix(0).tocsr()
        ones = np.ones(g.n_nodes)
        # -diagonal equals the total mass; row sum equals -(exterior mass)
        diag = m.diagonal()
        np.testing.assert_allclose(-diag, total, rtol=1e-12)
        assert np.all(m @ ones <= 1e-13)

    def test_reflection_covariance_constant_coefficients(self):
        # constant-coefficient problem: apply commutes with x -> -x plus drift flip
        s = 0.75

        def bplus(x):
            return np.full_like(np.asarray(x, float), 0.7)

        def bminus(x):
            return np.full_like(np.asarray(x, float), -0.7)

        base = dict(
            kernel=nl.KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                                 k=nl.constant_kernel(2 - 2 * s)),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),),
            zeroth=(lambda x: np.full(np.asarray(x).shape[:-1], -0.3),))
        pp = nl.ControlProblem(controls=("r",), drift=(bplus,), **base)
        pm = nl.ControlProblem(controls=("r",), drift=(bminus,), **base)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        op_p = nl.assemble(pp, g, q, nl.ExteriorRule.zero())
        op_m = nl.assemble(pm, g, q, nl.ExteriorRule.zero())
        rng = np.random.default_rng(4)
        u = rng.normal(size=g.n_nodes)
        refl = g.node_index_of_lattice(-g.lattice)
        lhs = apply_control(op_p, 0, u)[refl]
        rhs = apply_control(op_m, 0, u[refl])
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_memory_guard(self):
        p = random_problem(1, vary_kernel=True)
        g = nl.build_grid(1, 2.0**-7, 30.0)
        q = nl.build_quadrature(g, 0.75, 64.0)
        with pytest.raises(MemoryError):
            nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)

    def test_constant_kernel_beyond_stencil_cap_builds_and_applies(self):
        # same size as the memory guard: the FFT jump part needs no stencils,
        # and only the explicit CSR oracle hits the cap
        p = random_problem(1, vary_kernel=False)
        g = nl.build_grid(1, 2.0**-7, 30.0)
        q = nl.build_quadrature(g, 0.75, 64.0)
        assert g.n_nodes * q.n_offsets > 3e7
        op = nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)
        ones = np.ones(g.n_nodes)
        vals = apply_control(op, 0, ones)
        assert np.all(np.isfinite(vals))
        # constants lose only the exterior mass, which is positive
        extmass = op.cvals[0] + op.gvals[0] + op.ext_const[0] - vals
        assert np.all(extmass > 0)
        with pytest.raises(MemoryError):
            op.csr()

    @pytest.mark.parametrize("where", ["offsets", "tail"])
    def test_asymmetric_kernel_rejected(self, where):
        # the quadrature gives ±y one weight, so k(x, -y) != k(x, y) would
        # silently define the operator of another kernel
        import dataclasses
        p = random_problem(3, d=2, vary_kernel=True)
        g = nl.build_grid(2, 0.5, 3.0)
        q = nl.build_quadrature(g, 0.75, 4.0)
        reach = 0.0 if where == "offsets" else q.R_far

        def kern(x, y):
            y1 = np.asarray(y, float)[..., 0]
            out = 0.5 + 0.01 * np.tanh(y1) * (np.abs(y1) > reach)
            return np.broadcast_to(out, np.broadcast_shapes(
                np.shape(x)[:-1], np.shape(y)[:-1])).copy()

        p = dataclasses.replace(p, kernel=dataclasses.replace(p.kernel, k=kern))
        witness = r"y=\(" if where == "offsets" else rf"y=\({q.tail_probe_radius}, 0\.0\)"
        with pytest.raises(ValueError, match=r"control tau0 is not symmetric in y.*"
                                             r"x=\(.*\), " + witness):
            nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)
        # its even part is accepted
        even = dataclasses.replace(p.kernel, k=lambda x, y: 0.5 * (kern(x, y) + kern(x, -y)))
        nl.assemble(dataclasses.replace(p, kernel=even), g, q, nl.ExteriorRule.zero(),
                    alpha=0.5)

    @pytest.mark.parametrize("path", ["fft", "csr"])
    @pytest.mark.parametrize("excess, inside", [(2.0, False), (0.5, True)])
    def test_band_edge_agrees_with_validate_problem(self, path, excess, inside):
        # assembly and validate_problem read one band and one slack, so a
        # kernel just past hi + tol fails both and one just inside passes both
        import dataclasses
        # the slack scales with hi = 10, so a fixed 1e-10 would reject hi + tol/2
        spec = nl.KernelSpec(s=0.75, lambda_ell=0.5, Lambda_ell=20.0, k=None)
        lo, hi, tol = spec.band()
        assert (lo, hi) == (0.25, 10.0) and tol == pytest.approx(1e-9)
        value = hi + excess * tol

        def reads_y(x, y):
            return np.full(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]), value)

        kern = nl.constant_kernel(value) if path == "fft" else reads_y
        p = dataclasses.replace(random_problem(2, vary_kernel=False),
                                kernel=dataclasses.replace(spec, k=kern))
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        assert nl.validate_problem(p, g, q).check("kernel-bounds").passed == inside
        if inside:
            nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)
        else:
            with pytest.raises(ValueError, match=r"control tau0 .* lies outside"):
                nl.assemble(p, g, q, nl.ExteriorRule.zero(), alpha=0.5)


class TestApply:
    def test_apply_zero_gives_constant_term(self):
        p, g, q, ext, op = small_setup(seed=4)
        for t in range(2):
            got = apply_control(op, t, np.zeros(g.n_nodes))
            np.testing.assert_allclose(got, op.gvals[t] + op.ext_const[t])

    def test_apply_matches_dense_oracle_on_random_input(self):
        p, g, q, ext, op = small_setup(seed=5, vary_kernel=True)
        oracles = build_dense_oracles(p, g, q, ext, alpha=0.4)
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.n_nodes)
        for t in range(2):
            np.testing.assert_allclose(apply_control(op, t, u),
                                       dense_apply(oracles[t], u), atol=1e-10)

    def test_dense_matrix_rows_agree(self):
        p, g, q, ext, op = small_setup(seed=6, vary_kernel=True)
        oracles = build_dense_oracles(p, g, q, ext, alpha=0.4)
        for t in range(2):
            np.testing.assert_allclose(op.matrix(t).toarray(), oracles[t].matrix,
                                       atol=1e-12)
            np.testing.assert_allclose(op.gvals[t] + op.ext_const[t],
                                       oracles[t].const, atol=1e-12)

    def test_basis_vector_reads_columns(self):
        p, g, q, ext, op = small_setup(seed=6)
        oracles = build_dense_oracles(p, g, q, ext, alpha=0.4)
        i = g.n_nodes // 3
        e = np.zeros(g.n_nodes)
        e[i] = 1.0
        col = dense_apply(oracles[0], e) - oracles[0].const
        np.testing.assert_allclose(col, oracles[0].matrix[:, i], atol=1e-14)

    def test_unknown_control_label(self):
        _, _, _, _, op = small_setup()
        with pytest.raises(KeyError):
            apply_control(op, "nope", np.zeros(op.n_nodes))


class TestApplyInf:
    def test_singleton_inf_equals_apply(self):
        p, g, q, ext, _ = small_setup(seed=8)
        import dataclasses
        p1 = dataclasses.replace(p, controls=("only",), drift=p.drift[:1],
                                 cost=p.cost[:1])
        op = nl.assemble(p1, g, q, ext, alpha=0.4)
        u = np.random.default_rng(2).normal(size=g.n_nodes)
        vals, policy = nl.apply_inf(op, u)
        np.testing.assert_array_equal(policy, 0)
        np.testing.assert_allclose(vals, apply_control(op, 0, u))

    def test_dominated_cost_picks_first_control(self):
        # identical dynamics, g2 = g1 + 1: policy must be control 0 everywhere
        p, g, q, ext, _ = small_setup(seed=9, vary_kernel=False)
        import dataclasses
        g1 = p.cost[0]
        p2 = dataclasses.replace(p, drift=(p.drift[0], p.drift[0]),
                                 cost=(g1, lambda x: g1(x) + 1.0))
        op = nl.assemble(p2, g, q, ext, alpha=0.4)
        u = np.random.default_rng(3).normal(size=g.n_nodes)
        _, policy = nl.apply_inf(op, u)
        np.testing.assert_array_equal(policy, 0)

    def test_drift_sign_argmin_matches_hand_analysis(self):
        # linear u: b·∇u decides; with u(x)=x the upwind difference is exact
        s = 0.75
        p = nl.ControlProblem(
            controls=("left", "right"),
            kernel=nl.KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                                 k=nl.constant_kernel(2 - 2 * s)),
            drift=(lambda x: np.full_like(np.asarray(x, float), -1.0),
                   lambda x: np.full_like(np.asarray(x, float), +1.0)),
            cost=(lambda x: np.zeros(np.asarray(x).shape[:-1]),) * 2)
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.function(
            lambda x: x[..., 0]), alpha=0.4)
        u = g.nodes[:, 0]
        vals, policy = nl.apply_inf(op, u)
        # each control per node: jump part identical; b=-1 gives -du/dx = -1,
        # b=+1 gives +1; the minimum picks the negative drift everywhere
        np.testing.assert_array_equal(policy, 0)


class TestMixed:
    def test_identity_diffusion_is_classical_stencil_1d(self):
        p = nl.constant_cost_problem(0.0, 1, local_identity=True)
        import dataclasses
        p = dataclasses.replace(
            p, drift=tuple(lambda x: np.zeros_like(np.asarray(x, float))
                           for _ in p.controls))
        g = nl.build_grid(1, 0.5, 4.0)
        op = nl.assemble(p, g, None, nl.ExteriorRule.zero(), alpha=0.3)
        m = op.base[0].toarray()
        i = g.origin_index
        h2 = g.hx**2
        assert m[i, i] == pytest.approx(-2 / h2)
        assert m[i, i - 1] == pytest.approx(1 / h2)
        assert m[i, i + 1] == pytest.approx(1 / h2)

    def test_nondominant_cross_term_rejected(self):
        def a_bad(x):
            x = np.atleast_2d(np.asarray(x, float))
            out = np.zeros((x.shape[0], 2, 2))
            out[:, 0, 0] = 1.0
            out[:, 1, 1] = 1.0
            out[:, 0, 1] = out[:, 1, 0] = 1.5
            return out

        p = nl.constant_cost_problem(0.0, 2, local_identity=True)
        import dataclasses
        p = dataclasses.replace(p, mixed=nl.MixedSpec(a=a_bad))
        g = nl.build_grid(2, 0.5, 4.0)
        with pytest.raises(nl.MonotonicityError, match="dominant"):
            nl.assemble(p, g, None, nl.ExteriorRule.zero(), alpha=0.3)

    def test_levy_part_annihilates_constants(self):
        s = 0.75

        def levy(x, y):
            r = np.linalg.norm(np.asarray(y, float), axis=-1)
            out = np.exp(-r) * r ** (-1.2)
            return np.broadcast_to(out, np.broadcast_shapes(
                np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()

        p = nl.constant_cost_problem(0.0, 1, local_identity=True)
        import dataclasses
        p = dataclasses.replace(p, mixed=nl.MixedSpec(
            a=p.mixed.a, levy_kernel=levy,
            levy_majorant=lambda y: np.exp(-np.linalg.norm(y, axis=-1))
            * np.linalg.norm(y, axis=-1) ** (-1.2)))
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.constant(2.5), alpha=0.3)
        u = np.full(g.n_nodes, 2.5)
        got = apply_control(op, 0, u)
        np.testing.assert_allclose(got, -0.3 * 2.5, atol=1e-10)


class TestPucci:
    def test_affine_annihilation(self):
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, 0.75, 5.0)
        u = 3.0 * g.nodes[:, 0] + 2.0
        rule = nl.ExteriorRule.function(lambda x: 3.0 * x[..., 0] + 2.0)
        for sign in ("+", "-"):
            out = nl.pucci_extremal(q, g, u, rule, sign, 0.8, 1.2)
            assert np.max(np.abs(out)) <= 1e-11

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_envelope_dominates_admissible_kernels(self, seed):
        s = 0.75
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        ext = nl.ExteriorRule.zero()
        rng = np.random.default_rng(seed)
        u = rng.normal(size=g.n_nodes)
        lam, Lam = 0.8, 1.2
        frac = rng.uniform(0.0, 1.0)

        def k(x, y):
            r = np.linalg.norm(np.asarray(y, float), axis=-1)
            val = lam + (Lam - lam) * (0.5 + 0.5 * np.cos(r * frac * 3))
            return (2 - 2 * s) * np.broadcast_to(val, np.broadcast_shapes(
                np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()

        I = jump_apply_reference(q, g, u, ext, k)
        Mp = nl.pucci_extremal(q, g, u, ext, "+", lam, Lam)
        Mm = nl.pucci_extremal(q, g, u, ext, "-", lam, Lam)
        assert np.all(Mm <= I + 1e-12)
        assert np.all(I <= Mp + 1e-12)

    def test_degenerate_class_reproduces_jump_part(self):
        s = 0.8
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        ext = nl.ExteriorRule.zero()
        u = np.random.default_rng(9).normal(size=g.n_nodes)
        lam = 0.9
        k = nl.constant_kernel((2 - 2 * s) * lam)
        I = jump_apply_reference(q, g, u, ext, k)
        np.testing.assert_allclose(nl.pucci_extremal(q, g, u, ext, "+", lam, lam),
                                   I, atol=1e-12)
        np.testing.assert_allclose(nl.pucci_extremal(q, g, u, ext, "-", lam, lam),
                                   I, atol=1e-12)

    def test_concave_bump_matches_signed_summation(self):
        # u = -|x|^2 near 0: every delta negative, so M+ uses lambda weights
        s = 0.75
        g = nl.build_grid(1, 0.25, 4.0)
        q = nl.build_quadrature(g, s, 5.0)
        u = -g.nodes[:, 0] ** 2
        rule = nl.ExteriorRule.function(lambda x: -x[..., 0] ** 2)
        lam, Lam = 0.8, 1.2
        got = nl.pucci_extremal(q, g, u, rule, "+", lam, Lam)[g.origin_index]
        # signed re-summation oracle
        i0 = g.origin_index
        x0 = g.nodes[i0]
        uu = lambda pts: -np.asarray(pts, float)[..., 0] ** 2
        acc = 0.0
        for j in range(q.n_offsets):
            y = q.half_offsets[j]
            dlt = float(uu(x0 + y) + uu(x0 - y) - 2 * uu(x0))
            t = q.pair_weights[j] * dlt
            acc += (2 - 2 * s) * (Lam * max(t, 0.0) - lam * max(-t, 0.0))
        e = np.array([q.hx])
        t = q.axis_coeff * float(uu(x0 + e) + uu(x0 - e) - 2 * uu(x0))
        acc += (2 - 2 * s) * (Lam * max(t, 0.0) - lam * max(-t, 0.0))
        rp = q.tail_probe_radius
        t = q.tail_mass * float(uu(x0 + rp) + uu(x0 - rp) - 2 * uu(x0))
        acc += (2 - 2 * s) * (Lam * max(t, 0.0) - lam * max(-t, 0.0))
        assert got == pytest.approx(acc, rel=1e-12)


class TestComparisonAndDump:
    def test_scheme_level_comparison(self):
        # subsolution below supersolution outside stays below inside
        p, g, q, ext, op = small_setup(seed=11, alpha=0.5, vary_kernel=False)
        solv = nl.solve_policy_iteration(op, 1e-11)
        op_low = nl.assemble(p, g, q, nl.ExteriorRule.constant(-1.0), alpha=0.5)
        solu = nl.solve_policy_iteration(op_low, 1e-11)
        assert np.all(solv.w >= solu.w - 1e-9)

    def test_dump_layout(self):
        p, g, q, ext, op = small_setup(hx=0.5, R=2.0)
        d = dump_stencils(op)
        assert d["controls"] == list(op.controls)
        assert len(d["stencils"]) == g.n_nodes * 2
        entry = d["stencils"][0]
        assert set(entry) == {"node", "control", "entries", "diagonal", "constant"}
        for e in entry["entries"]:
            assert e["weight"] >= -1e-13


class TestGoldenStencil:
    def test_dump_matches_golden_file(self):
        import json
        from pathlib import Path

        s = 0.75
        p = nl.ControlProblem(
            controls=("only",),
            kernel=nl.KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                                 k=nl.constant_kernel(2 - 2 * s)),
            drift=(lambda x: np.full_like(np.asarray(x, float), 0.5),),
            cost=(lambda x: np.asarray(x, float)[..., 0] ** 2,),
            zeroth=(lambda x: np.full(np.asarray(x).shape[:-1], -0.3),))
        g = nl.build_grid(1, 0.5, 2.0)
        q = nl.build_quadrature(g, s, 3.0)
        got = dump_stencils(nl.assemble(p, g, q, nl.ExteriorRule.zero()))
        golden = json.loads(
            (Path(__file__).parent / "golden" / "stencil_dump.json").read_text())
        assert got["controls"] == golden["controls"]
        assert len(got["stencils"]) == len(golden["stencils"])
        for a, b in zip(got["stencils"], golden["stencils"]):
            assert a["node"] == b["node"]
            assert a["diagonal"] == pytest.approx(b["diagonal"], rel=1e-12)
            assert a["constant"] == pytest.approx(b["constant"], rel=1e-12)
            assert len(a["entries"]) == len(b["entries"])
            for ea, eb in zip(a["entries"], b["entries"]):
                assert ea["offset"] == eb["offset"]
                assert ea["weight"] == pytest.approx(eb["weight"], rel=1e-12)


class TestTwoDimensional:
    def twod_problem(self, seed=21, s=0.8, with_cross=True):
        from conftest import smooth_drift, smooth_field, varying_kernel
        rng = np.random.default_rng(seed)

        def a_field(x):
            x = np.atleast_2d(np.asarray(x, float))
            n = x.shape[0]
            out = np.zeros((n, 2, 2))
            out[:, 0, 0] = 1.2 + 0.2 * np.cos(x[:, 0])
            out[:, 1, 1] = 1.1 + 0.2 * np.sin(x[:, 1])
            if with_cross:
                c = 0.3 * np.sin(x[:, 0] + x[:, 1])
                out[:, 0, 1] = out[:, 1, 0] = c
            return out

        return nl.ControlProblem(
            controls=("a", "b"),
            kernel=nl.KernelSpec(s=s, lambda_ell=0.7, Lambda_ell=1.3,
                                 k=varying_kernel(rng, s)),
            drift=(smooth_drift(rng, 2), smooth_drift(rng, 2)),
            cost=(smooth_field(rng, 2), smooth_field(rng, 2)),
            mixed=nl.MixedSpec(a=a_field))

    def test_dense_oracle_agreement_with_cross_terms(self):
        p = self.twod_problem()
        g = nl.build_grid(2, 0.5, 1.6)   # 13 nodes
        q = nl.build_quadrature(g, 0.8, 2.6)
        ext = nl.ExteriorRule.zero()
        op = nl.assemble(p, g, q, ext, alpha=0.4)
        oracles = build_dense_oracles(p, g, q, ext, alpha=0.4)
        for t in range(2):
            np.testing.assert_allclose(op.matrix(t).toarray(),
                                       oracles[t].matrix, atol=1e-12)
            np.testing.assert_allclose(op.gvals[t] + op.ext_const[t],
                                       oracles[t].const, atol=1e-12)

    def test_2d_policy_iteration_matches_dense_fixed_point(self):
        from oracles import dense_fixed_point
        p = self.twod_problem(seed=22)
        g = nl.build_grid(2, 0.5, 1.6)
        q = nl.build_quadrature(g, 0.8, 2.6)
        ext = nl.ExteriorRule.zero()
        op = nl.assemble(p, g, q, ext, alpha=0.5)
        sol = nl.solve_policy_iteration(op, 1e-11)
        u = dense_fixed_point(build_dense_oracles(p, g, q, ext, alpha=0.5),
                              tol=1e-12)
        assert np.max(np.abs(sol.w - u)) <= 1e-9

    def test_2d_pucci_envelope(self):
        p = self.twod_problem(seed=23)
        g = nl.build_grid(2, 0.5, 2.0)
        q = nl.build_quadrature(g, 0.8, 3.0)
        ext = nl.ExteriorRule.zero()
        u = np.random.default_rng(5).normal(size=g.n_nodes)
        I = jump_apply_reference(q, g, u, ext, p.kernel.kernel_for(0))
        Mp = nl.pucci_extremal(q, g, u, ext, "+", 0.7, 1.3)
        Mm = nl.pucci_extremal(q, g, u, ext, "-", 0.7, 1.3)
        assert np.all(Mm <= I + 1e-12)
        assert np.all(I <= Mp + 1e-12)

    def test_2d_affine_annihilation_assembled(self):
        p = self.twod_problem(seed=24, with_cross=False)
        import dataclasses
        p = dataclasses.replace(
            p, mixed=None,
            drift=tuple(lambda x: np.zeros_like(np.asarray(x, float))
                        for _ in p.controls),
            cost=tuple(lambda x: np.zeros(np.asarray(x).shape[:-1])
                       for _ in p.controls))
        g = nl.build_grid(2, 0.5, 2.0)
        q = nl.build_quadrature(g, 0.8, 3.0)

        def aff(x):
            x = np.asarray(x, float)
            return 1.5 * x[..., 0] - 0.7 * x[..., 1] + 0.2

        op = nl.assemble(p, g, q, nl.ExteriorRule.function(aff))
        vals = apply_control(op, 0, aff(g.nodes))
        assert np.max(np.abs(vals)) <= 1e-12

    def test_2d_levy_part_annihilates_constants(self):
        def levy(x, y):
            r = np.linalg.norm(np.asarray(y, float), axis=-1)
            out = np.exp(-r) * r ** (-2.5)
            return np.broadcast_to(out, np.broadcast_shapes(
                np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()

        import dataclasses
        p = nl.constant_cost_problem(0.0, 2, local_identity=True)
        p = dataclasses.replace(p, mixed=nl.MixedSpec(
            a=p.mixed.a, levy_kernel=levy,
            levy_majorant=lambda y: np.exp(-np.linalg.norm(y, axis=-1))
            * np.linalg.norm(y, axis=-1) ** (-2.5)))
        g = nl.build_grid(2, 0.5, 2.0)
        q = nl.build_quadrature(g, 0.75, 3.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.constant(1.3), alpha=0.4)
        u = np.full(g.n_nodes, 1.3)
        got = apply_control(op, 0, u)
        np.testing.assert_allclose(got, -0.4 * 1.3, atol=1e-10)
        # discrete maximum principle: zero cost, data in [0, 1.3]
        sol = nl.solve_policy_iteration(op, 1e-9)
        assert sol.converged
        assert np.all(sol.w >= -1e-10) and np.all(sol.w <= 1.3 + 1e-10)
