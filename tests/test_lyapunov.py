import numpy as np
import pytest

import nlhjb as nl
from nlhjb.lyapunov import _levy_on_V
from nlhjb.problem import LyapunovData


def affine_lyapunov(slope=3.0, intercept=2.0):
    # internal construct for the jump-annihilation property; V may dip
    # negative here because no validation runs on it
    return LyapunovData(
        V=lambda x: slope * np.asarray(x, float)[..., 0] + intercept,
        grad_V=lambda x: np.full_like(np.asarray(x, float), slope),
        hess_V=lambda x: np.zeros(
            (np.atleast_2d(np.asarray(x)).shape[0], 1, 1)),
        h=lambda x: np.ones(np.asarray(x).shape[:-1]),
        envelope_exponent=1.0, mu=0.0)


class TestEvaluate:
    def test_affine_lyapunov_jump_part_vanishes(self):
        import dataclasses
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        p = dataclasses.replace(
            p,
            drift=tuple(lambda x: np.zeros_like(np.asarray(x, float))
                        for _ in p.controls),
            lyapunov=affine_lyapunov())
        g = nl.build_grid(1, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.9, 5.0)
        vals = nl.evaluate_lyapunov_drift(p, g, q)
        assert np.max(np.abs(vals)) <= 1e-10

    def test_power_v_jump_decay_ratio_bounded(self):
        # |I[V](x)| <= C |x|^{gamma-2s} for the pure power profile: the
        # compensated ratio must stay within a small band across x = 8,16,32
        import dataclasses
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        p = dataclasses.replace(
            p, drift=tuple(lambda x: np.zeros_like(np.asarray(x, float))
                           for _ in p.controls))
        g = nl.build_grid(1, 0.5, 32.0)
        q = nl.build_quadrature(g, 0.9, 64.0)
        vals = nl.evaluate_lyapunov_drift(p, g, q)
        gamma, s = 1.6, 0.9
        ratios = []
        for xv in (8.0, 16.0, 32.0):
            i = g.node_index_of_lattice(
                np.array([[int(round(xv / g.hx))]]))[0]
            ratios.append(abs(vals[i]) * xv ** (2 * s - gamma))
        assert max(ratios) / min(ratios) < 3.0

    def test_drift_part_matches_analytic_formula(self):
        # b·∇V = -scale * gamma * |x|^{theta+gamma-1} for |x| >= 1
        gamma, theta, s = 1.6, 0.1, 0.9
        p = nl.power_drift_problem(gamma, theta, 1, s)
        x = np.linspace(2.0, 30.0, 15)[:, None]
        b = p.drift[0](x)
        gV = p.lyapunov.grad_V(x)
        got = np.sum(b * gV, axis=-1)
        want = -gamma * np.abs(x[:, 0]) ** (theta + gamma - 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_missing_lyapunov_raises(self):
        p = nl.constant_cost_problem(1.0, 1)
        g = nl.build_grid(1, 0.5, 8.0)
        q = nl.build_quadrature(g, 0.75, 9.0)
        with pytest.raises(ValueError, match="Lyapunov"):
            nl.evaluate_lyapunov_drift(p, g, q)


class TestMixed:
    """The paper's mixed local-nonlocal extension: a:D²V plus a Lévy-Itô part."""

    def problem_grid_quadrature(self):
        p = nl.power_drift_problem(1.6, 0.1, 2, 0.9)
        g = nl.build_grid(2, 0.5, 4.0)
        q = nl.build_quadrature(g, 0.9, 5.0)
        return p, g, q

    @staticmethod
    def diffusion(sigma2):
        return lambda x: sigma2 * np.broadcast_to(
            np.eye(2), (np.atleast_2d(x).shape[0], 2, 2)).copy()

    @staticmethod
    def levy(x, y):
        # x-dependent and not even in y, so each sign of each offset counts
        x, y = np.asarray(x, float), np.asarray(y, float)
        ry = np.linalg.norm(y, axis=-1)
        return ((1.0 + 0.3 * np.cos(x[..., 0])) * (1.0 + 0.2 * np.tanh(y[..., 0]))
                * np.exp(-ry) * ry ** -2.5)

    def test_local_part_adds_sigma2_laplacian(self):
        import dataclasses
        gamma, d, sigma2 = 1.6, 2, 0.7
        p, g, q = self.problem_grid_quadrature()
        mixed = dataclasses.replace(p, mixed=nl.MixedSpec(a=self.diffusion(sigma2)))
        lap = nl.evaluate_lyapunov_drift(mixed, g, q) - nl.evaluate_lyapunov_drift(p, g, q)
        r = g.radii()
        out = r > 1.0
        assert np.count_nonzero(out) > 20
        want = sigma2 * gamma * (gamma + d - 2) * r[out] ** (gamma - 2)
        np.testing.assert_allclose(lap[out], want, rtol=1e-10, atol=1e-12)

    def test_levy_part_matches_per_node_offset_sum(self):
        import dataclasses
        p, g, q = self.problem_grid_quadrature()
        ly = p.lyapunov
        got = _levy_on_V(ly, g, q, self.levy)
        want = np.empty(g.n_nodes)
        for i, x in enumerate(g.nodes):
            vx, gv = ly.V(x[None])[0], ly.grad_V(x[None])[0]
            total = 0.0
            for y in np.concatenate([q.half_offsets, -q.half_offsets]):
                comp = gv @ y if np.linalg.norm(y) <= 1.0 else 0.0
                total += self.levy(x, y) * (ly.V((x + y)[None])[0] - vx - comp)
            want[i] = g.hx**2 * total
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # evaluate_lyapunov_drift adds it to every control's value
        local = dataclasses.replace(p, mixed=nl.MixedSpec(a=self.diffusion(1.0)))
        both = dataclasses.replace(p, mixed=nl.MixedSpec(
            a=self.diffusion(1.0), levy_kernel=self.levy,
            levy_majorant=lambda y: 1.2 * np.exp(-np.linalg.norm(y, axis=-1))))
        diff = (nl.evaluate_lyapunov_drift(both, g, q)
                - nl.evaluate_lyapunov_drift(local, g, q))
        np.testing.assert_allclose(diff, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_levy_part_compensates_like_the_assembled_operator(self, d):
        # On a linear V the assembled Lévy part is exact: upwinded first
        # differences and the origin cell's second difference of V are exact,
        # so both sides differ only if they compensate different balls |y| <= r
        slope = np.array([0.7, -0.4])[:d]

        def V(x):
            return 2.0 + np.asarray(x, float) @ slope

        ly = LyapunovData(
            V=V, grad_V=lambda x: np.broadcast_to(slope, np.shape(x)).copy(),
            hess_V=lambda x: np.zeros((np.atleast_2d(x).shape[0], d, d)),
            h=lambda x: np.ones(np.shape(x)[:-1]), envelope_exponent=1.0, mu=0.0)

        def levy(x, y):
            # x-dependent and not even in y, as in :meth:`levy`, of order 1.5
            x, y = np.asarray(x, float), np.asarray(y, float)
            ry = np.linalg.norm(y, axis=-1)
            return ((1.0 + 0.3 * np.cos(x[..., 0])) * (1.0 + 0.2 * np.tanh(y[..., 0]))
                    * np.exp(-ry) * ry ** -(d + 1.5))

        p = nl.ControlProblem(
            controls=("tau",), kernel=None, lyapunov=ly,
            drift=(lambda x: np.zeros(np.shape(x)),),
            cost=(lambda x: np.zeros(np.shape(x)[:-1]),),
            mixed=nl.MixedSpec(
                a=lambda x: np.zeros((np.atleast_2d(x).shape[0], d, d)), levy_kernel=levy,
                levy_majorant=lambda y: 1.2 * np.exp(-np.linalg.norm(y, axis=-1))))
        g = nl.build_grid(d, 0.5, 3.0)
        q = nl.build_quadrature(g, 0.75, 4.0)
        op = nl.assemble(p, g, q, nl.ExteriorRule.function(V))
        got = nl.apply_control(op, 0, V(g.nodes))
        np.testing.assert_allclose(got, _levy_on_V(ly, g, q, levy), rtol=0, atol=1e-12)
        assert np.max(np.abs(got)) > 0.01


class TestFitEnvelope:
    def test_constant_negative_field(self):
        # values = -1 with exponent 1: k1 bounded by min over outer nodes of
        # 1/|x|, halved for safety; k0 floored at the tiny epsilon
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        import dataclasses
        ly = dataclasses.replace(p.lyapunov, envelope_exponent=1.0)
        g = nl.build_grid(1, 0.5, 8.0)
        vals = np.full(g.n_nodes, -1.0)
        cert = nl.fit_envelope(vals, ly, g)
        assert cert.ok
        assert cert.k1 == pytest.approx(0.5 / 8.0)
        assert cert.k0 >= 1e-12
        assert np.all(vals <= cert.k0 - cert.k1 * g.radii() ** 1.0 + 1e-12)

    def test_power_drift_certificate_exists(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.25, 32.0)
        q = nl.build_quadrature(g, 0.9, 64.0)
        cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, g, q),
                               p.lyapunov, g)
        assert cert.ok
        assert cert.k0 > 0 and cert.k1 > 0
        assert cert.violations == ()
        assert cert.worst_margin >= 0.0

    def test_flipped_drift_has_violations(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9, drift_sign=+1.0)
        g = nl.build_grid(1, 0.25, 32.0)
        q = nl.build_quadrature(g, 0.9, 64.0)
        cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, g, q),
                               p.lyapunov, g)
        assert not cert.ok
        assert len(cert.violations) > 0

    def test_certificate_soundness_recheck(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 16.0)
        q = nl.build_quadrature(g, 0.9, 32.0)
        cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, g, q),
                               p.lyapunov, g)
        shape = g.radii() ** cert.envelope_exponent
        assert np.all(cert.values <= cert.k0 - cert.k1 * shape + 1e-12)

    def test_a2_proxy_cost_over_h_decreases_outward(self):
        # sup|g|/h falls off on the outer half for the builtin cost profile
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 32.0)
        r = g.radii()
        sup_g = np.max([gg(g.nodes) for gg in p.cost], axis=0)
        h = p.lyapunov.h(g.nodes)
        outer = r >= 16.0
        ratio = sup_g[outer] / h[outer]
        order = np.argsort(r[outer])
        assert np.all(np.diff(ratio[order]) <= 1e-15)

    def test_serialization_shape(self):
        p = nl.power_drift_problem(1.6, 0.1, 1, 0.9)
        g = nl.build_grid(1, 0.5, 16.0)
        q = nl.build_quadrature(g, 0.9, 32.0)
        cert = nl.fit_envelope(nl.evaluate_lyapunov_drift(p, g, q),
                               p.lyapunov, g)
        d = cert.to_dict()
        assert d["certified_at_nodes_only"] is True
        assert set(d) >= {"k0", "k1", "envelope_exponent", "violations",
                          "tail_mode", "grid"}
