import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhjb import build_grid, build_quadrature

from oracles import (apply_quadrature_pointwise, fractional_laplacian_constant,
                     fractional_laplacian_reference)


def test_tail_mass_closed_form_1d():
    g = build_grid(1, 0.25, 8.0)
    for s in (0.6, 0.75, 0.9):
        q = build_quadrature(g, s, 16.0)
        assert q.tail_mass == pytest.approx(2.0 / (2 * s) * 16.0 ** (-2 * s), rel=1e-10)


def test_weights_nonnegative_and_offsets_half_represented():
    q = build_quadrature(build_grid(2, 0.5, 4.0), 0.8, 6.0)
    assert np.all(q.pair_weights >= 0)
    z = q.half_lattice
    assert np.all((z[:, 0] > 0) | ((z[:, 0] == 0) & (z[:, 1] > 0)))


@pytest.mark.parametrize("d", [1, 2])
def test_affine_annihilation_pointwise(d):
    q = build_quadrature(build_grid(d, 0.25, 4.0), 0.75, 6.0)
    coef = np.arange(1, d + 1, dtype=float)

    def u(x):
        return np.tensordot(np.asarray(x, float), coef, axes=([-1], [0])) + 2.0

    x = np.full(d, 0.5)
    val = apply_quadrature_pointwise(q, u, x, 1.0, tail_mode="rule")
    assert abs(val) <= 1e-12


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_cosine_consistency_coarse(s):
    # quick version of the consistency criterion; the sharp one is in acceptance
    k = fractional_laplacian_constant(1, s) / 2.0
    q1 = build_quadrature(build_grid(1, 2.0**-5, 4.0), s, 64.0)
    q2 = build_quadrature(build_grid(1, 2.0**-6, 4.0), s, 64.0)
    u = lambda x: np.cos(np.asarray(x)[..., 0])
    e1 = abs(apply_quadrature_pointwise(q1, u, np.zeros(1), k) + 1.0)
    e2 = abs(apply_quadrature_pointwise(q2, u, np.zeros(1), k) + 1.0)
    assert e1 < 1e-2
    assert e2 < e1


def test_quadratic_truncated_closed_form():
    s = 0.75
    q = build_quadrature(build_grid(1, 2.0**-6, 4.0), s, 32.0)
    u = lambda x: np.asarray(x)[..., 0] ** 2
    got = apply_quadrature_pointwise(q, u, np.array([0.7]), 2.0 - 2 * s, tail_mode="omit")
    want = fractional_laplacian_reference("quadratic-truncated", 0.7, s, r_far=32.0)
    assert got == pytest.approx(want, rel=2e-3)


def test_build_rejections():
    g = build_grid(1, 0.25, 8.0)
    with pytest.raises(ValueError):
        build_quadrature(g, 0.4, 16.0)
    with pytest.raises(ValueError):
        build_quadrature(g, 0.75, 8.5)  # tail would clip reachable exterior


@settings(max_examples=20, deadline=None)
@given(s=st.floats(min_value=0.55, max_value=0.95),
       hx=st.sampled_from([0.125, 0.25, 0.5]))
def test_nearest_neighbour_weight_stays_positive(s, hx):
    # the axis correction may go negative but never overpowers the neighbour mass
    q = build_quadrature(build_grid(1, hx, 4.0), s, 6.0)
    j = np.flatnonzero(np.all(q.half_lattice == np.array([1]), axis=1))[0]
    assert q.pair_weights[j] + q.axis_coeff > 0


def test_tail_probe_radius_is_mass_centroid():
    s = 0.75
    q = build_quadrature(build_grid(1, 0.25, 8.0), s, 16.0)
    assert q.tail_probe_radius == pytest.approx(16.0 * 2 * s / (2 * s - 1.0), rel=1e-14)


def test_2d_quadratic_exact_inside_regularisation_ball():
    # on u = |x|^2 the covered second moment must reproduce the refined
    # cell-wise integral of |y|^2 |y|^{-2-2s} over the cells inside r0
    s = 0.8
    hx = 0.25
    q = build_quadrature(build_grid(2, hx, 4.0), s, 6.0)
    norms = np.linalg.norm(q.half_offsets, axis=1)
    inside = norms <= q.reg_radius
    covered = np.sum(q.pair_weights[inside] * norms[inside] ** 2) \
        + 2.0 * q.axis_coeff * hx**2
    # independent reference: fine sub-cell sums over the regular cells plus a
    # polar-coordinate evaluation of the singular origin cell
    from scipy.integrate import quad

    t = (np.arange(96) + 0.5) / 96 - 0.5
    sx, sy = np.meshgrid(t * hx, t * hx, indexing="ij")
    sub = np.stack([sx.ravel(), sy.ravel()], axis=1)
    area = (hx / 96) ** 2
    centers = np.vstack([q.half_offsets[inside], -q.half_offsets[inside]])
    ref = 0.0
    for c in centers:
        pts = c[None, :] + sub
        r2 = np.sum(pts**2, axis=1)
        ref += np.sum(r2 * r2 ** (-(2 + 2 * s) / 2.0)) * area
    ang = quad(lambda phi: np.cos(phi) ** (2 * s - 2.0), 0.0, np.pi / 4.0)[0]
    ref += 8.0 * (0.5 * hx) ** (2 - 2 * s) / (2 - 2 * s) * ang
    assert covered == pytest.approx(ref, rel=2e-4)


def test_1d_cell_masses_telescope_to_total_measure():
    # exact cell integrals over [hx/2, R_far] telescope to the closed form
    for s in (0.6, 0.9):
        hx, r_far = 0.25, 8.0
        q = build_quadrature(build_grid(1, hx, 4.0), s, r_far)
        total = np.sum(q.pair_weights)
        want = 2.0 * ((hx / 2) ** (-2 * s) - r_far ** (-2 * s)) / (2 * s)
        assert total == pytest.approx(want, rel=1e-13)
