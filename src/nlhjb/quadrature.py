"""Quadrature of the symmetric jump operator I[u](x) = ∫ δ(u,x,y) k(x,y) |y|^{-d-2s} dy.

Discretisation layout, shared by every operator in the package:

* lattice offsets ``y_j = hx * z``, ``z != 0``, ``|y_j| <= R_far`` carry the
  measure mass of their midpoint cell (exact cell integrals in 1-d, refined
  sub-cell sums near the singularity in 2-d, plain midpoint far out);
* the singular cell around the origin plus a second-moment correction inside
  the regularisation radius ``r0`` are folded into one nearest-neighbour
  second-difference coefficient per axis (``axis_coeff``), which keeps the
  scheme exact on quadratics over the ball ``|y| <= r0``;
* the mass beyond ``R_far`` is lumped: the closed-form tail of the measure is
  applied to exterior data probed at the tail mass-centroid radius
  ``R_far * 2s/(2s-1)`` along each axis.

All weights are nonnegative; ``axis_coeff`` may be negative but the combined
weight on the nearest neighbours stays positive (checked at build time), so
assembled stencils are monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, lattice_box

__all__ = ["JumpQuadrature", "build_quadrature"]

_SURFACE = {1: 2.0, 2: 2.0 * np.pi}


@dataclass(frozen=True, eq=False)
class JumpQuadrature:
    """Precomputed offsets, weights and corrections for one (d, hx, s, R_far)."""

    d: int
    hx: float
    s: float
    R_far: float
    reg_radius: float
    half_lattice: np.ndarray   # (M, d) int, one representative per {y, -y} pair
    half_offsets: np.ndarray   # (M, d) float = hx * half_lattice
    pair_weights: np.ndarray   # (M,) mass of cell(+y) + cell(-y), >= 0
    axis_coeff: float          # second-difference coefficient per axis
    tail_mass: float           # ∫_{|y| > R_far} |y|^{-d-2s} dy
    tail_probe_radius: float   # mass centroid of the tail

    @property
    def n_offsets(self) -> int:
        return self.half_offsets.shape[0]


def _half_lattice(d: int, kmax: int) -> np.ndarray:
    """Lattice vectors z with z > 0 lexicographically (one per ± pair).

    The box is in lexicographic order and symmetric, so these are exactly
    the points after its centre, the origin.
    """
    box = lattice_box(d, kmax)
    return box[box.shape[0] // 2 + 1:]


def _cell_masses_1d(y: np.ndarray, hx: float, s: float, R_far: float):
    lo = y - hx / 2.0
    hi = np.minimum(y + hx / 2.0, R_far)
    hi[np.argmax(y)] = R_far  # outermost cell absorbs the ragged boundary
    mass = (lo ** (-2 * s) - hi ** (-2 * s)) / (2 * s)
    secm = (hi ** (2 - 2 * s) - lo ** (2 - 2 * s)) / (2 - 2 * s)
    return mass, secm


def _origin_cell_second_moment_2d(hx: float, s: float) -> float:
    """∫_{cell0} y_1² |y|^{-2-2s} dy over the square of side hx, in polar form.

    Equals half of ∫_{cell0} |y|^{-2s} dy by the square's symmetry; the radial
    integral is closed-form, leaving one smooth angular integral of
    cos(phi)^(2s-2) over [0, pi/4].  A 24-point Gauss-Legendre rule with an
    exactly rounded sum agrees with adaptive quadrature to 5e-16 relative
    for s in (1/2, 1).
    """
    x, w = np.polynomial.legendre.leggauss(24)
    half = np.pi / 8.0
    ang = half * math.fsum(w * np.cos((x + 1.0) * half) ** (2 * s - 2.0))
    total = 8.0 * (0.5 * hx) ** (2 - 2 * s) / (2 - 2 * s) * ang
    return 0.5 * total


def _subcell_quads_2d(centers: np.ndarray, hx: float, s: float, q: int):
    """Refined mass and axis second moments of square cells centred at ``centers``."""
    t = (np.arange(q) + 0.5) / q - 0.5
    sx, sy = np.meshgrid(t * hx, t * hx, indexing="ij")
    sub = np.stack([sx.ravel(), sy.ravel()], axis=1)        # (q*q, 2)
    pts = centers[:, None, :] + sub[None, :, :]             # (n, q*q, 2)
    r2 = np.sum(pts**2, axis=2)
    dens = r2 ** (-(2 + 2 * s) / 2.0)
    area = (hx / q) ** 2
    mass = dens.sum(axis=1) * area
    secm = (pts**2 * dens[:, :, None]).sum(axis=1) * area   # (n, 2)
    return mass, secm


def build_quadrature(grid: Grid, s: float, R_far: float,
                     reg_radius: float | None = None) -> JumpQuadrature:
    """Build the jump quadrature for a grid.

    Requires ``s in (1/2, 1)`` and ``R_far >= R + 1`` so that every exterior
    point reachable from the interior is covered by explicit offsets.
    """
    d, hx, R = grid.d, grid.hx, grid.R
    if not (0.5 < s < 1.0):
        raise ValueError(f"fractional order s={s} outside (1/2, 1)")
    if R_far < R + 1.0:
        raise ValueError(f"R_far={R_far} < grid radius + 1 = {R + 1.0}")

    if reg_radius is None:
        reg_radius = max(2 * hx, min(2.0, R_far / 4.0))
    r0 = float(reg_radius)

    kmax = int(np.floor(R_far / hx + 1e-12))
    z = _half_lattice(d, kmax)
    y = z.astype(float) * hx
    norms = np.linalg.norm(y, axis=1)
    keep = norms <= R_far * (1.0 + 1e-12)
    z, y, norms = z[keep], y[keep], norms[keep]

    if d == 1:
        mass, secm1 = _cell_masses_1d(norms, hx, s, R_far)
        pair_weights = 2.0 * mass
        inside = norms <= r0
        # exact second moment over |y| <= r0 (both signs), minus the cell around 0
        core = 2.0 * (hx / 2.0) ** (2 - 2 * s) / (2 - 2 * s)
        covered = 2.0 * np.sum(secm1[inside])
        second_exact = core + covered
        quad_second = np.sum(pair_weights[inside] * norms[inside] ** 2)
        axis_coeff = (second_exact - quad_second) / hx**2
    else:
        chebnorm = np.max(np.abs(z), axis=1)
        refine = max(int(np.ceil(r0 / hx)) + 1, 6)
        mass = hx**2 * norms ** (-(2 + 2 * s))
        secm = (mass[:, None] * y**2)
        near = chebnorm <= refine
        fine = chebnorm <= 1
        if np.any(near & ~fine):
            m16, s16 = _subcell_quads_2d(y[near & ~fine], hx, s, 16)
            mass[near & ~fine] = m16
            secm[near & ~fine] = s16
        if np.any(fine):
            m64, s64 = _subcell_quads_2d(y[fine], hx, s, 64)
            mass[fine] = m64
            secm[fine] = s64
        pair_weights = 2.0 * mass
        inside = norms <= r0
        if np.any(inside & (chebnorm > refine)):
            raise AssertionError("regularisation radius exceeds the refined band")
        second_exact = (_origin_cell_second_moment_2d(hx, s)
                        + 2.0 * np.sum(secm[inside, 0]))
        quad_second = np.sum(pair_weights[inside] * y[inside, 0] ** 2)
        axis_coeff = (second_exact - quad_second) / hx**2

    tail_mass = _SURFACE[d] / (2 * s) * R_far ** (-2 * s)
    probe = R_far * 2 * s / (2 * s - 1.0)

    q = JumpQuadrature(
        d=d, hx=hx, s=s, R_far=R_far, reg_radius=r0,
        half_lattice=z, half_offsets=y, pair_weights=pair_weights,
        axis_coeff=float(axis_coeff), tail_mass=float(tail_mass),
        tail_probe_radius=float(probe),
    )
    _check_monotone_neighbours(q)
    return q


def _check_monotone_neighbours(q: JumpQuadrature) -> None:
    """The axis correction must not overpower the nearest-neighbour weight."""
    for axis in range(q.d):
        e = np.zeros(q.d, dtype=np.int64)
        e[axis] = 1
        j = np.flatnonzero(np.all(q.half_lattice == e, axis=1))
        if j.size != 1:
            raise AssertionError("nearest axis offset missing from quadrature")
        if q.pair_weights[j[0]] + q.axis_coeff < 0:
            raise AssertionError(
                f"axis correction {q.axis_coeff} breaks monotonicity on axis {axis}"
            )
