"""Quadrature of the symmetric jump operator I[u](x) = ∫ δ(u,x,y) k(x,y) |y|^{-d-2s} dy.

Discretisation layout, shared by every operator in the package:

* lattice offsets ``y_j = hx * z``, ``z != 0``, ``|y_j| <= R_far`` carry the
  measure mass of their midpoint cell (exact cell integrals in 1-d, refined
  sub-cell sums near the singularity in 2-d, plain midpoint far out);
* the singular cell around the origin plus a second-moment correction inside
  the regularisation radius ``r0``, one rule for every dimension, are folded
  into the pair weights of the nearest axis offsets ``±hx·e_i``, which keeps
  the scheme exact on quadratics over the ball ``|y| <= r0``;
* the mass beyond ``R_far`` is lumped: the closed-form tail of the measure is
  applied to exterior data probed at the tail mass-centroid radius
  ``R_far * 2s/(2s-1)`` along each axis.

All weights are nonnegative: the correction may be negative, but the folded
nearest-axis weight is checked at build time, so assembled stencils are
monotone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, lattice_box

__all__ = ["JumpQuadrature", "build_quadrature"]

_SURFACE = {1: 2.0, 2: 2.0 * np.pi}


@dataclass(frozen=True, eq=False)
class JumpQuadrature:
    """Precomputed offsets and weights for one (d, hx, s, R_far)."""

    d: int
    hx: float
    s: float
    R_far: float
    reg_radius: float
    half_lattice: np.ndarray   # (M, d) int, one representative per {y, -y} pair
    half_offsets: np.ndarray   # (M, d) float = hx * half_lattice
    pair_weights: np.ndarray   # (M,) mass of cell(+y) + cell(-y) (+ correction at e_i), >= 0
    tail_mass: float           # ∫_{|y| > R_far} |y|^{-d-2s} dy
    tail_probe_radius: float   # mass centroid of the tail

    @property
    def n_offsets(self) -> int:
        return self.half_offsets.shape[0]

    def check_fit(self, grid: Grid, s: float | None = None) -> None:
        """Raise ``ValueError`` unless this quadrature was built for ``grid``
        (same d and hx, R_far >= R + 1) and, when given, the order ``s``."""
        if (self.d, self.hx) != (grid.d, grid.hx) or self.R_far < grid.R + 1.0:
            raise ValueError(f"quadrature (d={self.d}, hx={self.hx}, R_far={self.R_far}) does "
                             f"not fit the grid (d={grid.d}, hx={grid.hx}, R={grid.R})")
        if s is not None and s != self.s:
            raise ValueError(f"quadrature of order s={self.s} used for order {s}")

    @property
    def kernel_points(self) -> np.ndarray:
        """Every y at which the scheme reads a kernel: the half offsets, then
        the tail probes R_c·e_i."""
        return np.concatenate([self.half_offsets, np.eye(self.d) * self.tail_probe_radius])


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


@functools.cache
def _leggauss24() -> tuple[np.ndarray, np.ndarray]:
    """The 24-point Gauss-Legendre nodes and weights, computed once."""
    return np.polynomial.legendre.leggauss(24)


def _origin_cell_second_moment_2d(hx: float, s: float) -> float:
    """∫_{cell0} y_1² |y|^{-2-2s} dy over the square of side hx, in polar form.

    Equals half of ∫_{cell0} |y|^{-2s} dy by the square's symmetry; the radial
    integral is closed-form, leaving one smooth angular integral of
    cos(phi)^(2s-2) over [0, pi/4].  A 24-point Gauss-Legendre rule with an
    exactly rounded sum agrees with adaptive quadrature to 5e-16 relative
    for s in (1/2, 1).
    """
    x, w = _leggauss24()
    half = np.pi / 8.0
    ang = half * math.fsum(w * np.cos((x + 1.0) * half) ** (2 * s - 2.0))
    total = 8.0 * (0.5 * hx) ** (2 - 2 * s) / (2 - 2 * s) * ang
    return 0.5 * total


def _subcell_quads_2d(centers: np.ndarray, hx: float, s: float, q: int):
    """Refined mass and axis-0 second moment of square cells centred at
    ``centers``, from q×q midpoint sub-cells.

    The squared coordinates are built per axis, (n, q) each, and (n, q·q)
    arrays only for the density and the moment's integrand.  Both sums keep
    the rounding of the full (n, q·q, 2) midpoint array: the mass is a plain
    row sum, and the moment adds the sub-cells one after another, as numpy's
    reduction over that array's middle axis does.
    """
    t = (np.arange(q) + 0.5) / q - 0.5
    x1 = (centers[:, 0, None] + t * hx) ** 2               # (n, q): sub-cell row a
    x2 = (centers[:, 1, None] + t * hx) ** 2               # (n, q): sub-cell column b
    n = centers.shape[0]
    dens = (x1[:, :, None] + x2[:, None, :]).reshape(n, q * q) ** (-(2 + 2 * s) / 2.0)
    area = (hx / q) ** 2
    mass = dens.sum(axis=1) * area
    moment = (x1[:, :, None] * dens.reshape(n, q, q)).reshape(n, q * q)
    secm = np.cumsum(moment, axis=1)[:, -1] * area
    return mass, secm


def build_quadrature(grid: Grid, s: float, R_far: float,
                     reg_radius: float | None = None) -> JumpQuadrature:
    """Build the jump quadrature for a grid.

    Requires ``s in (1/2, 1)`` and ``R_far >= R + 1`` so that every exterior
    point reachable from the interior is covered by explicit offsets.  Each
    dimension supplies only its cell masses, their axis-0 second moments and
    the origin cell's; the second-moment correction is then stated once.  In
    2-d it reads refined cells only: each ``|y| <= r0`` lies in a refined band.
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
        mass, secm = _cell_masses_1d(norms, hx, s, R_far)
        core = 2.0 * (hx / 2.0) ** (2 - 2 * s) / (2 - 2 * s)
    else:
        chebnorm = np.max(np.abs(z), axis=1)
        # |y| <= r0 implies |z|_inf <= ceil(r0/hx) < refine: its cell is refined
        refine = max(int(np.ceil(r0 / hx)) + 1, 6)
        mass = hx**2 * norms ** (-(2 + 2 * s))
        secm = mass * y[:, 0] ** 2
        for band, q in (((chebnorm > 1) & (chebnorm <= refine), 16), (chebnorm <= 1, 64)):
            mass[band], secm[band] = _subcell_quads_2d(y[band], hx, s, q)
        core = _origin_cell_second_moment_2d(hx, s)
    # exact second moment over |y| <= r0, both signs, minus the scheme's own
    pair_weights = 2.0 * mass
    inside = norms <= r0
    correction = (core + 2.0 * np.sum(secm[inside])
                  - np.sum(pair_weights[inside] * y[inside, 0] ** 2)) / hx**2

    # the correction is a second difference along each axis: fold it into
    # the pair weight of the nearest axis offset, which must stay >= 0
    for axis, e in enumerate(np.eye(d, dtype=np.int64)):
        j = np.flatnonzero(np.all(z == e, axis=1))
        if j.size != 1:
            raise AssertionError("nearest axis offset missing from quadrature")
        pair_weights[j[0]] += correction
        if pair_weights[j[0]] < 0:
            raise AssertionError(
                f"axis correction {correction} breaks monotonicity on axis {axis}")

    return JumpQuadrature(
        d=d, hx=hx, s=s, R_far=R_far, reg_radius=r0,
        half_lattice=z, half_offsets=y, pair_weights=pair_weights,
        tail_mass=float(_SURFACE[d] / (2 * s) * R_far ** (-2 * s)),
        tail_probe_radius=float(R_far * 2 * s / (2 * s - 1.0)))
