"""Numerical certification of the drift condition sup_tau L_tau[V] <= k0 - h.

The generator is evaluated on grid nodes with exact Lyapunov-function values
at every quadrature offset (no exterior truncation for V); for power-law
families the mass beyond the far radius uses the |x+y| ~ |y| asymptotic in
closed form.  The envelope fit then finds admissible (k0, k1) for
h(x) = k1 |x|^p with the decay exponent taken from the problem data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, lattice_box
from .operators import _COMPENSATOR_RADIUS, _LatticeConvolution
from .problem import ControlProblem, LyapunovData
from .quadrature import JumpQuadrature

__all__ = ["LyapunovCertificate", "evaluate_lyapunov_drift", "fit_envelope"]

_SURFACE = {1: 2.0, 2: 2.0 * np.pi}


@dataclass(frozen=True)
class LyapunovCertificate:
    values: np.ndarray          # sup_tau L_tau[V] per node
    k0: float
    k1: float
    envelope_exponent: float
    violations: tuple[int, ...]  # node indices with values > k0 - k1 |x|^p
    worst_margin: float          # min over nodes of (k0 - k1|x|^p - values)
    tail_mode: str
    grid_d: int
    grid_hx: float
    grid_R: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0 and self.k0 > 0 and self.k1 > 0

    def to_dict(self) -> dict:
        return {
            "k0": self.k0, "k1": self.k1,
            "envelope_exponent": self.envelope_exponent,
            "violations": list(self.violations),
            "worst_margin": self.worst_margin,
            "tail_mode": self.tail_mode,
            "grid": {"d": self.grid_d, "hx": self.grid_hx, "R": self.grid_R},
            "certified_at_nodes_only": True,
        }


def _jump_on_V(ly: LyapunovData, grid: Grid, q: JumpQuadrature, kern) -> np.ndarray:
    x = grid.nodes
    Vx = np.asarray(ly.V(x), dtype=float)
    if hasattr(kern, "x_field"):
        # y-free kernel: the offset and axis sums are one lattice convolution
        # of V sampled on the box the offsets reach, scaled by k(x_i)
        conv = _LatticeConvolution(grid, q)
        hw = grid._halfwidth + conv.far
        Vbox = np.asarray(ly.V(lattice_box(grid.d, hw) * grid.hx), dtype=float)
        sums = conv.sums(Vbox.reshape((2 * hw + 1,) * grid.d))
        out = np.asarray(kern.x_field(x), dtype=float) * (sums - conv.weights.sum() * Vx)
    else:
        y = q.half_offsets
        kv = np.asarray(kern(x[:, None, :], y[None, :, :]), dtype=float)
        dlt = (np.asarray(ly.V(x[:, None, :] + y[None, :, :]), dtype=float)
               + np.asarray(ly.V(x[:, None, :] - y[None, :, :]), dtype=float)
               - 2.0 * Vx[:, None])
        out = np.einsum("nm,nm->n", kv, q.pair_weights[None, :] * dlt)
        for e in grid.hx * np.eye(grid.d)[:, None, :]:   # (1, d) per axis
            ka = np.asarray(kern(x, e), dtype=float)
            da = (np.asarray(ly.V(x + e), dtype=float)
                  + np.asarray(ly.V(x - e), dtype=float) - 2.0 * Vx)
            out += q.axis_coeff * ka * da
    # beyond R_far: exact power tail when the growth exponent is known
    probe = q.tail_probe_radius * np.eye(grid.d)[:1]
    kt = np.asarray(kern(x, probe), dtype=float)
    if ly.gamma is not None:
        s, d = q.s, grid.d
        grow = _SURFACE[d] * q.R_far ** (ly.gamma - 2 * s) / (2 * s - ly.gamma)
        out += kt * (2.0 * grow - 2.0 * Vx * q.tail_mass)
    else:
        vp = np.asarray(ly.V(x + probe), dtype=float)
        vm = np.asarray(ly.V(x - probe), dtype=float)
        out += kt * q.tail_mass * (vp + vm - 2.0 * Vx)
    return out


def evaluate_lyapunov_drift(p: ControlProblem, grid: Grid,
                            q: JumpQuadrature | None) -> np.ndarray:
    """sup over controls of L_tau[V] = jump quadrature on V + b·∇V (+ a:D²V
    + Lévy–Itô part), per node: the left side of the drift condition
    sup_tau L_tau[V] <= k0 - h.

    No zeroth-order term enters: the condition is on the generator alone.
    Drift and local parts use the analytic gradient and Hessian carried by the
    Lyapunov data; no numerical differentiation enters the certificate.
    """
    ly = p.lyapunov
    if ly is None:
        raise ValueError("problem carries no Lyapunov data")
    x = grid.nodes
    gV = np.asarray(ly.grad_V(x), dtype=float).reshape(grid.n_nodes, grid.d)
    out = np.full(grid.n_nodes, -np.inf)
    jumps: dict = {}   # jump part per kernel, shared by controls with one kernel
    for t in range(p.n_controls):
        val = np.zeros(grid.n_nodes)
        if p.kernel is not None:
            if q is None:
                raise ValueError("jump kernel present but no quadrature given")
            kern = p.kernel.kernel_for(t)
            if kern not in jumps:
                jumps[kern] = _jump_on_V(ly, grid, q, kern)
            val += jumps[kern]
        b = np.asarray(p.drift[t](x), dtype=float).reshape(grid.n_nodes, grid.d)
        val += np.einsum("nd,nd->n", b, gV)
        if p.mixed is not None:
            a = np.asarray(p.mixed.a_for(t)(x), dtype=float)
            H = np.asarray(ly.hess_V(x), dtype=float)
            val += np.einsum("nij,nij->n", a.reshape(-1, grid.d, grid.d), H)
            levy = p.mixed.levy_for(t)
            if levy is not None and q is not None:
                val += _levy_on_V(ly, grid, q, levy)
        out = np.maximum(out, val)
    return out


def _levy_on_V(ly: LyapunovData, grid: Grid, q: JumpQuadrature, kern) -> np.ndarray:
    # offsets only: the origin cell and the beyond-R_far tail are dropped
    # (integrable against |y|^2 K and the majorant respectively)
    x = grid.nodes
    Vx = np.asarray(ly.V(x), dtype=float)
    gV = np.asarray(ly.grad_V(x), dtype=float).reshape(grid.n_nodes, grid.d)
    out = np.zeros(grid.n_nodes)
    celld = grid.hx**grid.d
    for sign in (+1.0, -1.0):
        y = sign * q.half_offsets
        kv = np.asarray(kern(x[:, None, :], y[None, :, :]), dtype=float)
        vy = np.asarray(ly.V(x[:, None, :] + y[None, :, :]), dtype=float)
        comp = np.where(np.linalg.norm(y, axis=1)[None, :] <= _COMPENSATOR_RADIUS,
                        np.einsum("nd,md->nm", gV, y), 0.0)
        out += celld * np.einsum("nm,nm->n", kv, vy - Vx[:, None] - comp)
    return out


def fit_envelope(values: np.ndarray, lyap: LyapunovData,
                 grid: Grid) -> LyapunovCertificate:
    """Two-pass envelope fit: k1 from the outer-half decay with a 0.5 safety
    factor, then k0 from the max residual.

    When the outer values fail to decay (no admissible k1 > 0) the
    certificate comes back with the offending nodes listed instead.
    """
    values = np.asarray(values, dtype=float)
    r = grid.radii()
    shape = r**lyap.envelope_exponent
    outer = (r >= 0.5 * r.max()) & (shape > 0)
    tail_mode = ("power-asymptotic" if lyap.gamma is not None
                 else "centroid-probe")
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.where(shape[outer] > 0, -values[outer] / shape[outer], np.inf)
    k1_raw = float(decay.min()) if decay.size else -np.inf

    if k1_raw <= 0:
        inner = r <= 0.5 * r.max()
        k0 = max(1e-12, float(values[inner].max()) if inner.any() else 1e-12)
        k1 = 0.0
    else:
        k1 = 0.5 * k1_raw
        k0 = max(1e-12, float((values + k1 * shape).max()))
    gap = k0 - k1 * shape - values
    violations = tuple(int(i) for i in np.flatnonzero(gap < -1e-12))
    return LyapunovCertificate(
        values=values, k0=k0, k1=k1,
        envelope_exponent=lyap.envelope_exponent, violations=violations,
        worst_margin=float(gap.min()), tail_mode=tail_mode,
        grid_d=grid.d, grid_hx=grid.hx, grid_R=grid.R)
