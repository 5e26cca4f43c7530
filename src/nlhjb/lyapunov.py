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
from .operators import _COMPENSATOR_RADIUS, _LatticeConvolution, _tail_ext
from .problem import ControlProblem, LyapunovData
from .quadrature import _SURFACE, JumpQuadrature

__all__ = ["LyapunovCertificate", "evaluate_lyapunov_drift", "fit_envelope"]


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
            "ok": self.ok,
        }


def _jump_on_V(ly: LyapunovData, grid: Grid, q: JumpQuadrature, kern) -> np.ndarray:
    x = grid.nodes
    Vx = np.asarray(ly.V(x), dtype=float)
    if hasattr(kern, "x_field"):
        # y-free kernel: the offset sums are one lattice convolution
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
    # beyond R_far, tail_mass/d on the probe pair of each axis: the exact
    # power tail, weighted by the mean probe kernel, when the growth
    # exponent is known
    kt = [np.asarray(kern(x, p), dtype=float) for p in q.kernel_points[-grid.d:, None]]
    if ly.gamma is not None:
        s, d = q.s, grid.d
        grow = _SURFACE[d] * q.R_far ** (ly.gamma - 2 * s) / (2 * s - ly.gamma)
        out += sum(kt) / d * (2.0 * grow - 2.0 * Vx * q.tail_mass)
    else:
        for k, tail in zip(kt, _tail_ext(grid, q, ly.V)):
            out += k * (q.tail_mass / grid.d) * (tail - 2.0 * Vx)
    return out


def evaluate_lyapunov_drift(p: ControlProblem, grid: Grid,
                            q: JumpQuadrature | None) -> np.ndarray:
    """sup over controls of L_tau[V] = jump quadrature on V + b·∇V (+ a:D²V
    + Lévy–Itô part), per node: the left side of the drift condition
    sup_tau L_tau[V] <= k0 - h.

    No zeroth-order term enters: the condition is on the generator alone.
    Drift and local parts use the analytic gradient and Hessian carried by the
    Lyapunov data; no numerical differentiation enters the certificate.
    ``q`` may be ``None`` only when ``p.has_jumps`` is false, and must fit, as in assembly.
    """
    ly = p.lyapunov
    if ly is None:
        raise ValueError("problem carries no Lyapunov data")
    if p.has_jumps and q is None:
        raise ValueError("problem has jump terms but no quadrature was given")
    if q is not None:
        q.check_fit(grid, p.jump_order)
    x = grid.nodes
    gV = np.asarray(ly.grad_V(x), dtype=float).reshape(grid.n_nodes, grid.d)
    H = np.asarray(ly.hess_V(x), dtype=float) if p.mixed is not None else None
    out = np.full(grid.n_nodes, -np.inf)
    parts: dict = {}   # jump and Lévy parts per callable, shared by controls with one

    def part(on_V, kern):
        if (on_V, kern) not in parts:
            parts[on_V, kern] = on_V(ly, grid, q, kern)
        return parts[on_V, kern]

    for t in range(p.n_controls):
        val = np.zeros(grid.n_nodes)
        if p.kernel is not None:
            val += part(_jump_on_V, p.kernel.kernel_for(t))
        b = np.asarray(p.drift[t](x), dtype=float).reshape(grid.n_nodes, grid.d)
        val += np.einsum("nd,nd->n", b, gV)
        if p.mixed is not None:
            a = np.asarray(p.mixed.a_for(t)(x), dtype=float)
            val += np.einsum("nij,nij->n", a.reshape(-1, grid.d, grid.d), H)
            levy = p.mixed.levy_for(t)
            if levy is not None:
                val += part(_levy_on_V, levy)
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
