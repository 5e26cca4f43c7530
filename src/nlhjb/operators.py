"""Assembly of monotone discrete operators and the extremal Pucci envelopes.

Per control, the assembled stencil realises

    L_tau u + c_tau u + g_tau =
        jump quadrature of δ(u,x,y) k_tau(x,y)|y|^{-d-2s}
        + upwinded b_tau·∇u  (+ mixed local part, + Lévy–Itô part)
        + c_tau u + g_tau,

with nonnegative off-diagonal weights.  Exterior targets are folded into the
constant term through the :class:`~nlhjb.grid.ExteriorRule`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, ExteriorRule
from .problem import ControlProblem
from .quadrature import JumpQuadrature

__all__ = [
    "DiscreteOperator", "MonotonicityError", "assemble",
    "apply_control", "apply_inf", "pucci_extremal", "jump_apply_reference",
    "dump_stencils",
]


class MonotonicityError(RuntimeError):
    """A negative off-diagonal weight survived assembly."""


@dataclass(eq=False)
class DiscreteOperator:
    grid: Grid
    quadrature: JumpQuadrature | None
    controls: tuple[str, ...]
    base: list[sp.csr_matrix]        # jump + drift + local parts, no zeroth term
    cvals: list[np.ndarray]          # zeroth-order coefficient per control
    gvals: list[np.ndarray]          # running cost per control
    ext_const: list[np.ndarray]      # exterior-data contribution per control
    problem: ControlProblem | None = None

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def control_index(self, tau) -> int:
        if isinstance(tau, (int, np.integer)):
            return int(tau)
        try:
            return self.controls.index(tau)
        except ValueError:
            raise KeyError(f"unknown control label {tau!r}") from None

    def matrix(self, tau) -> sp.csr_matrix:
        t = self.control_index(tau)
        return (self.base[t] + sp.diags(self.cvals[t])).tocsr()

    def constant(self, tau) -> np.ndarray:
        t = self.control_index(tau)
        return self.gvals[t] + self.ext_const[t]

    def with_alpha(self, alpha: float) -> "DiscreteOperator":
        """Same dynamics with the discounted zeroth term c ≡ -alpha."""
        n = self.grid.n_nodes
        return DiscreteOperator(
            grid=self.grid, quadrature=self.quadrature, controls=self.controls,
            base=self.base,
            cvals=[np.full(n, -float(alpha)) for _ in self.controls],
            gvals=self.gvals, ext_const=self.ext_const, problem=self.problem)

    def c_floor(self) -> float:
        """Largest c_floor with sup_tau c_tau <= -c_floor on the grid."""
        return float(-max(cv.max() for cv in self.cvals))


def apply_control(op: DiscreteOperator, tau, u: np.ndarray) -> np.ndarray:
    """Evaluate (L_tau u + c_tau u + g_tau) at every node."""
    t = op.control_index(tau)
    u = np.asarray(u, dtype=float)
    return op.base[t] @ u + op.cvals[t] * u + op.gvals[t] + op.ext_const[t]


def _stacked_inf(op: DiscreteOperator, u: np.ndarray):
    """Per-control values, their pointwise min and the argmin policy.

    ``np.argmin`` returns the first minimum, so ties go to the lowest index.
    """
    vals = np.stack([apply_control(op, t, u) for t in range(len(op.controls))])
    policy = np.argmin(vals, axis=0)
    return vals, vals[policy, np.arange(vals.shape[1])], policy


def apply_inf(op: DiscreteOperator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise infimum over controls plus the argmin policy (lowest index wins)."""
    _, vmin, policy = _stacked_inf(op, u)
    return vmin, policy


# ---------------------------------------------------------------------------
# assembly


def _axis_unit(d: int, axis: int) -> np.ndarray:
    e = np.zeros(d, dtype=np.int64)
    e[axis] = 1
    return e


class _Workspace:
    """Shared index maps and exterior data for one (grid, quadrature, rule)."""

    def __init__(self, grid: Grid, q: JumpQuadrature | None, ext: ExteriorRule):
        self.grid, self.q, self.ext = grid, q, ext
        self.ax_idx_p, self.ax_idx_m = [], []
        self.ax_ext_p, self.ax_ext_m = [], []
        self.tail_ext = []
        for axis in range(grid.d):
            e = _axis_unit(grid.d, axis)
            ip = grid.node_index_of_lattice(grid.lattice + e)
            im = grid.node_index_of_lattice(grid.lattice - e)
            self.ax_idx_p.append(ip)
            self.ax_idx_m.append(im)
            self.ax_ext_p.append(self._axis_ext(ip, e))
            self.ax_ext_m.append(self._axis_ext(im, -e))
        if q is None:
            return
        if grid.n_nodes * q.n_offsets > 3e7:
            raise MemoryError("stencil would exceed the supported desk scale")
        z = grid.lattice[:, None, :]
        self.idx_p = grid.node_index_of_lattice(z + q.half_lattice[None, :, :])
        self.idx_m = grid.node_index_of_lattice(z - q.half_lattice[None, :, :])
        self.extv_p = self._exterior_values(self.idx_p, +1.0)
        self.extv_m = self._exterior_values(self.idx_m, -1.0)
        for axis in range(grid.d):
            e = _axis_unit(grid.d, axis)
            probe = q.tail_probe_radius * e.astype(float)
            self.tail_ext.append(ext(grid.nodes + probe) + ext(grid.nodes - probe))

    def _exterior_values(self, idx: np.ndarray, sign: float) -> np.ndarray:
        mask = idx < 0
        out = np.zeros(idx.shape)
        if np.any(mask):
            pts = (self.grid.nodes[:, None, :]
                   + sign * self.q.half_offsets[None, :, :])[mask]
            out[mask] = self.ext(pts)
        return out

    def _axis_ext(self, idx: np.ndarray, e: np.ndarray) -> np.ndarray:
        mask = idx < 0
        out = np.zeros(idx.shape[0])
        if np.any(mask):
            out[mask] = self.ext(self.grid.nodes[mask] + e * self.grid.hx)
        return out


class _StencilBuilder:
    def __init__(self, n: int):
        self.n = n
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.diag = np.zeros(n)
        self.const = np.zeros(n)

    def add_targets(self, weights: np.ndarray, idx: np.ndarray, extv: np.ndarray):
        """Scatter ``weights`` onto interior targets / exterior constant."""
        interior = idx >= 0
        self.rows.append(np.nonzero(interior)[0])
        self.cols.append(idx[interior])
        self.vals.append(weights[interior])
        outside = np.where(interior, 0.0, weights * extv)
        self.const += outside.sum(axis=-1) if weights.ndim > 1 else outside

    def matrix(self) -> sp.csr_matrix:
        n = self.n
        rows = np.concatenate([np.arange(n)] + self.rows)
        cols = np.concatenate([np.arange(n)] + self.cols)
        vals = np.concatenate([self.diag] + self.vals)
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        return m


def _kernel_values(kern, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(kern(x, y), dtype=float)


def _assemble_jump(bld: _StencilBuilder, ws: _Workspace, kern) -> None:
    grid, q = ws.grid, ws.q
    x = grid.nodes
    kv = _kernel_values(kern, x[:, None, :], q.half_offsets[None, :, :])
    w = q.pair_weights[None, :] * kv
    bld.add_targets(w, ws.idx_p, ws.extv_p)
    bld.add_targets(w, ws.idx_m, ws.extv_m)
    bld.diag -= 2.0 * w.sum(axis=1)
    for axis in range(grid.d):
        e = _axis_unit(grid.d, axis).astype(float) * grid.hx
        ka = _kernel_values(kern, x, e[None, :])
        wa = q.axis_coeff * ka
        bld.add_targets(wa, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(wa, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * wa
        probe = _axis_unit(grid.d, axis).astype(float) * q.tail_probe_radius
        kt = _kernel_values(kern, x, probe[None, :])
        wt = (q.tail_mass / grid.d) * kt
        bld.const += wt * ws.tail_ext[axis]
        bld.diag -= 2.0 * wt


def _assemble_drift(bld: _StencilBuilder, ws: _Workspace, b: np.ndarray) -> None:
    grid = ws.grid
    for axis in range(grid.d):
        bp = np.maximum(b[:, axis], 0.0) / grid.hx
        bm = np.maximum(-b[:, axis], 0.0) / grid.hx
        bld.add_targets(bp, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(bm, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= bp + bm


def _assemble_local(bld: _StencilBuilder, ws: _Workspace, grid: Grid,
                    a: np.ndarray, tau_label: str) -> None:
    h2 = grid.hx**2
    if grid.d == 1:
        w = a[:, 0, 0] / h2
        bld.add_targets(w, ws.ax_idx_p[0], ws.ax_ext_p[0])
        bld.add_targets(w, ws.ax_idx_m[0], ws.ax_ext_m[0])
        bld.diag -= 2.0 * w
        return
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
    s12 = np.abs(a12)
    if np.any(a11 - s12 < -1e-12) or np.any(a22 - s12 < -1e-12):
        i = int(np.argmin(np.minimum(a11 - s12, a22 - s12)))
        raise MonotonicityError(
            f"local matrix for control {tau_label} not diagonally dominant "
            f"at node {tuple(grid.nodes[i])}")
    for axis, w in ((0, (a11 - s12) / h2), (1, (a22 - s12) / h2)):
        bld.add_targets(w, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(w, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * w
    for sign, mask in ((+1, a12 >= 0), (-1, a12 < 0)):
        if not np.any(mask):
            continue
        e = np.array([1, sign], dtype=np.int64)
        ip = grid.node_index_of_lattice(grid.lattice + e)
        im = grid.node_index_of_lattice(grid.lattice - e)
        w = np.where(mask, s12 / h2, 0.0)  # δ along the diagonal carries 1/h²
        for idx, sgn in ((ip, +1.0), (im, -1.0)):
            extv = np.zeros(grid.n_nodes)
            miss = idx < 0
            if np.any(miss):
                extv[miss] = ws.ext(grid.nodes[miss] + sgn * e * grid.hx)
            bld.add_targets(w, idx, extv)
        bld.diag -= 2.0 * w


def _assemble_levy(bld: _StencilBuilder, ws: _Workspace, kern) -> np.ndarray:
    """Lévy–Itô part; returns the compensator drift to fold into upwinding."""
    grid, q = ws.grid, ws.q
    x = grid.nodes
    celld = grid.hx**grid.d
    beta = np.zeros((grid.n_nodes, grid.d))
    for sign, idx, extv in ((+1.0, ws.idx_p, ws.extv_p), (-1.0, ws.idx_m, ws.extv_m)):
        y = sign * q.half_offsets
        kv = _kernel_values(kern, x[:, None, :], y[None, :, :])
        w = celld * kv
        bld.add_targets(w, idx, extv)
        bld.diag -= w.sum(axis=1)
        inside = np.linalg.norm(y, axis=1) <= 1.0
        beta -= np.einsum("nm,md->nd", w[:, inside], y[inside])
    # singular cell around the origin: second-difference with ½ ∫ y_i² K
    qsub = 16
    t = (np.arange(qsub) + 0.5) / qsub - 0.5
    if grid.d == 1:
        sub = (t * grid.hx).reshape(-1, 1)
        area = grid.hx / qsub
    else:
        sx, sy = np.meshgrid(t * grid.hx, t * grid.hx, indexing="ij")
        sub = np.stack([sx.ravel(), sy.ravel()], axis=1)
        area = (grid.hx / qsub) ** 2
    k0 = _kernel_values(kern, x[:, None, :], sub[None, :, :])
    for axis in range(grid.d):
        coef = 0.5 * (k0 * sub[None, :, axis] ** 2).sum(axis=1) * area / grid.hx**2
        bld.add_targets(coef, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(coef, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * coef
    return beta


def _check_monotone(m: sp.csr_matrix, grid: Grid, label: str) -> None:
    coo = m.tocoo()
    off = coo.row != coo.col
    if not np.any(off):
        return
    vals = coo.data[off]
    tol = -1e-12 * max(1.0, float(np.abs(coo.data).max()))
    bad = vals < tol
    if np.any(bad):
        k = int(np.argmin(vals))
        rows, cols = coo.row[off][bad], coo.col[off][bad]
        i, j = int(rows[0]), int(cols[0])
        offset = grid.nodes[j] - grid.nodes[i]
        raise MonotonicityError(
            f"negative off-diagonal weight {vals.min():.3e} for control {label} "
            f"at node {tuple(grid.nodes[i])}, offset {tuple(offset)}")


def assemble(p: ControlProblem, grid: Grid, q: JumpQuadrature | None,
             ext: ExteriorRule, alpha: float | None = None) -> DiscreteOperator:
    """Assemble the per-control monotone stencils of L_tau + c_tau.

    ``alpha`` installs the discounted zeroth term c ≡ -alpha when the problem
    does not carry its own; monotonicity violations raise with the offending
    node, control and offset.  ``q`` may be ``None`` only for problems without
    a jump kernel or Lévy part.
    """
    needs_q = p.kernel is not None or (
        p.mixed is not None and p.mixed.levy_kernel is not None)
    if needs_q and q is None:
        raise ValueError("problem has jump terms but no quadrature was given")
    ws = _Workspace(grid, q, ext)
    n = grid.n_nodes
    base, cvals, gvals, ext_consts = [], [], [], []
    for t, label in enumerate(p.controls):
        bld = _StencilBuilder(n)
        if p.kernel is not None:
            _assemble_jump(bld, ws, p.kernel.kernel_for(t))
        b = np.asarray(p.drift[t](grid.nodes), dtype=float).reshape(n, grid.d)
        if p.mixed is not None:
            levy = p.mixed.levy_for(t)
            if levy is not None:
                b = b + _assemble_levy(bld, ws, levy)
            a = np.asarray(p.mixed.a_for(t)(grid.nodes), dtype=float)
            _assemble_local(bld, ws, grid, a.reshape(n, grid.d, grid.d), label)
        _assemble_drift(bld, ws, b)
        m = bld.matrix()
        _check_monotone(m, grid, label)
        base.append(m)
        if p.zeroth is not None:
            cvals.append(np.asarray(p.zeroth[t](grid.nodes), dtype=float))
        elif alpha is not None:
            cvals.append(np.full(n, -float(alpha)))
        else:
            cvals.append(np.zeros(n))
        gvals.append(np.asarray(p.cost[t](grid.nodes), dtype=float))
        ext_consts.append(bld.const.copy())
    return DiscreteOperator(grid=grid, quadrature=q, controls=p.controls,
                            base=base, cvals=cvals, gvals=gvals,
                            ext_const=ext_consts, problem=p)


# ---------------------------------------------------------------------------
# elementary δ decomposition (shared by the Pucci envelopes and reference path)


def _delta_fields(grid: Grid, q: JumpQuadrature, u: np.ndarray, ext: ExteriorRule):
    u = np.asarray(u, dtype=float)
    ws = _Workspace(grid, q, ext)
    up = np.where(ws.idx_p >= 0, u[np.maximum(ws.idx_p, 0)], ws.extv_p)
    um = np.where(ws.idx_m >= 0, u[np.maximum(ws.idx_m, 0)], ws.extv_m)
    dlt_off = up + um - 2.0 * u[:, None]
    dlt_axis = np.empty((grid.n_nodes, grid.d))
    dlt_tail = np.empty((grid.n_nodes, grid.d))
    for axis in range(grid.d):
        ap = np.where(ws.ax_idx_p[axis] >= 0,
                      u[np.maximum(ws.ax_idx_p[axis], 0)], ws.ax_ext_p[axis])
        am = np.where(ws.ax_idx_m[axis] >= 0,
                      u[np.maximum(ws.ax_idx_m[axis], 0)], ws.ax_ext_m[axis])
        dlt_axis[:, axis] = ap + am - 2.0 * u
        dlt_tail[:, axis] = ws.tail_ext[axis] - 2.0 * u
    return dlt_off, dlt_axis, dlt_tail


def jump_apply_reference(q: JumpQuadrature, grid: Grid, u: np.ndarray,
                         ext: ExteriorRule, kern) -> np.ndarray:
    """Slow reference evaluation of the jump part, term order matching pucci."""
    dlt_off, dlt_axis, dlt_tail = _delta_fields(grid, q, u, ext)
    x = grid.nodes
    kv = _kernel_values(kern, x[:, None, :], q.half_offsets[None, :, :])
    out = np.sum(kv * (q.pair_weights[None, :] * dlt_off), axis=1)
    for axis in range(grid.d):
        e = _axis_unit(grid.d, axis).astype(float) * grid.hx
        ka = _kernel_values(kern, x, e[None, :])
        out += ka * (q.axis_coeff * dlt_axis[:, axis])
        probe = _axis_unit(grid.d, axis).astype(float) * q.tail_probe_radius
        kt = _kernel_values(kern, x, probe[None, :])
        out += kt * ((q.tail_mass / grid.d) * dlt_tail[:, axis])
    return out


def pucci_extremal(q: JumpQuadrature, grid: Grid, u: np.ndarray,
                   ext: ExteriorRule, sign: str, lambda_ell: float,
                   Lambda_ell: float) -> np.ndarray:
    """Extremal operators over the kernel class (2-2s)λ ≤ k ≤ (2-2s)Λ.

    ``sign='+'`` gives M⁺u (supremum), ``sign='-'`` gives M⁻u; each elementary
    δ term is sign-split before weighting, so M⁻u ≤ I_k u ≤ M⁺u holds exactly
    in floating point against :func:`jump_apply_reference` for any admissible
    kernel.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    fac = 2.0 - 2.0 * q.s
    hi, lo = (Lambda_ell, lambda_ell) if sign == "+" else (lambda_ell, Lambda_ell)

    def extremal(t: np.ndarray) -> np.ndarray:
        return fac * (hi * np.maximum(t, 0.0) - lo * np.maximum(-t, 0.0))

    dlt_off, dlt_axis, dlt_tail = _delta_fields(grid, q, u, ext)
    out = np.sum(extremal(q.pair_weights[None, :] * dlt_off), axis=1)
    for axis in range(grid.d):
        out += extremal(q.axis_coeff * dlt_axis[:, axis])
        out += extremal((q.tail_mass / grid.d) * dlt_tail[:, axis])
    return out


# ---------------------------------------------------------------------------
# diagnostics


def dump_stencils(op: DiscreteOperator, max_nodes: int = 64) -> dict:
    """JSON-able stencil dump (node, control, offsets, weights, constant)."""
    grid = op.grid
    if grid.n_nodes > max_nodes:
        raise ValueError(f"stencil dump capped at {max_nodes} nodes")
    out = {"d": grid.d, "hx": grid.hx, "R": grid.R,
           "controls": list(op.controls), "stencils": []}
    for t, label in enumerate(op.controls):
        m = op.matrix(t).tocoo()
        for i in range(grid.n_nodes):
            sel = m.row == i
            entries = []
            diag = 0.0
            for j, v in zip(m.col[sel], m.data[sel]):
                if j == i:
                    diag = float(v)
                else:
                    entries.append({
                        "offset": list(grid.nodes[j] - grid.nodes[i]),
                        "weight": float(v),
                    })
            entries.sort(key=lambda e: tuple(e["offset"]))
            out["stencils"].append({
                "node": list(grid.nodes[i]), "control": label,
                "entries": entries, "diagonal": diag,
                "constant": float(op.gvals[t][i] + op.ext_const[t][i]),
            })
    return out
