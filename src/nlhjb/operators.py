"""Assembly of monotone discrete operators and the extremal Pucci envelopes.

Per control, the assembled stencil realises

    L_tau u + c_tau u + g_tau =
        jump quadrature of δ(u,x,y) k_tau(x,y)|y|^{-d-2s}
        + upwinded b_tau·∇u  (+ mixed local part, + Lévy–Itô part)
        + c_tau u + g_tau,

with nonnegative off-diagonal weights.  Exterior targets are folded into the
constant term through the :class:`~nlhjb.grid.ExteriorRule`.

When every control's kernel reads no jump direction y (a tagged
:func:`~nlhjb.problem.x_kernel`, of which
:func:`~nlhjb.problem.constant_kernel` is the constant case) and there is
no mixed or Lévy part, node x_i's jump stencil is the k ≡ 1 stencil times
k_tau(x_i): one lattice convolution, scaled per control and node.
``assemble`` then keeps only the sparse drift stencils and applies the jump
part by FFT; the explicit CSR stencils, the oracle for that path, are built
on demand by :meth:`DiscreteOperator.csr`.  Kernels that read y keep the
CSR stencils.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, ExteriorRule, lattice_box
from .problem import ControlProblem, KernelSpec
from .quadrature import JumpQuadrature

__all__ = [
    "DiscreteOperator", "MonotonicityError", "assemble",
    "apply_control", "apply_inf", "pucci_extremal",
]


class MonotonicityError(RuntimeError):
    """A negative or non-finite stencil weight survived assembly."""


# The Lévy–Itô part compensates its jumps y with |y| <= this radius, here
# and in the drift certificate of :mod:`nlhjb.lyapunov`.
_COMPENSATOR_RADIUS = 1.0


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, a fast real FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _LatticeConvolution:
    """The jump quadrature of a kernel k ≡ 1 as a convolution on the lattice.

    The pair weight of each offset ±z and the axis correction on the nearest
    neighbours ±e_i sit on a (2F+1)^d weight image, F the far radius in
    lattice steps; ``diag`` is the node's own weight (offsets, axis
    correction and the lumped tail mass).  Sums over all targets of all nodes
    are one real FFT convolution with the image.
    """

    def __init__(self, grid: Grid, q: JumpQuadrature):
        d = grid.d
        F = int(np.abs(q.half_lattice).max())
        W = np.zeros((2 * F + 1,) * d)
        for sign in (1, -1):
            W[tuple((sign * q.half_lattice + F).T)] = q.pair_weights
            for axis in range(d):
                W[tuple(F + sign * _axis_unit(d, axis))] += q.axis_coeff
        self.grid, self.q, self.far, self.weights = grid, q, F, W
        self.diag = -(W.sum() + 2.0 * q.tail_mass)
        self._plans: dict[int, tuple] = {}
        self._near: sp.csr_matrix | None = None

    def near(self) -> sp.csr_matrix:
        """The k ≡ 1 jump matrix cut to offsets |z|_inf <= 1 (built once).

        Row i holds ``diag``, the node's full weight, on the diagonal and the
        image weight of each nearest lattice neighbour that is a node:
        tridiagonal in 1-d, a 9-point stencil in 2-d.
        """
        if self._near is None:
            grid, n = self.grid, self.grid.n_nodes
            rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, self.diag)]
            for z in lattice_box(grid.d, 1):
                if not z.any():
                    continue
                j = grid.node_index_of_lattice(grid.lattice + z)
                inside = np.flatnonzero(j >= 0)
                rows.append(inside)
                cols.append(j[inside])
                vals.append(np.full(inside.size, self.weights[tuple(self.far + z)]))
            self._near = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n))
        return self._near

    def _plan(self, A: int) -> tuple:
        """FFT length, weight transform and node indices for half-width ``A``.

        The length L >= A + K + F + 1 keeps the cyclic wrap-around off every
        node.  ``scatter`` is each node's flat index in the box of
        half-width A; ``gather`` its flat index in the inverse, whose leading
        axes keep only the nodes' range A - K..A + K.  Built once per ``A``.
        """
        plan = self._plans.get(A)
        if plan is None:
            d, F, K = self.grid.d, self.far, self.grid._halfwidth
            L = _fast_len(max(A + K + F + 1, 2 * F + 1, 2 * A + 1))
            wrapped = np.zeros((L,) * d)
            idx = np.arange(-F, F + 1) % L
            wrapped[np.ix_(*[idx] * d)] = self.weights
            lat = self.grid.lattice
            scatter = np.ravel_multi_index(tuple((lat + A).T), (2 * A + 1,) * d)
            gather = np.ravel_multi_index((*(lat[:, :-1] + K).T, lat[:, -1] + A),
                                          (2 * K + 1,) * (d - 1) + (L,))
            plan = self._plans[A] = (L, np.fft.rfftn(wrapped), scatter, gather)
        return plan

    def sums(self, image: np.ndarray) -> np.ndarray:
        """Σ_z W[z] f(x + z·hx) at every node, f given on a centred box.

        ``image`` holds f on the box of half-width A >= K (the grid's) in
        :func:`~nlhjb.grid.lattice_box` order.  The 1-D passes of
        ``np.fft.rfftn`` and ``irfftn`` run in their order, and the
        last-axis ``irfft`` only on the rows of the leading axes that hold
        nodes.  The inverse is left unnormalised and its values at the nodes
        are scaled once by 1/L^d: that reproduces ``scipy.fft.irfftn`` bit
        for bit, where numpy's own normalisation differs from it at
        round-off in 2-d.
        """
        d, K = self.grid.d, self.grid._halfwidth
        A = (image.shape[0] - 1) // 2
        L, hat, _, gather = self._plan(A)
        f = np.fft.rfft(image, L, axis=-1)
        for axis in range(d - 2, -1, -1):
            f = np.fft.fft(f, L, axis=axis)
        f *= hat
        for axis in range(d - 1):
            f = np.fft.ifft(f, L, axis=axis, norm="forward")
        rows = f[(slice(A - K, A + K + 1),) * (d - 1)]
        conv = np.fft.irfft(rows, L, axis=-1, norm="forward")
        return conv.ravel()[gather] * (1.0 / L**d)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Jump part with k ≡ 1 and zero exterior data, applied to ``u``."""
        K = self.grid._halfwidth
        scatter = self._plan(K)[2]
        image = np.zeros((2 * K + 1,) * self.grid.d)
        image.ravel()[scatter] = u
        return self.sums(image) + self.diag * u

    def exterior(self, ext: ExteriorRule) -> np.ndarray:
        """Constant term of the k ≡ 1 jump part from exterior data."""
        grid, q = self.grid, self.q
        hw = grid._halfwidth + self.far
        z = lattice_box(grid.d, hw)
        outside = grid.node_index_of_lattice(z) < 0
        image = np.zeros(z.shape[0])
        image[outside] = ext(z[outside] * grid.hx)
        const = self.sums(image.reshape((2 * hw + 1,) * grid.d))
        for tail in _tail_ext(grid, q, ext):
            const += (q.tail_mass / grid.d) * tail
        return const


@dataclass(eq=False)
class _NearFactor:
    """One slot: the near-field LU of the last frozen policy factored.

    Filled by :meth:`nlhjb.discounted._PolicySystem.near_factor`.
    ``key`` is the policy's bytes, ``ones`` the factor's solve of 1 (made
    on first use) and ``count`` the factorizations made so far.
    """

    key: bytes | None = None
    lu: object = None                 # scipy.sparse.linalg.SuperLU
    ones: np.ndarray | None = None
    count: int = 0


@dataclass(eq=False)
class _MatrixFreeJump:
    """FFT jump part of an operator: scale k_tau(x_i) on one convolution."""

    conv: _LatticeConvolution
    scale: np.ndarray                 # k_tau(x_i), shape (n_controls, N)
    ext: ExteriorRule                 # exterior rule of the CSR oracle
    stencils: tuple | None = None     # (base, ext_const) of the CSR oracle


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
    jump: _MatrixFreeJump | None = None   # set: base holds the drift part only
    # near-field LU memo of the frozen-policy solves: shared by with_alpha
    # copies, a fresh one for csr() copies
    near_factor: _NearFactor = dataclasses.field(default_factory=_NearFactor)

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

    def csr(self) -> "DiscreteOperator":
        """The same operator with explicit CSR stencils (built once, cached).

        Returns ``self`` when the stencils are already explicit.  This is
        where the stencil-size cap applies.
        """
        if self.jump is None:
            return self
        if self.jump.stencils is None:
            self.jump.stencils = _stencils(self.problem, self.grid, self.quadrature,
                                           self.jump.ext, matrix_free=False)
        base, ext_const = self.jump.stencils
        return dataclasses.replace(self, base=base, ext_const=ext_const, jump=None,
                                   near_factor=_NearFactor())

    def matrix(self, tau) -> sp.csr_matrix:
        t = self.control_index(tau)
        return (self.csr().base[t] + sp.diags(self.cvals[t])).tocsr()

    def constant(self, tau) -> np.ndarray:
        t = self.control_index(tau)
        return self.gvals[t] + self.ext_const[t]

    def with_alpha(self, alpha: float) -> "DiscreteOperator":
        """Same dynamics with the discounted zeroth term c ≡ -alpha."""
        n = self.grid.n_nodes
        return dataclasses.replace(
            self, cvals=[np.full(n, -float(alpha)) for _ in self.controls])

    def c_floor(self) -> float:
        """Largest c_floor with sup_tau c_tau <= -c_floor on the grid."""
        return float(-max(cv.max() for cv in self.cvals))


def _apply(op: DiscreteOperator, t: int, u: np.ndarray,
           ju: np.ndarray | None) -> np.ndarray:
    """apply_control given ``ju``, the FFT jump part with k ≡ 1 (or None)."""
    out = op.base[t] @ u + op.cvals[t] * u + op.gvals[t] + op.ext_const[t]
    if ju is not None:
        out += op.jump.scale[t] * ju
    return out


def apply_control(op: DiscreteOperator, tau, u: np.ndarray) -> np.ndarray:
    """Evaluate (L_tau u + c_tau u + g_tau) at every node."""
    t = op.control_index(tau)
    u = np.asarray(u, dtype=float)
    return _apply(op, t, u, None if op.jump is None else op.jump.conv(u))


def _stacked_inf(op: DiscreteOperator, u: np.ndarray):
    """Per-control values, their pointwise min and the argmin policy.

    ``np.argmin`` returns the first minimum, so ties go to the lowest index.
    """
    u = np.asarray(u, dtype=float)
    ju = None if op.jump is None else op.jump.conv(u)   # shared by all controls
    vals = np.stack([_apply(op, t, u, ju) for t in range(len(op.controls))])
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
        self.tail_ext = _tail_ext(grid, q, ext)

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


def _tail_ext(grid: Grid, q: JumpQuadrature, ext: ExteriorRule) -> list[np.ndarray]:
    """Exterior data at the two tail probes of each axis, summed per node."""
    out = []
    for axis in range(grid.d):
        probe = q.tail_probe_radius * _axis_unit(grid.d, axis).astype(float)
        out.append(ext(grid.nodes + probe) + ext(grid.nodes - probe))
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


def _check_band(kv: np.ndarray, spec: KernelSpec, label: str, x: np.ndarray,
                y: np.ndarray | None = None) -> None:
    """Reject kernel values outside the ellipticity band [(2-2s)λ, (2-2s)Λ].

    ``kv[i, ...]`` is the value at node ``x[i]`` (and offset ``y[j]`` for a
    2-d ``kv``).  Raises ``ValueError`` naming the control and the witness
    point of the value farthest outside.  Values that are not all finite are
    left to the finiteness checks, which name them first.
    """
    if not np.all(np.isfinite(kv)):
        return
    lo, hi, tol = spec.band()
    excess = np.maximum(lo - kv, kv - hi)
    bad = excess > tol
    if not np.any(bad):
        return
    k = np.unravel_index(int(np.argmax(np.where(bad, excess, -np.inf))), kv.shape)
    where = f"x={tuple(x[k[0]].tolist())}"
    if y is not None:
        where += f", y={tuple(y[k[1]].tolist())}"
    raise ValueError(
        f"kernel value {kv[k]:.6g} for control {label} at {where} lies outside "
        f"[(2-2s)λ, (2-2s)Λ] = [{lo:.6g}, {hi:.6g}]")


def _checked_kernel_values(kern, spec: KernelSpec, label: str, x: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """k(x_i, y_j) of shape (N, M), checked against the band and for symmetry.

    The quadrature gives the pair ±y one weight, so it needs
    k(x, -y) = k(x, y); a kernel that differs from its mirror by more than
    the band tolerance raises ``ValueError`` naming the control, ``x`` and
    ``y``.  Pairs with a non-finite value are left to the finiteness checks.
    """
    kv = _kernel_values(kern, x[:, None, :], y[None, :, :])
    _check_band(kv, spec, label, x, y)
    mirror = _kernel_values(kern, x[:, None, :], -y[None, :, :])
    both = np.isfinite(kv) & np.isfinite(mirror)
    gap = np.zeros(kv.shape)
    gap[both] = np.abs(kv[both] - mirror[both])
    if gap.max(initial=0.0) > spec.band()[2]:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ValueError(
            f"kernel for control {label} is not symmetric in y: k(x, y) = "
            f"{kv[i, j]:.6g} but k(x, -y) = {mirror[i, j]:.6g} at "
            f"x={tuple(x[i].tolist())}, y={tuple(y[j].tolist())}")
    return kv


def _assemble_jump(bld: _StencilBuilder, ws: _Workspace, kern, spec: KernelSpec,
                   label: str) -> None:
    """Jump stencils of kernel ``kern``, checked by :func:`_checked_kernel_values`."""
    grid, q = ws.grid, ws.q
    x = grid.nodes
    kv = _checked_kernel_values(kern, spec, label, x, q.half_offsets)
    w = q.pair_weights[None, :] * kv
    bld.add_targets(w, ws.idx_p, ws.extv_p)
    bld.add_targets(w, ws.idx_m, ws.extv_m)
    bld.diag -= 2.0 * w.sum(axis=1)
    for axis in range(grid.d):
        e = _axis_unit(grid.d, axis).astype(float) * grid.hx
        ka = _checked_kernel_values(kern, spec, label, x, e[None, :])[:, 0]
        wa = q.axis_coeff * ka
        bld.add_targets(wa, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(wa, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * wa
        probe = _axis_unit(grid.d, axis).astype(float) * q.tail_probe_radius
        kt = _checked_kernel_values(kern, spec, label, x, probe[None, :])[:, 0]
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
            f"at node {tuple(grid.nodes[i].tolist())}")
    for axis, w in ((0, (a11 - s12) / h2), (1, (a22 - s12) / h2)):
        bld.add_targets(w, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(w, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * w
    for sign, mask in ((+1, a12 >= 0), (-1, a12 < 0)):
        if not np.any(mask):
            continue
        w = np.where(mask, s12 / h2, 0.0)  # δ along the diagonal carries 1/h²
        for e in (np.array([1, sign]), -np.array([1, sign])):
            idx = grid.node_index_of_lattice(grid.lattice + e)
            bld.add_targets(w, idx, ws._axis_ext(idx, e))
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
        inside = np.linalg.norm(y, axis=1) <= _COMPENSATOR_RADIUS
        beta -= np.einsum("nm,md->nd", w[:, inside], y[inside])
    # singular cell around the origin: second-difference with ½ ∫ y_i² K
    qsub = 16
    t = (np.arange(qsub) + 0.5) / qsub - 0.5
    sub = np.stack(np.meshgrid(*[t * grid.hx] * grid.d, indexing="ij"),
                   axis=-1).reshape(-1, grid.d)
    area = (grid.hx / qsub) ** grid.d
    k0 = _kernel_values(kern, x[:, None, :], sub[None, :, :])
    for axis in range(grid.d):
        coef = 0.5 * (k0 * sub[None, :, axis] ** 2).sum(axis=1) * area / grid.hx**2
        bld.add_targets(coef, ws.ax_idx_p[axis], ws.ax_ext_p[axis])
        bld.add_targets(coef, ws.ax_idx_m[axis], ws.ax_ext_m[axis])
        bld.diag -= 2.0 * coef
    return beta


def _check_monotone(m: sp.csr_matrix, grid: Grid, label: str) -> None:
    coo = m.tocoo()
    bad = ~np.isfinite(coo.data)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise MonotonicityError(
            f"non-finite stencil weight {coo.data[k]} for control {label} "
            f"at node {tuple(grid.nodes[coo.row[k]].tolist())}")
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
            f"at node {tuple(grid.nodes[i].tolist())}, offset {tuple(offset.tolist())}")


def _node_factors(p: ControlProblem, grid: Grid) -> np.ndarray | None:
    """k_tau(x_i) of shape (n_controls, N) when the FFT jump applies, else None.

    The FFT jump applies when every control's kernel carries ``x_field``.
    Raises :class:`MonotonicityError` naming the control and the node where
    a factor is negative or not finite, and ``ValueError`` where it lies
    outside the ellipticity band (:func:`_check_band`).
    """
    if p.kernel is None or p.mixed is not None:
        return None
    kernels = [p.kernel.kernel_for(t) for t in range(p.n_controls)]
    if not all(hasattr(kern, "x_field") for kern in kernels):
        return None
    factors = np.stack([np.broadcast_to(np.asarray(kern.x_field(grid.nodes), dtype=float),
                                        (grid.n_nodes,)) for kern in kernels])
    bad = ~(np.isfinite(factors) & (factors >= 0))
    if np.any(bad):
        t, i = (int(j[0]) for j in np.nonzero(bad))
        raise MonotonicityError(
            f"jump kernel factor {factors[t, i]:.3e} for control {p.controls[t]} "
            f"at node {tuple(grid.nodes[i].tolist())}")
    for t, label in enumerate(p.controls):
        _check_band(factors[t], p.kernel, label, grid.nodes)
    return factors


def _stencils(p: ControlProblem, grid: Grid, q: JumpQuadrature | None,
              ext: ExteriorRule, matrix_free: bool):
    """Per-control CSR stencils (no zeroth term) and exterior constants.

    With ``matrix_free`` the jump part is left out, so no per-offset index
    maps are built.
    """
    ws = _Workspace(grid, None if matrix_free else q, ext)
    n = grid.n_nodes
    base, consts = [], []
    for t, label in enumerate(p.controls):
        bld = _StencilBuilder(n)
        if p.kernel is not None and not matrix_free:
            _assemble_jump(bld, ws, p.kernel.kernel_for(t), p.kernel, label)
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
        consts.append(bld.const.copy())
    return base, consts


def assemble(p: ControlProblem, grid: Grid, q: JumpQuadrature | None,
             ext: ExteriorRule, alpha: float | None = None) -> DiscreteOperator:
    """Assemble the per-control monotone stencils of L_tau + c_tau.

    ``alpha`` installs the discounted zeroth term c ≡ -alpha when the problem
    does not carry its own; monotonicity violations raise with the offending
    node, control and offset.  ``q`` may be ``None`` only for problems without
    a jump kernel or Lévy part.  Kernels that read no y, without mixed
    parts, give an operator with an FFT jump part (see the module
    docstring); there a negative or non-finite kernel value raises with the
    control and node.  On either path a kernel value outside
    [(2-2s)λ, (2-2s)Λ] raises ``ValueError`` with the control and the point.
    """
    needs_q = p.kernel is not None or (
        p.mixed is not None and p.mixed.levy_kernel is not None)
    if needs_q and q is None:
        raise ValueError("problem has jump terms but no quadrature was given")
    factors = _node_factors(p, grid)
    base, ext_consts = _stencils(p, grid, q, ext, matrix_free=factors is not None)
    jump = None
    if factors is not None:
        conv = _LatticeConvolution(grid, q)
        w = conv.weights
        if w.min() < -1e-12 * max(1.0, float(np.abs(w).max())):
            raise MonotonicityError(f"negative jump weight {w.min():.3e}")
        outside = conv.exterior(ext)
        for t in range(p.n_controls):
            ext_consts[t] = ext_consts[t] + factors[t] * outside
        jump = _MatrixFreeJump(conv=conv, scale=factors, ext=ext)
    n = grid.n_nodes
    cvals, gvals = [], []
    for t in range(p.n_controls):
        if p.zeroth is not None:
            cvals.append(np.asarray(p.zeroth[t](grid.nodes), dtype=float))
        elif alpha is not None:
            cvals.append(np.full(n, -float(alpha)))
        else:
            cvals.append(np.zeros(n))
        gvals.append(np.asarray(p.cost[t](grid.nodes), dtype=float))
    return DiscreteOperator(grid=grid, quadrature=q, controls=p.controls,
                            base=base, cvals=cvals, gvals=gvals,
                            ext_const=ext_consts, problem=p, jump=jump)


# ---------------------------------------------------------------------------
# elementary δ decomposition of the Pucci envelopes


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


def pucci_extremal(q: JumpQuadrature, grid: Grid, u: np.ndarray,
                   ext: ExteriorRule, sign: str, lambda_ell: float,
                   Lambda_ell: float) -> np.ndarray:
    """Extremal operators over the kernel class (2-2s)λ ≤ k ≤ (2-2s)Λ.

    ``sign='+'`` gives M⁺u (supremum), ``sign='-'`` gives M⁻u, the extremal
    class of the paper's ellipticity band.  Each elementary δ term (offset
    pair, axis correction, lumped tail) is sign-split before weighting, so
    M⁻u ≤ I_k u ≤ M⁺u holds exactly in floating point for any admissible
    kernel when I_k u sums the same terms in the same order.
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
