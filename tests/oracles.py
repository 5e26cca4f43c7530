"""Brute-force and closed-form oracles and reference helpers for the tests.

Everything here is deliberately slow and simple.  Most of it is independent
of the production paths, reading only the problem data, the quadrature
weights and the assembled arrays: dense matrices filled by plain per-node
loops, damped fixed points, the augmented bordered system, stacked
frozen-policy rows, the pointwise quadrature sum with exact field values
(a constant kernel goes through ``nlhjb.problem.constant_kernel``), the
normalisation constant C(d, s) and adaptive quadrature against Fourier
symbols.

Five helpers reuse production code, and so check something other than
that code:

* ``jump_apply_reference`` sums the jump part from the same elementary δ
  fields as :func:`nlhjb.operators.pucci_extremal`, in the same term order,
  so the Pucci envelope bounds it exactly in floating point;
* ``stencil_matrix`` and ``dump_stencils`` read the rows of ``op.csr()``,
  which the golden file pins;
* ``verify_ergodic_pair`` recomputes a solution's residual with
  :func:`nlhjb.operators.apply_inf` and probes uniqueness by re-running
  :func:`nlhjb.ergodic.vanishing_discount` from a scaled alpha schedule;
* ``manufactured_pair`` reads L_t v off
  :func:`nlhjb.operators.apply_control`, so the pair it makes is exact for
  the discrete operator and checks the solvers, not the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import integrate
from scipy.special import gamma

from nlhjb.ergodic import (AlphaSchedule, DomainConfig, ErgodicSolution,
                           _window_indices, vanishing_discount)
from nlhjb.grid import Grid
from nlhjb.operators import DiscreteOperator, _delta_fields, apply_control, apply_inf
from nlhjb.problem import ControlProblem, ScalarField, constant_kernel
from nlhjb.quadrature import JumpQuadrature

__all__ = ["DenseOracle", "build_dense_oracles", "dense_apply",
           "dense_fixed_point", "bordered_reference", "manufactured_pair",
           "stacked_policy_system",
           "fractional_laplacian_constant", "apply_quadrature_pointwise",
           "fractional_laplacian_reference", "jump_apply_reference",
           "stencil_matrix", "dump_stencils", "PairVerification",
           "verify_ergodic_pair", "subcell_quads_2d_reference", "near_by_coo"]

_MAX_NODES = 200


@dataclass(eq=False)
class DenseOracle:
    control: str
    matrix: np.ndarray   # (n, n), includes the zeroth-order diagonal
    const: np.ndarray    # (n,)


def _node_lookup(grid: Grid):
    table = {tuple(z): i for i, z in enumerate(grid.lattice)}

    def find(z) -> int:
        return table.get(tuple(int(c) for c in z), -1)

    return find


def _exterior_at(ext: ScalarField | None, x: np.ndarray) -> float:
    """Exterior data at one point ``x`` (d,): 0 for ``None``; a scalar return broadcasts."""
    if ext is None:
        return 0.0
    return float(np.asarray(ext(x[None, :]), dtype=float).reshape(-1)[0])


def build_dense_oracles(p: ControlProblem, grid: Grid, q: JumpQuadrature,
                        ext: ScalarField | None,
                        alpha: float | None = None) -> list[DenseOracle]:
    """Dense re-summation of the scheme definition, one matrix per control."""
    n = grid.n_nodes
    if n > _MAX_NODES:
        raise ValueError(f"dense oracle capped at {_MAX_NODES} nodes, got {n}")
    find = _node_lookup(grid)
    d = grid.d
    oracles = []
    for t, label in enumerate(p.controls):
        M = np.zeros((n, n))
        const = np.zeros(n)
        kern = p.kernel.kernel_for(t) if p.kernel is not None else None
        for i in range(n):
            xi = grid.nodes[i]
            zi = grid.lattice[i]
            if kern is not None:
                for j in range(q.n_offsets):
                    yv = q.half_offsets[j]
                    k = float(np.asarray(kern(xi[None, :], yv[None, :])).reshape(-1)[0])
                    w = q.pair_weights[j] * k
                    for sgn in (+1, -1):
                        tgt = find(zi + sgn * q.half_lattice[j])
                        if tgt >= 0:
                            M[i, tgt] += w
                        else:
                            const[i] += w * _exterior_at(ext, xi + sgn * yv)
                    M[i, i] -= 2.0 * w
                for axis in range(d):
                    probe = np.zeros(d)
                    probe[axis] = q.tail_probe_radius
                    kt = float(np.asarray(kern(xi[None, :], probe[None, :])).reshape(-1)[0])
                    wt = q.tail_mass / d * kt
                    const[i] += wt * (_exterior_at(ext, xi + probe)
                                      + _exterior_at(ext, xi - probe))
                    M[i, i] -= 2.0 * wt
            b = np.asarray(p.drift[t](xi[None, :]), dtype=float).reshape(d)
            for axis in range(d):
                e = np.zeros(d)
                e[axis] = grid.hx
                ez = np.zeros(d, dtype=np.int64)
                ez[axis] = 1
                for comp, sgn in ((max(b[axis], 0.0), +1), (max(-b[axis], 0.0), -1)):
                    w = comp / grid.hx
                    if w == 0.0:
                        continue
                    tgt = find(zi + sgn * ez)
                    if tgt >= 0:
                        M[i, tgt] += w
                    else:
                        const[i] += w * _exterior_at(ext, xi + sgn * e)
                    M[i, i] -= w
            if p.mixed is not None:
                a = np.asarray(p.mixed.a_for(t)(xi[None, :]), dtype=float).reshape(d, d)
                if d == 1:
                    w = a[0, 0] / grid.hx**2
                    for sgn in (+1, -1):
                        tgt = find(zi + sgn * np.array([1]))
                        if tgt >= 0:
                            M[i, tgt] += w
                        else:
                            const[i] += w * _exterior_at(ext, xi + sgn * np.array([grid.hx]))
                    M[i, i] -= 2.0 * w
                else:
                    s12 = abs(a[0, 1])
                    diagdirs = [(np.array([1, 0]), (a[0, 0] - s12)),
                                (np.array([0, 1]), (a[1, 1] - s12))]
                    cross = np.array([1, 1 if a[0, 1] >= 0 else -1])
                    diagdirs.append((cross, s12))
                    for ez, coef in diagdirs:
                        w = coef / grid.hx**2
                        for sgn in (+1, -1):
                            tgt = find(zi + sgn * ez)
                            if tgt >= 0:
                                M[i, tgt] += w
                            else:
                                const[i] += w * _exterior_at(ext, xi + sgn * ez * grid.hx)
                        M[i, i] -= 2.0 * w
            if p.zeroth is not None:
                M[i, i] += float(np.asarray(p.zeroth[t](xi[None, :]))[0])
            elif alpha is not None:
                M[i, i] += -alpha
            const[i] += float(np.asarray(p.cost[t](xi[None, :]))[0])
        oracles.append(DenseOracle(control=label, matrix=M, const=const))
    return oracles


def dense_apply(oracle: DenseOracle, u: np.ndarray) -> np.ndarray:
    return oracle.matrix @ np.asarray(u, dtype=float) + oracle.const


def dense_fixed_point(oracles: list[DenseOracle], tol: float = 1e-10,
                      max_iter: int = 2_000_000) -> np.ndarray:
    """Damped iteration u <- u + eta * min_tau(M_tau u + q_tau) to a fixed point."""
    n = oracles[0].matrix.shape[0]
    dmax = max(float(np.max(np.abs(np.diag(o.matrix)))) for o in oracles)
    row_ok = all(np.all(np.sum(np.abs(o.matrix), axis=1)
                        + 2 * np.diag(o.matrix) < 0) for o in oracles)
    if not row_ok:
        raise RuntimeError("contraction factor >= 1; shrink the damping")
    eta = 1.0 / dmax
    u = np.zeros(n)
    for _ in range(max_iter):
        vals = np.min([dense_apply(o, u) for o in oracles], axis=0)
        if float(np.max(np.abs(vals))) <= tol:
            return u
        u = u + eta * vals
    raise RuntimeError("dense fixed point did not converge")


def bordered_reference(A: sp.spmatrix, rhs: np.ndarray, i0: int) -> tuple[np.ndarray, float]:
    """(v, m) with A v - m = rhs and v[i0] = 0, as one augmented system.

    The (N+1)-order matrix [[A, -1], [e_i0^T, 0]] is solved by sparse LU,
    not the order-N bordered matrix (A with column i0 set to -1) of the
    production solve.
    """
    n = A.shape[0]
    e0 = sp.csr_matrix((np.ones(1), ([0], [i0])), shape=(1, n))
    ones_col = sp.csr_matrix(-np.ones((n, 1)))
    aug = sp.bmat([[A, ones_col], [e0, None]], format="csc")
    sol = spla.spsolve(aug, np.concatenate([rhs, [0.0]]))
    return sol[:n], float(sol[n])


def manufactured_pair(op: DiscreteOperator, v: np.ndarray, m: float,
                      policy: np.ndarray, gap: float, alpha: float) -> DiscreteOperator:
    """``op`` with the running costs for which (v, m) is the exact discrete pair.

    Control t's cost is const_t = m + gap·[t != policy] - (L_t v + c_t v) on
    ``op.with_alpha(alpha)``, so there inf_t(L_t v + c_t v + const_t) = m,
    attained at ``policy`` alone when gap > 0.  L_t v + c_t v, with v zero
    outside the ball, is one :func:`apply_control` less the old cost; no
    solve and no dense matrix.  Only ``const`` is replaced: ``csr()`` of the
    result would rebuild ``const`` from the problem of an FFT operator.
    """
    opa = op.with_alpha(alpha)
    const = np.stack([m + gap * (t != policy) - (apply_control(opa, t, v) - opa.const[t])
                      for t in range(opa.problem.n_controls)])
    return replace(op, const=const)


def near_by_coo(A) -> sp.csr_matrix:
    """``A.near()`` of a :class:`~nlhjb.operators.FrozenSystem` built through
    COO from the ring's (row, column) pairs, as it was before it kept the
    ring's CSR row pointer: the same values, summed and sorted by scipy."""
    rows, cols, k, _ = A.op.grid.ring
    vals = np.asarray(A.local[rows, cols]).ravel()
    if A.op.jump is not None:
        conv = A.op.jump.conv
        w = conv.weights[(slice(conv.far - 1, conv.far + 2),) * conv.grid.d].flatten()
        w[w.size // 2] = conv.diag
        vals += A.scale[rows] * w[k]
    P = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
    P.eliminate_zeros()
    return P


def stacked_policy_system(op, policy: np.ndarray) -> sp.csr_matrix:
    """The frozen-policy ``local`` CSR by stacking and permuting rows.

    Control t's rows are ``op.base[t*N:(t+1)*N]``.  The rows each control
    gives are sliced out and stacked, the stack is put back into node order
    by a permutation, and the zeroth-order term is added to the diagonal.
    """
    n = op.n_nodes
    controls = range(op.problem.n_controls)
    rows = [np.flatnonzero(policy == t) for t in controls]
    A = sp.vstack([op.base[t * n:(t + 1) * n][r] for t, r in zip(controls, rows)],
                  format="csr")[np.argsort(np.concatenate(rows))]
    A.setdiag(A.diagonal() + op.c[policy, np.arange(n)])
    A.eliminate_zeros()
    return A


def stencil_matrix(op: DiscreteOperator, t: int) -> sp.csr_matrix:
    """Control t's explicit stencil with its zeroth-order term on the diagonal."""
    n = op.n_nodes
    return (op.csr().base[t * n:(t + 1) * n] + sp.diags(op.c[t])).tocsr()


# ---------------------------------------------------------------------------
# closed-form / adaptive-quadrature references for the jump operator


def subcell_quads_2d_reference(centers: np.ndarray, hx: float, s: float, q: int):
    """Refined mass and axis-0 second moment of square cells, the plain way:
    every sub-cell midpoint as an (n, q·q, 2) array, both axis moments summed
    and axis 0 kept.  The summation order the production function keeps."""
    t = (np.arange(q) + 0.5) / q - 0.5
    sx, sy = np.meshgrid(t * hx, t * hx, indexing="ij")
    sub = np.stack([sx.ravel(), sy.ravel()], axis=1)
    pts = centers[:, None, :] + sub[None, :, :]
    dens = np.sum(pts**2, axis=2) ** (-(2 + 2 * s) / 2.0)
    area = (hx / q) ** 2
    mass = dens.sum(axis=1) * area
    secm = (pts**2 * dens[:, :, None]).sum(axis=1) * area
    return mass, secm[:, 0]


def fractional_laplacian_constant(d: int, s: float) -> float:
    """Normalisation C(d,s) with (-Δ)^s e^{i ξ·x} = |ξ|^{2s} e^{i ξ·x}."""
    return float(4.0**s * gamma(d / 2.0 + s) * s
                 / (np.pi ** (d / 2.0) * gamma(1.0 - s)))


def apply_quadrature_pointwise(q: JumpQuadrature, u, x, kernel,
                               tail_mode: str = "zero_data") -> float:
    """Evaluate the discrete jump operator at one point with exact field values.

    ``u`` is a callable taking (n, d) arrays; ``kernel`` is a constant or a
    callable ``k(x, y)`` broadcasting over the offset axis.  ``tail_mode``:
    ``"zero_data"`` treats data beyond R_far as zero (keeps -2u(x) mass),
    ``"omit"`` truncates the operator at R_far, ``"rule"`` probes ``u`` itself
    at the tail centroid radius.
    """
    x = np.asarray(x, dtype=float).reshape(q.d)
    kern = kernel if callable(kernel) else constant_kernel(kernel)

    def k_at(y: np.ndarray) -> np.ndarray:
        return np.asarray(kern(x[None, :], y), dtype=float).reshape(-1)

    y = q.half_offsets
    ux = float(u(x[None, :])[0])
    dlt = u(x[None, :] + y) + u(x[None, :] - y) - 2.0 * ux
    val = float(np.dot(q.pair_weights * k_at(y), dlt))
    units = np.eye(q.d)[:, None, :]   # one (1, d) unit vector per axis
    if tail_mode == "omit":
        return val
    per_axis = q.tail_mass / q.d
    for e in q.tail_probe_radius * units:
        kt = float(k_at(e)[0])
        if tail_mode == "rule":
            data = float(u(x[None, :] + e)[0] + u(x[None, :] - e)[0])
        elif tail_mode == "zero_data":
            data = 0.0
        else:
            raise ValueError(f"unknown tail_mode {tail_mode!r}")
        val += per_axis * kt * (data - 2.0 * ux)
    return val


def _cos_measure_integral(s: float) -> float:
    """High-precision ∫_0^∞ (1-cos y) y^{-1-2s} dy by split adaptive quadrature.

    [0, eps] uses the alternating series of 1-cos integrated in closed form,
    the oscillatory tail goes through the dedicated cos-weight rule.
    """
    eps = 0.25
    series = 0.0
    term_pow, fact, sign = 2.0, 2.0, 1.0
    for _ in range(12):
        series += sign * eps ** (term_pow - 2 * s) / ((term_pow - 2 * s) * fact)
        sign = -sign
        term_pow += 2.0
        fact *= (term_pow - 1.0) * term_pow
    mid, _ = integrate.quad(lambda y: (1.0 - np.cos(y)) * y ** (-1 - 2 * s),
                            eps, 1.0, epsabs=1e-13, epsrel=1e-13)
    osc, _ = integrate.quad(lambda y: y ** (-1 - 2 * s), 1.0, np.inf,
                            weight="cos", wvar=1.0)
    return series + mid + 1.0 / (2 * s) - osc


def fractional_laplacian_reference(test: str, x: float, s: float,
                                   r_far: float | None = None) -> float:
    """Reference values of I[u](x) for named test functions (d = 1).

    ``cos`` uses the Fourier symbol cross-checked against adaptive quadrature
    of the singular integral; ``gaussian`` integrates the symbol directly;
    ``quadratic-truncated`` is the closed-form antiderivative of the operator
    truncated at ``r_far`` with kernel (2-2s).
    """
    if not (0.5 < s < 1.0):
        raise ValueError(f"s={s} outside (1/2,1)")
    if test == "cos":
        # symbol says I[cos](x) = -cos(x); the quadrature route recomputes the
        # normalising integral independently and must agree to 1e-8
        C = fractional_laplacian_constant(1, s)
        Q = _cos_measure_integral(s)
        if abs(2.0 * C * Q - 1.0) > 1e-8:
            raise AssertionError("normalisation cross-check failed")
        return float(-2.0 * C * Q * np.cos(x))
    if test == "gaussian":
        val, _ = integrate.quad(
            lambda xi: xi ** (2 * s) * np.exp(-xi * xi / 2.0) * np.cos(xi * x),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        return float(-2.0 / np.sqrt(2.0 * np.pi) * val)
    if test == "quadratic-truncated":
        if r_far is None:
            raise ValueError("quadratic-truncated needs r_far")
        return float(4.0 * r_far ** (2 - 2 * s))
    raise ValueError(f"unknown test function {test!r}")


# ---------------------------------------------------------------------------
# references that reuse production code (see the module docstring)


def jump_apply_reference(q: JumpQuadrature, grid: Grid, u: np.ndarray,
                         ext: ScalarField | None, kern) -> np.ndarray:
    """Slow reference evaluation of the jump part, term order matching pucci."""
    dlt_off, dlt_tail = _delta_fields(grid, q, u, ext)
    x = grid.nodes
    kv = np.asarray(kern(x[:, None, :], q.half_offsets[None, :, :]), dtype=float)
    out = np.sum(kv * (q.pair_weights[None, :] * dlt_off), axis=1)
    for axis in range(grid.d):
        probe = np.eye(grid.d)[axis] * q.tail_probe_radius
        kt = np.asarray(kern(x, probe[None, :]), dtype=float)
        out += kt * ((q.tail_mass / grid.d) * dlt_tail[:, axis])
    return out


def dump_stencils(op: DiscreteOperator, max_nodes: int = 64) -> dict:
    """JSON-able stencil dump (node, control, offsets, weights, constant)."""
    grid = op.grid
    if grid.n_nodes > max_nodes:
        raise ValueError(f"stencil dump capped at {max_nodes} nodes")
    op = op.csr()
    out = {"d": grid.d, "hx": grid.hx, "R": grid.R,
           "controls": list(op.problem.controls), "stencils": []}
    for t, label in enumerate(op.problem.controls):
        m = stencil_matrix(op, t).tocoo()
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
                "constant": float(op.const[t, i]),
            })
    return out


@dataclass(frozen=True)
class PairVerification:
    residual: float
    residual_ok: bool
    probe_lambda_diff: float | None
    probe_u_diff: float | None
    probe_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.residual_ok and (self.probe_ok is not False)


def verify_ergodic_pair(sol: ErgodicSolution, p: ControlProblem,
                        domain: DomainConfig, schedule: AlphaSchedule,
                        tol: float, *, uniqueness_probe: bool = True,
                        probe_factor: float = 0.8) -> PairVerification:
    """Recompute ||apply_inf(u) - lambda*|| on the inner window and probe
    uniqueness by re-running from the alpha schedule scaled by
    ``probe_factor``."""
    vals, _ = apply_inf(sol.operator, sol.u)
    win = _window_indices(sol.grid, domain.window_radius)
    residual = float(np.max(np.abs(vals[win] - sol.lambda_star)))
    residual_ok = residual <= 1.05 * tol

    dlam = du = None
    probe_ok = None
    if uniqueness_probe:
        scaled = tuple(a * probe_factor for a in schedule.alphas())
        other = vanishing_discount(p, domain, AlphaSchedule(explicit=scaled), tol)
        dlam = abs(other.lambda_star - sol.lambda_star)
        du = float(np.max(np.abs(other.u[win] - sol.u[win])))
        probe_ok = (dlam <= 5 * tol) and (du <= 5 * tol)
    return PairVerification(residual=residual, residual_ok=residual_ok,
                            probe_lambda_diff=dlam, probe_u_diff=du,
                            probe_ok=probe_ok)
