"""Independent brute-force and closed-form oracles for the test suite.

Everything here is deliberately slow and simple: dense matrices filled by
plain per-node loops, damped fixed points, and adaptive quadrature against
Fourier symbols.  None of it shares code with the sparse production paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import integrate

from nlhjb.grid import ExteriorRule, Grid
from nlhjb.problem import ControlProblem
from nlhjb.quadrature import JumpQuadrature, fractional_laplacian_constant

__all__ = ["DenseOracle", "build_dense_oracles", "dense_apply",
           "dense_fixed_point", "bordered_reference", "stacked_policy_system",
           "fractional_laplacian_reference"]

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


def build_dense_oracles(p: ControlProblem, grid: Grid, q: JumpQuadrature,
                        ext: ExteriorRule,
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
                            const[i] += w * float(ext((xi + sgn * yv)[None, :])[0])
                    M[i, i] -= 2.0 * w
                for axis in range(d):
                    e = np.zeros(d)
                    e[axis] = grid.hx
                    k = float(np.asarray(kern(xi[None, :], e[None, :])).reshape(-1)[0])
                    w = q.axis_coeff * k
                    ez = np.zeros(d, dtype=np.int64)
                    ez[axis] = 1
                    for sgn in (+1, -1):
                        tgt = find(zi + sgn * ez)
                        if tgt >= 0:
                            M[i, tgt] += w
                        else:
                            const[i] += w * float(ext((xi + sgn * e)[None, :])[0])
                    M[i, i] -= 2.0 * w
                    probe = np.zeros(d)
                    probe[axis] = q.tail_probe_radius
                    kt = float(np.asarray(kern(xi[None, :], probe[None, :])).reshape(-1)[0])
                    wt = q.tail_mass / d * kt
                    const[i] += wt * (float(ext((xi + probe)[None, :])[0])
                                      + float(ext((xi - probe)[None, :])[0]))
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
                        const[i] += w * float(ext((xi + sgn * e)[None, :])[0])
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
                            const[i] += w * float(
                                ext((xi + sgn * np.array([grid.hx]))[None, :])[0])
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
                                const[i] += w * float(
                                    ext((xi + sgn * ez * grid.hx)[None, :])[0])
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

    The (N+1)-order matrix [[A, -1], [e_i0^T, 0]] is solved by sparse LU:
    no elimination of m through A^{-1} 1, unlike the production solve.
    """
    n = A.shape[0]
    e0 = sp.csr_matrix((np.ones(1), ([0], [i0])), shape=(1, n))
    ones_col = sp.csr_matrix(-np.ones((n, 1)))
    aug = sp.bmat([[A, ones_col], [e0, None]], format="csc")
    sol = spla.spsolve(aug, np.concatenate([rhs, [0.0]]))
    return sol[:n], float(sol[n])


def stacked_policy_system(op, policy: np.ndarray) -> sp.csr_matrix:
    """The frozen-policy ``local`` CSR by stacking and permuting rows.

    Each control's rows are sliced out and stacked, the stack is put back
    into node order by a permutation, and the zeroth-order term is added
    to the diagonal.
    """
    controls = range(len(op.controls))
    rows = [np.flatnonzero(policy == t) for t in controls]
    A = sp.vstack([m[r] for m, r in zip(op.base, rows)],
                  format="csr")[np.argsort(np.concatenate(rows))]
    pick = (policy, np.arange(op.n_nodes))
    A.setdiag(A.diagonal() + np.stack(op.cvals)[pick])
    A.eliminate_zeros()
    return A


# ---------------------------------------------------------------------------
# closed-form / adaptive-quadrature references for the jump operator


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
