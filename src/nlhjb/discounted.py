"""Discounted bounded-domain solves: inf_tau(L_tau w + c_tau w + g_tau) = 0.

Howard policy iteration is the solver (frozen-policy linear solve, then
pointwise policy improvement); a damped value iteration is a slower,
independent alternative for the same fixed point.  ``solve_normalized``
treats the origin-normalised unknown pair (v, m) with v = 0 exterior data,
which is the formulation the ergodic driver relies on: constant cost shifts
move m exactly and never touch v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .operators import DiscreteOperator, _stacked_inf, apply_inf
from .problem import ControlProblem

__all__ = [
    "DiscountedSolution", "NormalizedSolution", "BarrierReport",
    "solve_policy_iteration", "solve_value_iteration", "solve_normalized",
    "check_barrier",
]


@dataclass(eq=False)
class DiscountedSolution:
    w: np.ndarray
    policy: np.ndarray
    residual_inf_norm: float
    iterations: int
    alpha: float | None
    converged: bool
    trace: list[tuple[int, float, int]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


@dataclass(eq=False)
class NormalizedSolution:
    """Pair (v, m): v solves inf(L v + g) + c v - m = 0, v(origin) = 0."""

    v: np.ndarray
    m: float
    policy: np.ndarray
    residual_inf_norm: float
    iterations: int
    alpha: float
    converged: bool
    trace: list[tuple[int, float, int]] = field(default_factory=list)
    linear_solves: dict = field(default_factory=dict)
    krylov_iterations: int = 0


def _policy_improvement(vals: np.ndarray, old_policy: np.ndarray,
                        vmin: np.ndarray) -> float:
    """How much the greedy policy improves on the frozen one (>= 0)."""
    cur = vals[old_policy, np.arange(old_policy.shape[0])]
    return float(np.max(cur - vmin))


class _MatrixFreeSystem(spla.LinearOperator):
    """Frozen-policy system of an operator with an FFT jump part.

    Row i is control ``policy[i]``'s: its jump part scaled by
    k_{policy[i]}(x_i), plus the row-gathered drift stencil with c on the
    diagonal (``local``).  ``tocsr`` and ``tocsc`` make it a drop-in for the
    CSR system in :func:`_solve_linear` and :func:`_solve_bordered`; they
    build that system from ``op.csr()``.
    """

    def __init__(self, op: DiscreteOperator, policy: np.ndarray,
                 local: sp.csr_matrix):
        super().__init__(dtype=float, shape=local.shape)
        self.op, self.policy, self.local = op, policy, local
        self.scale = op.jump.scale[policy, np.arange(policy.shape[0])]
        self._near_lu = None

    def _matvec(self, x):
        x = np.ravel(x)
        return self.scale * self.op.jump.conv(x) + self.local @ x

    def near(self) -> sp.csr_matrix:
        """The system cut to lattice offsets |z|_inf <= 1, full diagonal kept.

        Its off-diagonals are >= 0 and -near is strictly diagonally dominant
        by rows (c < 0), so it is a nonsingular M-matrix.
        """
        return (sp.diags(self.scale) @ self.op.jump.conv.near() + self.local).tocsr()

    def preconditioner(self) -> spla.LinearOperator:
        """Solve with the sparse LU of :meth:`near`, factored on first use.

        A symmetric minimum-degree ordering with diagonal pivots: a symmetric
        permutation keeps the strict diagonal dominance, which then holds in
        every Schur complement, so no pivot is zero.  ``splu`` raises
        ``RuntimeError`` on a singular factor.
        """
        if self._near_lu is None:
            self._near_lu = spla.splu(self.near().tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
        return spla.LinearOperator(self.shape, matvec=self._near_lu.solve, dtype=float)

    def tocsr(self) -> sp.csr_matrix:
        return _policy_system(self.op.csr(), self.policy)[0]

    def tocsc(self) -> sp.csc_matrix:
        return self.tocsr().tocsc()


def _policy_system(op: DiscreteOperator, policy: np.ndarray):
    """Frozen-policy system and constant: row i of control ``policy[i]``.

    The system is a CSR matrix, or a :class:`_MatrixFreeSystem` when the
    operator applies its jump part by FFT.
    """
    controls = range(len(op.controls))
    rows = [np.flatnonzero(policy == t) for t in controls]
    A = sp.vstack([m[r] for m, r in zip(op.base, rows)],
                  format="csr")[np.argsort(np.concatenate(rows))]
    pick = (policy, np.arange(op.n_nodes))
    A.setdiag(A.diagonal() + np.stack(op.cvals)[pick])
    A.eliminate_zeros()
    if op.jump is not None:
        A = _MatrixFreeSystem(op, policy, A)
    return A, np.stack([op.constant(t) for t in controls])[pick]


class _IterationCount:
    """BiCGStab ``callback`` that counts the iterations it is called for."""

    def __init__(self):
        self.n = 0

    def __call__(self, _xk):
        self.n += 1


def _krylov(A, b: np.ndarray, atol: float, maxiter: int,
            x0: np.ndarray | None = None,
            callback=None) -> tuple[np.ndarray, float] | None:
    """Preconditioned BiCGStab to an absolute sup residual ``atol``.

    The preconditioner is the sparse LU of the near field for a
    :class:`_MatrixFreeSystem` (shared by every solve on that system) and
    Jacobi for a CSR matrix.  Returns the answer and its true sup residual,
    or ``None`` when the near-field factor fails, BiCGStab stops
    unconverged (``info != 0``) or the answer is not finite.  BiCGStab's
    recurred residual can drift from the true one; an answer reported
    converged with a true residual above ``atol`` is restarted once from
    itself, which resets the drift, under the same ``maxiter``.  The
    residual returned may still exceed ``atol``.  ``callback`` is passed to
    BiCGStab, which calls it once per iteration.
    """
    if isinstance(A, _MatrixFreeSystem):
        try:
            M = A.preconditioner()
        except RuntimeError:
            return None
    else:
        M = sp.diags(1.0 / A.diagonal())
    x = x0
    for _ in range(2):
        x, info = spla.bicgstab(A, b, x0=x, M=M, rtol=0.0, atol=atol,
                                maxiter=maxiter, callback=callback)
        if info != 0:
            return None
        r = float(np.max(np.abs(A @ x - b)))
        if not r > atol:
            break
    return (x, r) if np.isfinite(r) else None


def _solve_linear(A, rhs: np.ndarray, atol: float, x0: np.ndarray | None = None,
                  callback=None) -> tuple[np.ndarray, str]:
    """Iterative solve (:func:`_krylov`, capped at 500) with sparse-LU fallback.

    ``A`` is a CSR matrix or a :class:`_MatrixFreeSystem`; returns the
    solution and the solver that produced it, ``"bicgstab"`` or ``"splu"``.
    BiCGStab's answer is kept only if its sup residual is at most ``atol``.
    """
    out = _krylov(A, rhs, atol, 500, x0, callback)
    if out is not None and out[1] <= atol:
        return out[0], "bicgstab"
    return spla.spsolve(A.tocsc(), rhs), "splu"


def _solve_bordered(A, rhs: np.ndarray, i0: int, atol: float,
                    callback=None) -> tuple[np.ndarray, float, str]:
    """Bordered frozen-policy solve: A v - m = rhs with v[i0] = 0.

    Returns (v, m, solver tag).  For a :class:`_MatrixFreeSystem` this
    tries two :func:`_krylov` solves on A to ``atol/100``, y2 = A^{-1} 1
    and y1 = A^{-1} rhs, each capped at ceil(N/4) iterations and both
    preconditioned by the one near-field LU factor of A; a failed first
    solve skips the second.  Then
    m = -y1[i0]/y2[i0] and v = y1 + m y2.  -A is a nonsingular M-matrix
    (monotone stencils, c < 0), so ||A^{-1}||_inf = max|A^{-1} 1|, which is
    at most ainv = max|y2| / (1 - e) with e = ||A y2 - 1||.  With r the true
    sup residual of the bordered system, the pair is then within
    ainv ||r|| (1 + ainv / (|y2[i0]| - ainv e)) of the exact one in v and m.
    The pair is kept (tag ``"bicgstab"``) only if that bound is at most
    ``atol``; a NaN fails the test.  The bound does not depend on the
    preconditioner.  Otherwise, and for CSR systems, the bordered matrix
    built from ``A.tocsr()`` is solved by sparse LU (tag ``"splu"``).
    """
    n = A.shape[0]
    if isinstance(A, _MatrixFreeSystem):
        ys = []
        for b in (np.ones(n), rhs):
            out = _krylov(A, b, atol / 100, -(-n // 4), callback=callback)
            if out is None:
                break
            ys.append(out)
        if len(ys) == 2:
            (y2, e), (y1, _) = ys
            m = -y1[i0] / y2[i0]
            v = y1 + m * y2
            v[i0] = 0.0
            ainv = float(np.max(np.abs(y2))) / (1.0 - e)
            den = abs(y2[i0]) - ainv * e
            err = ainv * float(np.max(np.abs(A @ v - m - rhs))) * (1.0 + ainv / den)
            if e < 1.0 and den > 0.0 and err <= atol:
                return v, float(m), "bicgstab"
    e0 = sp.csr_matrix((np.ones(1), (np.zeros(1, dtype=int), np.array([i0]))),
                       shape=(1, n))
    ones_col = sp.csr_matrix((-np.ones(n), (np.arange(n), np.zeros(n, dtype=int))),
                             shape=(n, 1))
    aug = sp.bmat([[A.tocsr(), ones_col], [e0, None]], format="csc")
    sol = spla.spsolve(aug, np.concatenate([rhs, [0.0]]))
    return sol[:n], float(sol[n]), "splu"


def _howard(op: DiscreteOperator, solve, tol: float, max_iter: int,
            x0: np.ndarray | None, policy0: np.ndarray | None):
    """Howard loop: frozen-policy solve, then greedy policy improvement.

    ``solve(A, rhs, x)`` returns the frozen-policy solution and the scalar
    shift m that the residual inf_tau(...) - m is measured against (0 for the
    plain discounted problem).  Returns (x, m, policy, iterations, converged,
    trace, monotone_violation).
    """
    n = op.n_nodes
    policy = np.zeros(n, dtype=np.int64) if policy0 is None else policy0.copy()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    trace: list[tuple[int, float, int]] = []
    mono_violation = 0.0
    prev_x = None
    m = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        A, const = _policy_system(op, policy)
        x, m = solve(A, -const, x)
        if not (np.all(np.isfinite(x)) and np.isfinite(m)):
            raise ValueError("frozen-policy solve returned non-finite values; "
                             "singular system or diagonal dominance violated")
        vals_all, vmin, new_policy = _stacked_inf(op, x)
        residual = float(np.max(np.abs(vmin - m)))
        changes = int(np.count_nonzero(new_policy != policy))
        improvement = _policy_improvement(vals_all, policy, vmin)
        trace.append((it, residual, changes))
        if prev_x is not None:
            mono_violation = max(mono_violation, float(np.max(x - prev_x)))
        prev_x = x.copy()
        if residual <= tol and (changes == 0 or improvement <= 0.1 * tol):
            converged = True
            break
        policy = new_policy
    return x, m, policy, it, converged, trace, mono_violation


def solve_policy_iteration(op: DiscreteOperator, tol: float,
                           max_iter: int = 60,
                           w0: np.ndarray | None = None,
                           policy0: np.ndarray | None = None) -> DiscountedSolution:
    """Howard iteration for the discounted problem.

    Requires strict diagonal dominance (sup_tau c_tau <= -c_floor < 0); the
    frozen-policy systems are solved iteratively to an absolute sup residual
    of tol/10, below the Howard stopping tol.
    Non-convergence is a flagged result, never an exception.
    ``diagnostics["linear_solves"]`` counts the frozen-policy solves by the
    solver that produced them (``"bicgstab"``, or ``"splu"`` on fallback);
    ``diagnostics["krylov_iterations"]`` counts their BiCGStab iterations.
    """
    c_floor = op.c_floor()
    if not (c_floor > 0):
        raise ValueError(
            f"policy iteration needs sup_tau c_tau < 0 (got c_floor={-c_floor:.3g})")
    lin_atol = max(tol / 10.0, 1e-14)
    alpha = None
    if all(np.allclose(cv, cv[0]) for cv in op.cvals):
        common = {float(-cv[0]) for cv in op.cvals}
        if len(common) == 1:
            alpha = common.pop()

    solves = {"bicgstab": 0, "splu": 0}
    count = _IterationCount()

    def solve(A, rhs, x0):
        x, tag = _solve_linear(A, rhs, lin_atol, x0=x0, callback=count)
        solves[tag] += 1
        return x, 0.0

    w, _, policy, it, converged, trace, mono_violation = _howard(
        op, solve, tol, max_iter, w0, policy0)
    vals, _ = apply_inf(op, w)
    return DiscountedSolution(
        w=w, policy=policy, residual_inf_norm=float(np.max(np.abs(vals))),
        iterations=it, alpha=alpha, converged=converged, trace=trace,
        diagnostics={"monotone_violation": mono_violation, "c_floor": c_floor,
                     "linear_solves": solves, "krylov_iterations": count.n},
    )


def solve_value_iteration(op: DiscreteOperator, tol: float,
                          max_iter: int = 200_000) -> DiscountedSolution:
    """Damped pointwise fixed point u <- u + eta * apply_inf(u).

    A slower alternative to :func:`solve_policy_iteration` that needs no
    linear solve; the tests use it as an independent reference.
    """
    u = np.zeros(op.n_nodes)
    dmax = max(float(np.max(np.abs(op.diagonal(t))))
               for t in range(len(op.controls)))
    eta = 1.0 / dmax
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        vals, policy = apply_inf(op, u)
        residual = float(np.max(np.abs(vals)))
        if residual <= tol:
            break
        u = u + eta * vals
    vals, policy = apply_inf(op, u)
    return DiscountedSolution(
        w=u, policy=policy, residual_inf_norm=float(np.max(np.abs(vals))),
        iterations=it, alpha=None, converged=residual <= tol,
        diagnostics={"eta": eta},
    )


def solve_normalized(op: DiscreteOperator, alpha: float, tol: float,
                     max_iter: int = 60,
                     v0: np.ndarray | None = None,
                     policy0: np.ndarray | None = None) -> NormalizedSolution:
    """Howard iteration on the origin-normalised pair (v, m).

    Solves inf_tau(L_tau v + g_tau) - alpha v - m = 0 with v = 0 exterior and
    v(origin) = 0; m plays the role of alpha * w_alpha(origin) of the
    unnormalised problem (w_alpha = v + m/alpha).  Runs on
    ``op.with_alpha(alpha)``: on an operator with an FFT jump part each
    bordered system is first solved matrix-free by :func:`_solve_bordered`
    and kept only inside its error bound of tol/10, else solved by sparse
    LU.  On explicit stencils (``op.csr()``) every solve is sparse LU.
    ``linear_solves`` counts the bordered solves by solver (``"bicgstab"``
    or ``"splu"``) and ``krylov_iterations`` their BiCGStab iterations.
    """
    opa = op.with_alpha(alpha)
    i0 = op.grid.origin_index
    atol = max(tol / 10.0, 1e-14)
    solves = {"bicgstab": 0, "splu": 0}
    count = _IterationCount()

    def solve(A, rhs, x0):
        v, m, tag = _solve_bordered(A, rhs, i0, atol, callback=count)
        solves[tag] += 1
        return v, m

    v, m, policy, it, converged, trace, _ = _howard(
        opa, solve, tol, max_iter, v0, policy0)
    v = v - v[i0]  # exact origin normalisation
    vals, _ = apply_inf(opa, v)
    return NormalizedSolution(
        v=v, m=m, policy=policy,
        residual_inf_norm=float(np.max(np.abs(vals - m))),
        iterations=it, alpha=alpha, converged=converged, trace=trace,
        linear_solves=solves, krylov_iterations=count.n,
    )


# ---------------------------------------------------------------------------
# barrier diagnostics


@dataclass(frozen=True)
class BarrierReport:
    ok: bool
    n_violations: int
    max_violation: float
    min_margin: float
    detail: str


def check_barrier(sol: DiscountedSolution, p: ControlProblem, grid: Grid,
                  k0: float | None = None,
                  c_floor: float | None = None) -> BarrierReport:
    """Pointwise check of |w(x)| <= k0/c_floor + V(x) on the grid."""
    if p.lyapunov is None:
        raise ValueError("barrier check needs Lyapunov data on the problem")
    if k0 is None:
        k0 = p.lyapunov.k0
    if k0 is None:
        raise ValueError("no k0 available; fit a Lyapunov certificate first")
    if c_floor is None:
        c_floor = sol.alpha if sol.alpha is not None else sol.diagnostics.get("c_floor")
    if c_floor is None or c_floor <= 0:
        raise ValueError("barrier check needs a positive c_floor")
    bound = k0 / c_floor + np.asarray(p.lyapunov.V(grid.nodes), dtype=float)
    gap = bound - np.abs(sol.w)
    viol = gap < -1e-12
    return BarrierReport(
        ok=not bool(viol.any()),
        n_violations=int(np.count_nonzero(viol)),
        max_violation=float(max(0.0, -gap.min())),
        min_margin=float(gap.min()),
        detail=f"k0={k0:.6g}, c_floor={c_floor:.6g}",
    )
