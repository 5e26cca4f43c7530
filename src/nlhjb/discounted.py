"""Discounted bounded-domain solves: inf_tau(L_tau w + c_tau w + g_tau) = 0.

Howard policy iteration is the one solver (frozen-policy linear solve, then
pointwise policy improvement).  ``solve_policy_iteration`` treats the plain
discounted problem; ``solve_normalized`` treats the origin-normalised
unknown pair (v, m) with v = 0 exterior data, which is the formulation the
ergodic driver relies on: constant cost shifts move m exactly and never
touch v.  ``check_barrier`` tests a discounted solution against the
Lyapunov barrier k0/c_floor + V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid
from .operators import DiscreteOperator, FrozenSystem, _stacked_inf
from .problem import ControlProblem

__all__ = [
    "SolveCounts", "HowardSolution", "BarrierReport",
    "solve_policy_iteration", "solve_normalized",
    "check_barrier",
]


@dataclass
class SolveCounts:
    """Counts of Howard solves, shaped like the ``run_meta.json`` entries:
    frozen-policy solves by solver (``"bicgstab"``, or ``"splu"`` on
    fallback), their BiCGStab iterations and the near-field factorizations
    that preconditioned them."""

    linear_solves: dict = field(default_factory=lambda: {"bicgstab": 0, "splu": 0})
    krylov_iterations: int = 0
    near_factors: int = 0

    def add(self, other: "SolveCounts") -> None:
        for tag, n in other.linear_solves.items():
            self.linear_solves[tag] += n
        self.krylov_iterations += other.krylov_iterations
        self.near_factors += other.near_factors


@dataclass(eq=False)
class HowardSolution:
    """One Howard solve: the pair (u, m), its policy and how it was reached.

    Discounted (:func:`solve_policy_iteration`): u is w and m = 0.0.
    Origin-normalised (:func:`solve_normalized`): u is v, with u[origin]
    == 0.0 exactly.  ``trace`` has one ``(iteration, residual,
    policy_changes)`` entry per Howard step, the last the returned pair's;
    ``monotone_violation`` is the largest rise of an iterate over the one
    before; ``counts`` counts the frozen-policy solves.
    """

    u: np.ndarray
    m: float
    policy: np.ndarray
    iterations: int
    converged: bool
    trace: list[tuple[int, float, int]]
    monotone_violation: float
    counts: SolveCounts

    @property
    def residual_inf_norm(self) -> float:
        """The last Howard step's residual."""
        return self.trace[-1][1]


def _policy_improvement(vals: np.ndarray, old_policy: np.ndarray,
                        vmin: np.ndarray) -> float:
    """How much the greedy policy improves on the frozen one (>= 0)."""
    cur = vals[old_policy, np.arange(old_policy.shape[0])]
    return float(np.max(cur - vmin))


def _krylov(A, b: np.ndarray, target: float, rule: float, maxiter: int,
            x0: np.ndarray | None = None,
            counts: SolveCounts | None = None) -> np.ndarray | None:
    """Preconditioned BiCGStab to an absolute sup residual ``target``.

    ``A`` (a :class:`FrozenSystem` or its bordered form) supplies its own
    ``preconditioner()``: :meth:`FrozenSystem.preconditioner`, P^{-1} of the
    policy's near field memoized on the operator, or its bordering.
    Returns the answer when its true sup residual is at most ``rule``,
    the caller's rule (``rule >= target``), and ``None`` otherwise, or when
    the near-field factor fails.  BiCGStab's recurred residual can drift
    from the true one, and at the round-off floor it can break down
    (``info < 0``).  An answer that fails the rule and did not stop at the
    cap (``info > 0``) is restarted once from itself, which resets the
    drift, under the same ``maxiter``; an answer between ``target`` and
    ``rule`` is kept as it is.  A run of k matvecs (two per iteration,
    one for a stop at the half step) adds ceil(k/2) to
    ``counts.krylov_iterations``.  BiCGStab applies the preconditioner once
    before each matvec of its iterations and at no other time, so matvecs
    are counted as preconditioner solves, leaving out the initial residual
    of a warm start and the true-residual check here.
    """
    try:
        P = spla.aslinearoperator(A.preconditioner())
    except RuntimeError:
        return None
    solves = 0

    def precondition(y):
        nonlocal solves
        solves += 1
        return P._matvec(y)

    M = spla.LinearOperator(A.shape, matvec=precondition, dtype=float)
    x = x0
    for _ in range(2):
        solves = 0
        x, info = spla.bicgstab(A, b, x0=x, M=M, rtol=0.0, atol=target,
                                maxiter=maxiter)
        if counts is not None:
            counts.krylov_iterations += -(-solves // 2)
        r = float(np.max(np.abs(A._matvec(x) - b)))
        if info > 0 or not r > rule:
            break
    return x if r <= rule else None


def _solve(S, rhs: np.ndarray, rule: float, target: float, maxiter: int,
           x0: np.ndarray | None = None,
           counts: SolveCounts | None = None) -> tuple[np.ndarray, str]:
    """``S x = rhs`` by :func:`_krylov` (target ``target``, cap ``maxiter``),
    else by one sparse LU of ``S.tocsc()``; returns x and its solver tag.

    ``S`` is a :class:`FrozenSystem` or its bordered form.  The BiCGStab
    answer is kept (``"bicgstab"``) when its true sup residual is at most
    ``rule``, a NaN failing; otherwise LU answers (``"splu"``).
    """
    x = _krylov(S, rhs, target, rule, maxiter, x0, counts)
    if x is not None:
        return x, "bicgstab"
    return spla.spsolve(S.tocsc(), rhs), "splu"


def _solve_bordered(A: FrozenSystem, rhs: np.ndarray, i0: int, atol: float,
                    x0: np.ndarray | None = None,
                    counts: SolveCounts | None = None) -> tuple[np.ndarray, float, str]:
    """(v, m, tag) with A v - m = rhs, v[i0] = 0: :func:`_solve` on
    ``A.bordered(i0)`` to ``atol``, target ``atol/100``, cap ceil(N/4), from
    ``x0``.  As -A^{-1} >= 0, m is within the pair's residual of the exact m."""
    B = A.bordered(i0)
    x, tag = _solve(B, rhs, atol, atol / 100, -(-A.shape[0] // 4), x0, counts)
    return *B.split(x), tag


def _howard(op: DiscreteOperator, solve, tol: float, max_iter: int,
            x0: np.ndarray | None, policy0: np.ndarray | None,
            m0: float = 0.0) -> HowardSolution:
    """Howard loop: frozen-policy solve, then greedy policy improvement.

    ``solve(A, rhs, x, m, counts)`` returns the frozen-policy solution, the
    scalar shift m that the residual inf_tau(...) - m is measured against (0
    for the plain discounted problem) and the solver tag, and adds its
    BiCGStab iterations to ``counts``.  It starts from the current iterate
    (x, m): the first step from (``x0``, ``m0``), each later one from the
    step before.  The returned ``counts`` adds each
    step's tag and the near-field factorizations made on ``op``.  A step
    that does not converge, changes no policy and whose residual is not
    below the previous step's ends the loop unconverged: the next step
    would solve the same system again.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = op.n_nodes
    policy = np.zeros(n, dtype=np.int64) if policy0 is None else policy0.copy()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    trace: list[tuple[int, float, int]] = []
    mono_violation = 0.0
    prev_x = None
    m = m0
    converged = False
    it = 0
    counts, factors = SolveCounts(), op.near_factor.count
    for it in range(1, max_iter + 1):
        A = op.frozen(policy)
        x, m, tag = solve(A, -A.const, x, m, counts)
        counts.linear_solves[tag] += 1
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
        if changes == 0 and len(trace) > 1 and not residual < trace[-2][1]:
            break
        policy = new_policy
    counts.near_factors = op.near_factor.count - factors
    return HowardSolution(u=x, m=m, policy=policy, iterations=it,
                          converged=converged, trace=trace,
                          monotone_violation=mono_violation, counts=counts)


def solve_policy_iteration(op: DiscreteOperator, tol: float,
                           max_iter: int = 60,
                           w0: np.ndarray | None = None,
                           policy0: np.ndarray | None = None) -> HowardSolution:
    """Howard iteration for the discounted problem; ``u`` is w, ``m`` is 0.0.

    Requires strict diagonal dominance (sup_tau c_tau <= -c_floor < 0); the
    frozen-policy systems are solved iteratively to an absolute sup residual
    of tol/10, below the Howard stopping tol.
    Non-convergence is a flagged result, never an exception.
    """
    c_floor = op.c_floor()
    if not (c_floor > 0):
        raise ValueError(
            f"policy iteration needs sup_tau c_tau < 0 (got c_floor={-c_floor:.3g})")
    lin_atol = max(tol / 10.0, 1e-14)

    def solve(A, rhs, x0, m, counts):
        x, tag = _solve(A, rhs, lin_atol, lin_atol, 500, x0, counts)
        return x, 0.0, tag

    return _howard(op, solve, tol, max_iter, w0, policy0)


def solve_normalized(op: DiscreteOperator, alpha: float, tol: float,
                     max_iter: int = 60,
                     v0: np.ndarray | None = None,
                     policy0: np.ndarray | None = None,
                     m0: float = 0.0) -> HowardSolution:
    """Howard iteration on the origin-normalised pair (v, m) = (``u``, ``m``).

    Solves inf_tau(L_tau v + g_tau) - alpha v - m = 0 with v = 0 exterior and
    v(origin) = 0, which both bordered paths set exactly, so u[origin] ==
    0.0; m plays the role of alpha * w_alpha(origin) of the unnormalised
    problem (w_alpha = v + m/alpha).  Runs on
    ``op.with_alpha(alpha)``: on every operator each bordered system, A
    with its origin column replaced by -1 so that its origin slot is m, is
    first one BiCGStab solve (:func:`_solve_bordered`), kept when its true
    residual is at most tol/10, else solved by one sparse LU.  Each
    BiCGStab solve starts from the Howard iterate (v, m), m in the origin
    slot: the first from (``v0``, ``m0``) (v zero without ``v0``), the
    later ones from the previous Howard step's pair.  ``counts``
    (:class:`SolveCounts`) counts the bordered solves by solver, their
    BiCGStab iterations and the near-field factors made; an alpha level
    that comes back to a policy reuses its :meth:`FrozenSystem.preconditioner`.
    """
    i0 = op.grid.origin_index
    atol = max(tol / 10.0, 1e-14)

    def solve(A, rhs, v, m, counts):
        x0 = v.copy()
        x0[i0] = m
        return _solve_bordered(A, rhs, i0, atol, x0, counts)

    return _howard(op.with_alpha(alpha), solve, tol, max_iter, v0, policy0, m0)


# ---------------------------------------------------------------------------
# barrier diagnostics


@dataclass(frozen=True)
class BarrierReport:
    ok: bool
    n_violations: int
    min_margin: float
    detail: str


def check_barrier(sol: HowardSolution, p: ControlProblem, grid: Grid,
                  k0: float, c_floor: float) -> BarrierReport:
    """Pointwise check of |w(x)| <= k0/c_floor + V(x) on the grid, w = ``sol.u``.

    ``k0`` is the constant of a fitted Lyapunov certificate
    (:func:`~nlhjb.lyapunov.fit_envelope`); ``c_floor`` is the solved
    operator's ``op.c_floor()``, alpha when every c is -alpha.
    """
    if p.lyapunov is None:
        raise ValueError("barrier check needs Lyapunov data on the problem")
    if not c_floor > 0:
        raise ValueError("barrier check needs a positive c_floor")
    bound = k0 / c_floor + np.asarray(p.lyapunov.V(grid.nodes), dtype=float)
    gap = bound - np.abs(sol.u)
    viol = gap < -1e-12
    return BarrierReport(
        ok=not bool(viol.any()),
        n_violations=int(np.count_nonzero(viol)),
        min_margin=float(gap.min()),
        detail=f"k0={k0:.6g}, c_floor={c_floor:.6g}",
    )
