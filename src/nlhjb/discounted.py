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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, lattice_box
from .operators import DiscreteOperator, _stacked_inf
from .problem import ControlProblem

__all__ = [
    "SolveCounts", "DiscountedSolution", "NormalizedSolution", "BarrierReport",
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
class DiscountedSolution:
    w: np.ndarray
    policy: np.ndarray
    residual_inf_norm: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, int]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    counts: SolveCounts = field(default_factory=SolveCounts)


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
    counts: SolveCounts = field(default_factory=SolveCounts)


def _policy_improvement(vals: np.ndarray, old_policy: np.ndarray,
                        vmin: np.ndarray) -> float:
    """How much the greedy policy improves on the frozen one (>= 0)."""
    cur = vals[old_policy, np.arange(old_policy.shape[0])]
    return float(np.max(cur - vmin))


class _PolicySystem(spla.LinearOperator):
    """Frozen-policy system: row i is control ``policy[i]``'s.

    ``local`` is the row-gathered stencil with c on the diagonal: the whole
    system for explicit stencils, the drift part when the operator applies
    its jump part by FFT, which then adds row i's convolution scaled by
    k_{policy[i]}(x_i).  ``tocsc`` builds the system from ``op.csr()`` for
    the sparse-LU fallbacks of :func:`_solve_linear` and
    :func:`_solve_bordered`; the bordered (v, m) solve runs BiCGStab on
    :class:`_BorderedSystem`, this system with v(origin) eliminated.  The
    near-field LU that preconditions both is memoized on the operator per
    policy, so Howard steps and alpha levels that come back to a policy
    reuse it.
    """

    def __init__(self, op: DiscreteOperator, policy: np.ndarray,
                 local: sp.csr_matrix):
        super().__init__(dtype=float, shape=local.shape)
        self.op, self.policy, self.local = op, policy, local
        if op.jump is not None:
            self.scale = op.jump.scale[policy, np.arange(policy.shape[0])]

    def _matvec(self, x):
        x = np.ravel(x)
        out = self.local @ x
        if self.op.jump is not None:
            out += self.scale * self.op.jump.conv(x)
        return out

    def near(self) -> sp.csr_matrix:
        """The system cut to lattice offsets |z|_inf <= 1, full diagonal kept.

        Its off-diagonals are >= 0 and -near is strictly diagonally dominant
        by rows (c < 0), so it is a nonsingular M-matrix.  On the FFT path
        ``local`` is drift and c, already within the ring; explicit stencils
        are read at each node's ring neighbours, 3^d lookups per row, and
        the neighbours a stencil does not reach are left out.
        """
        if self.op.jump is not None:
            N = self.op.jump.conv.near()
            scaled = sp.csr_matrix((N.data * np.repeat(self.scale, np.diff(N.indptr)),
                                    N.indices, N.indptr), shape=self.shape)
            return (scaled + self.local).tocsr()
        grid = self.op.grid
        j = grid.node_index_of_lattice(grid.lattice[:, None, :] + lattice_box(grid.d, 1))
        rows, cols = np.nonzero(j >= 0)[0], j[j >= 0]
        P = sp.csr_matrix((np.asarray(self.local[rows, cols]).ravel(), (rows, cols)),
                          shape=self.shape)
        P.eliminate_zeros()
        return P

    def near_factor(self):
        """The operator's near-field memo, holding the sparse LU of this policy.

        The memo (``op.near_factor``) keeps one factor, keyed by the policy
        alone: ``with_alpha`` copies share it, so a factor made at an
        earlier alpha serves a later one.  Its diagonal is then off by the
        change in alpha, which moves only the preconditioner; the residual
        rules judge every answer.  On a new policy the old factor is dropped
        before :meth:`near` is factored, so at most one is alive per
        operator.  A symmetric minimum-degree ordering with diagonal pivots:
        a symmetric permutation keeps the strict diagonal dominance, which
        then holds in every Schur complement, so no pivot is zero.  ``splu``
        raises ``RuntimeError`` on a singular factor, which leaves the memo
        empty.
        """
        memo = self.op.near_factor
        key = self.policy.tobytes()
        if memo.key != key:
            memo.key = memo.lu = memo.ones = None
            memo.lu = spla.splu(self.near().tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
            memo.key = key
            memo.count += 1
        return memo

    def preconditioner(self) -> spla.LinearOperator:
        """Solve with the memoized sparse LU of :meth:`near` (:meth:`near_factor`).

        Raises ``RuntimeError`` when the factorization does.
        """
        return spla.LinearOperator(self.shape, matvec=self.near_factor().lu.solve,
                                   dtype=float)

    def tocsr(self) -> sp.csr_matrix:
        if self.op.jump is None:
            return self.local
        return _policy_system(self.op.csr(), self.policy)[0].local

    def tocsc(self) -> sp.csc_matrix:
        return self.tocsr().tocsc()


def _policy_system(op: DiscreteOperator, policy: np.ndarray):
    """Frozen-policy :class:`_PolicySystem` and constant: row i of control
    ``policy[i]``.

    One gather of rows, run by run: consecutive rows of one control are one
    slice of its CSR arrays.  Each stencil entry is copied once, and no
    stacked copy of the stencils is made.
    """
    n, controls = op.n_nodes, range(len(op.controls))
    pick = (policy, np.arange(n))
    ptr = np.stack([m.indptr for m in op.base])
    indptr = np.concatenate([[0], np.cumsum(ptr[:, 1:][pick] - ptr[:, :-1][pick])])
    first = np.flatnonzero(np.diff(policy, prepend=-1))
    runs = list(zip(policy[first].tolist(), ptr[policy[first], first].tolist(),
                    ptr[policy[first], np.append(first[1:], n)].tolist()))
    A = sp.csr_matrix((np.concatenate([op.base[t].data[a:b] for t, a, b in runs]),
                       np.concatenate([op.base[t].indices[a:b] for t, a, b in runs]),
                       indptr.astype(ptr.dtype)), shape=(n, n))
    A.setdiag(A.diagonal() + np.stack(op.cvals)[pick])
    A.eliminate_zeros()
    return _PolicySystem(op, policy, A), np.stack([op.constant(t) for t in controls])[pick]


def _krylov(A, b: np.ndarray, atol: float, accept: float, maxiter: int,
            x0: np.ndarray | None = None,
            counts: SolveCounts | None = None) -> np.ndarray | None:
    """Preconditioned BiCGStab to an absolute sup residual ``atol``.

    ``A`` (a :class:`_PolicySystem` or :class:`_BorderedSystem`) supplies
    its own ``preconditioner()``, built on the near-field sparse LU of its
    policy, memoized on the operator across Howard steps and alpha levels.
    Returns the answer when its true sup residual is at most ``accept``,
    the caller's rule (``accept >= atol``), and ``None`` otherwise, or when
    the near-field factor fails.  BiCGStab's recurred residual can drift
    from the true one, and at the round-off floor it can break down
    (``info < 0``).  An answer that fails the rule and did not stop at the
    cap (``info > 0``) is restarted once from itself, which resets the
    drift, under the same ``maxiter``; an answer between ``atol`` and
    ``accept`` is kept as it is.  A run of k matvecs (two per iteration,
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
        x, info = spla.bicgstab(A, b, x0=x, M=M, rtol=0.0, atol=atol,
                                maxiter=maxiter)
        if counts is not None:
            counts.krylov_iterations += -(-solves // 2)
        r = float(np.max(np.abs(A._matvec(x) - b)))
        if info > 0 or not r > accept:
            break
    return x if r <= accept else None


def _solve_linear(A, rhs: np.ndarray, atol: float, x0: np.ndarray | None = None,
                  counts: SolveCounts | None = None) -> tuple[np.ndarray, str]:
    """Iterative solve (:func:`_krylov`, capped at 500) with sparse-LU fallback.

    ``A`` is a :class:`_PolicySystem`; returns the solution and the solver
    that produced it, ``"bicgstab"`` or ``"splu"``.
    BiCGStab's answer is kept only if its sup residual is at most ``atol``.
    """
    x = _krylov(A, rhs, atol, atol, 500, x0, counts)
    if x is not None:
        return x, "bicgstab"
    return spla.spsolve(A.tocsc(), rhs), "splu"


def _bordered_pair(y2: np.ndarray, y1: np.ndarray, i0: int) -> tuple[np.ndarray, float]:
    """(v, m) from y2 = A^{-1} 1 and y1 = A^{-1} rhs: A v - m = rhs, v[i0] = 0."""
    m = -y1[i0] / y2[i0]
    v = y1 + m * y2
    v[i0] = 0.0
    return v, float(m)


class _BorderedSystem(spla.LinearOperator):
    """A with column i0 replaced by -1: B x = A(x with x[i0] = 0) - x[i0]·1.

    B x = rhs is the bordered system A v - m = rhs, v[i0] = 0, with
    m = x[i0] and v = x with slot i0 set to 0 (:meth:`split`).  ``A`` is a
    :class:`_PolicySystem`.
    """

    def __init__(self, A: _PolicySystem, i0: int):
        super().__init__(dtype=float, shape=A.shape)
        self.A, self.i0 = A, i0

    def split(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        v = np.array(x, dtype=float).ravel()
        m = float(v[self.i0])
        v[self.i0] = 0.0
        return v, m

    def _matvec(self, x):
        v, m = self.split(x)
        return self.A._matvec(v) - m

    def preconditioner(self) -> spla.LinearOperator:
        """The same elimination on the near field P of ``A``.

        With w = P^{-1} 1, computed once per factor and kept in the memo
        next to it, y maps to the x with P(x with x[i0] = 0) - x[i0]·1 = y:
        :func:`_bordered_pair` of w and P^{-1} y, with m in slot i0.  -P is
        a nonsingular M-matrix, so w[i0] < 0.  Raises ``RuntimeError`` when
        the near-field factor does.
        """
        memo = self.A.near_factor()
        if memo.ones is None:
            memo.ones = memo.lu.solve(np.ones(self.shape[0]))
        lu, w = memo.lu, memo.ones

        def solve(y):
            v, m = _bordered_pair(w, lu.solve(np.ravel(y)), self.i0)
            v[self.i0] = m
            return v

        return spla.LinearOperator(self.shape, matvec=solve, dtype=float)


def _solve_bordered(A, rhs: np.ndarray, i0: int, atol: float,
                    x0: np.ndarray | None = None,
                    counts: SolveCounts | None = None) -> tuple[np.ndarray, float, str]:
    """Bordered frozen-policy solve: A v - m = rhs with v[i0] = 0.

    Returns (v, m, solver tag).  ``A`` is a :class:`_PolicySystem`.  First
    one :func:`_krylov` solve of the eliminated system :class:`_BorderedSystem`
    to ``atol/100``, capped at ceil(N/4) iterations, started from ``x0``
    (slot i0 the guess of m) and preconditioned by the same elimination of
    the near-field LU factor of A.  The pair is kept
    (tag ``"bicgstab"``) when its true bordered sup residual
    max|A v - m - rhs| is at most ``atol``, the rule of
    :func:`_solve_linear`; a NaN fails it.  -A is a nonsingular M-matrix
    (monotone stencils, c < 0), so -A^{-1} >= 0 and the pair's m is within
    that residual of the exact one.  Otherwise one sparse LU of A is solved
    for 1 and rhs, and :func:`_bordered_pair` eliminates m (tag ``"splu"``).
    """
    n = A.shape[0]
    B = _BorderedSystem(A, i0)
    x = _krylov(B, rhs, atol / 100, atol, -(-n // 4), x0, counts)
    if x is not None:
        return *B.split(x), "bicgstab"
    y = spla.spsolve(A.tocsc(), np.column_stack([np.ones(n), rhs]))
    return *_bordered_pair(*y.T, i0), "splu"


def _howard(op: DiscreteOperator, solve, tol: float, max_iter: int,
            x0: np.ndarray | None, policy0: np.ndarray | None):
    """Howard loop: frozen-policy solve, then greedy policy improvement.

    ``solve(A, rhs, x, counts)`` returns the frozen-policy solution, the
    scalar shift m that the residual inf_tau(...) - m is measured against (0
    for the plain discounted problem) and the solver tag, and adds its
    BiCGStab iterations to ``counts``.  Returns (x, m, policy, iterations,
    converged, trace, monotone_violation, counts); the last trace entry's
    residual is that of the returned pair, and ``counts`` adds each step's
    tag and the near-field factorizations made on ``op``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = op.n_nodes
    policy = np.zeros(n, dtype=np.int64) if policy0 is None else policy0.copy()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    trace: list[tuple[int, float, int]] = []
    mono_violation = 0.0
    prev_x = None
    m = 0.0
    converged = False
    it = 0
    counts, factors = SolveCounts(), op.near_factor.count
    for it in range(1, max_iter + 1):
        A, const = _policy_system(op, policy)
        x, m, tag = solve(A, -const, x, counts)
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
        policy = new_policy
    counts.near_factors = op.near_factor.count - factors
    return x, m, policy, it, converged, trace, mono_violation, counts


def solve_policy_iteration(op: DiscreteOperator, tol: float,
                           max_iter: int = 60,
                           w0: np.ndarray | None = None,
                           policy0: np.ndarray | None = None) -> DiscountedSolution:
    """Howard iteration for the discounted problem.

    Requires strict diagonal dominance (sup_tau c_tau <= -c_floor < 0); the
    frozen-policy systems are solved iteratively to an absolute sup residual
    of tol/10, below the Howard stopping tol.
    Non-convergence is a flagged result, never an exception.
    ``counts`` (:class:`SolveCounts`) counts its frozen-policy solves, and
    ``diagnostics["c_floor"]`` is ``op.c_floor()``.
    """
    c_floor = op.c_floor()
    if not (c_floor > 0):
        raise ValueError(
            f"policy iteration needs sup_tau c_tau < 0 (got c_floor={-c_floor:.3g})")
    lin_atol = max(tol / 10.0, 1e-14)

    def solve(A, rhs, x0, counts):
        x, tag = _solve_linear(A, rhs, lin_atol, x0, counts)
        return x, 0.0, tag

    w, _, policy, it, converged, trace, mono_violation, counts = _howard(
        op, solve, tol, max_iter, w0, policy0)
    return DiscountedSolution(
        w=w, policy=policy, residual_inf_norm=trace[-1][1],
        iterations=it, converged=converged, trace=trace,
        diagnostics={"monotone_violation": mono_violation, "c_floor": c_floor},
        counts=counts,
    )


def solve_normalized(op: DiscreteOperator, alpha: float, tol: float,
                     max_iter: int = 60,
                     v0: np.ndarray | None = None,
                     policy0: np.ndarray | None = None) -> NormalizedSolution:
    """Howard iteration on the origin-normalised pair (v, m).

    Solves inf_tau(L_tau v + g_tau) - alpha v - m = 0 with v = 0 exterior and
    v(origin) = 0; m plays the role of alpha * w_alpha(origin) of the
    unnormalised problem (w_alpha = v + m/alpha).  Runs on
    ``op.with_alpha(alpha)``: on every operator each bordered system is
    first one BiCGStab solve with v(origin) eliminated into m
    (:func:`_solve_bordered`), kept when its true residual is at most
    tol/10, else solved by one sparse LU of A for 1 and rhs.  Each
    BiCGStab solve starts from the Howard iterate, whose origin slot (0)
    is the guess of m: the first from ``v0`` (zero without it), the later
    ones from the previous Howard step's v.  ``counts``
    (:class:`SolveCounts`) counts the bordered solves by solver, their
    BiCGStab iterations and the near-field factorizations made for them;
    alpha levels that come back to a policy reuse its factor.
    ``residual_inf_norm`` is the last Howard step's.
    """
    opa = op.with_alpha(alpha)
    i0 = op.grid.origin_index
    atol = max(tol / 10.0, 1e-14)

    def solve(A, rhs, x0, counts):
        return _solve_bordered(A, rhs, i0, atol, x0, counts)

    v, m, policy, it, converged, trace, _, counts = _howard(
        opa, solve, tol, max_iter, v0, policy0)
    return NormalizedSolution(
        v=v, m=m, policy=policy, residual_inf_norm=trace[-1][1],
        iterations=it, alpha=alpha, converged=converged, trace=trace,
        counts=counts,
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
                  k0: float, c_floor: float | None = None) -> BarrierReport:
    """Pointwise check of |w(x)| <= k0/c_floor + V(x) on the grid.

    ``k0`` is the constant of a fitted Lyapunov certificate
    (:func:`~nlhjb.lyapunov.fit_envelope`); c_floor defaults to
    ``sol.diagnostics["c_floor"]``, alpha when every c is -alpha.
    """
    if p.lyapunov is None:
        raise ValueError("barrier check needs Lyapunov data on the problem")
    if c_floor is None:
        c_floor = sol.diagnostics.get("c_floor")
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
