"""Two-limit ergodic driver: vanishing discount on the largest ball, then
one radius ladder at the last discount.

Each alpha level solves the origin-normalised pair (v, m) on the largest
truncated ball (zero exterior for v), started from the pair extrapolated
from the levels before it; m plays the role of lambda_alpha = alpha *
w_alpha(origin).  The alpha loop terminates when the lambda trace and the
normalised potentials are Cauchy on the inner window and alpha * ||v|| has
dropped below tolerance, so the returned pair satisfies the ergodic equation
on the window to the same tolerance.  The radius trace, from the smaller balls solved once at the last
alpha, is recorded and not forced to stabilise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discounted import (HowardSolution, SolveCounts, solve_normalized,
                         solve_policy_iteration)
from .grid import Grid, build_grid
from .operators import DiscreteOperator, assemble
from .problem import ControlProblem, ScalarField
from .quadrature import build_quadrature

__all__ = [
    "DomainConfig", "AlphaSchedule", "AlphaLevel", "ErgodicSolution",
    "expand_domain", "vanishing_discount", "convergence_study",
    "check_bar_w_bound", "check_lambda_bound",
]


@dataclass(frozen=True)
class DomainConfig:
    d: int
    hx: float
    radii: tuple[float, ...]
    r_far_margin: float = 1.0
    reg_radius: float | None = None
    inner_radius: float | None = None

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.hx <= 0:
            raise ValueError("hx must be positive")
        if len(self.radii) == 0:
            raise ValueError("radii must be a non-empty list")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.radii[0] < 4 * self.hx:
            raise ValueError("radii[0] must be at least 4*hx")
        if self.r_far_margin < 1:
            # the quadrature must reach every exterior point a node can see
            raise ValueError(f"r_far_margin must be at least 1, got {self.r_far_margin}")
        if self.inner_radius is not None and self.inner_radius <= 0:
            raise ValueError(f"inner_radius must be positive, got {self.inner_radius}")
        if self.reg_radius is not None and self.reg_radius < self.hx:
            # below hx the second-moment correction covers no offset
            raise ValueError(f"reg_radius must be at least hx = {self.hx}, "
                             f"got {self.reg_radius}")
        # the grid and the quadrature count the hx steps up to these extents
        for what, extent in (("(radii[-1] + r_far_margin) / hx",
                              self.radii[-1] + self.r_far_margin),
                             ("reg_radius / hx", self.reg_radius or 0.0)):
            if not np.isfinite(extent / self.hx):
                raise ValueError(f"{what} must be finite, got {extent} / {self.hx}")

    @property
    def window_radius(self) -> float:
        return self.inner_radius if self.inner_radius is not None else self.radii[0] / 4.0


@dataclass(frozen=True)
class AlphaSchedule:
    start: float = 0.5
    factor: float = 0.5
    max_levels: int = 30
    explicit: tuple[float, ...] | None = None

    def __post_init__(self):
        # the messages name the keys of the config's alpha section
        a = self.explicit
        if a is not None:
            if not a or any(not (0 < x < 1) for x in a) or any(b >= x for x, b in zip(a, a[1:])):
                raise ValueError("values must be a non-empty, strictly decreasing list "
                                 f"in (0, 1), got {list(a)}")
            return
        for name, value in (("start", self.start), ("factor", self.factor)):
            if not 0 < value < 1:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be at least 1, got {self.max_levels}")

    def alphas(self):
        if self.explicit is not None:
            yield from self.explicit
            return
        a = self.start
        for _ in range(self.max_levels):
            yield a
            a *= self.factor


@dataclass(eq=False)
class AlphaLevel:
    alpha: float
    lam: float
    wbar: np.ndarray
    lam_change: float
    wbar_change: float
    alpha_norm: float
    residual: float


@dataclass(eq=False)
class ErgodicSolution:
    """The ergodic pair on ``grid`` with the sweep's traces.

    ``operator`` is the operator on the largest ball (no zeroth term, zero
    exterior data); ``counts`` (:class:`SolveCounts`) is the sum of the
    ``counts`` of every bordered solve of the sweep and the radius ladder.
    """

    u: np.ndarray
    lambda_star: float
    grid: Grid
    alpha_trace: list[AlphaLevel]
    radius_trace: list[tuple[float, float]]
    growth_report: dict
    converged: bool
    operator: DiscreteOperator
    counts: SolveCounts


def _window_indices(grid: Grid, radius: float) -> np.ndarray:
    return np.flatnonzero(grid.radii() <= radius * (1 + 1e-12))


def _quadrature(p: ControlProblem, domain: DomainConfig, grid: Grid):
    """Jump quadrature of order ``p.jump_order`` on ``grid`` with the domain's
    far margin and regularisation radius."""
    return build_quadrature(grid, p.jump_order, grid.R + domain.r_far_margin, domain.reg_radius)


def _operator(p: ControlProblem, domain: DomainConfig, R: float, ext: ScalarField | None):
    """The operator assembled on the grid of radius R (``op.grid``)."""
    grid = build_grid(domain.d, domain.hx, R)
    q = _quadrature(p, domain, grid) if p.has_jumps else None
    return assemble(p, grid, q, ext)


def _predicted_start(levels: list[AlphaLevel], alpha: float) -> tuple[np.ndarray, float]:
    """The predicted pair (v, m) at ``alpha``: the Lagrange interpolant in
    alpha through the last three levels' (wbar, lam), or through all of
    them when fewer are solved (one level gives its own pair).  Each level's
    wbar is 0 at the origin, and so is the prediction's v.  For a fixed
    policy the bordered system is affine in alpha and nonsingular, so the
    pair is smooth in alpha; on halving levels the error shrinks like
    alpha**3."""
    last = levels[-3:]
    weights = [np.prod([(alpha - b.alpha) / (a.alpha - b.alpha) for b in last if b is not a])
               for a in last]
    v = sum(w * lv.wbar for w, lv in zip(weights, last))
    m = sum(w * lv.lam for w, lv in zip(weights, last))
    return v, float(m)


def _ladder(domain: DomainConfig, operator, solve, stop_tol: float = -np.inf):
    """Solve on each radius of ``domain.radii`` in order; the one radius ladder.

    ``operator(R)`` is the operator on the ball of radius R, and
    ``solve(op, x0, policy0)`` returns ``(values, policy, solution)`` from a
    warm start: the ball below's values and policy, zero outside it (None on
    the first rung).  Stops once the sup change on the inner window between
    consecutive radii is at most ``stop_tol``.  Returns the radius trace and
    the last rung's operator and solution.
    """
    trace: list[tuple[float, float]] = []
    below = None   # (grid, values, policy) on the ball below
    for R in domain.radii:
        op = operator(R)
        x0 = policy0 = None
        if below is not None:
            idx = op.grid.node_index_of_lattice(below[0].lattice)
            win = _window_indices(below[0], domain.window_radius)
            x0, policy0 = np.zeros(op.n_nodes), np.zeros(op.n_nodes, dtype=np.int64)
            x0[idx], policy0[idx] = below[1], below[2]
        values, policy, sol = solve(op, x0, policy0)
        trace.append((R, np.inf if below is None else
                      float(np.max(np.abs(values[idx[win]] - below[1][win])))))
        if trace[-1][1] <= stop_tol:
            break
        below = (op.grid, values, policy)
    return trace, op, sol


def expand_domain(p: ControlProblem, alpha: float | None,
                  domain: DomainConfig, tol: float, *,
                  ext: ScalarField | None = None,
                  max_iter: int = 60
                  ) -> tuple[HowardSolution, list[tuple[float, float]], DiscreteOperator]:
    """Solve the Dirichlet problem up the one radius ladder of ``domain.radii``.

    Stops once the restriction to the inner window (``domain.window_radius``)
    moves by at most ``tol`` between consecutive radii; the radius trace
    ``(R, inner_change)`` records whether it did (exhaustion is not
    raised).  Returns the last radius's solution, whose ``counts`` sums the
    ``counts`` of every radius's solve, the radius trace and the operator
    on the last radius solved.  ``ext`` is the exterior data, ``None`` for zero.
    """
    counts = SolveCounts()

    def operator(R):
        op = _operator(p, domain, R, ext)
        return op if alpha is None else op.with_alpha(alpha)

    def solve(op, w0, policy0):
        sol = solve_policy_iteration(op, tol, max_iter=max_iter, w0=w0, policy0=policy0)
        counts.add(sol.counts)
        return sol.u, sol.policy, sol

    trace, op, sol = _ladder(domain, operator, solve, stop_tol=tol)
    sol.counts = counts
    return sol, trace, op


def vanishing_discount(p: ControlProblem, domain: DomainConfig,
                       schedule: AlphaSchedule, tol: float, *,
                       solver_tol: float | None = None,
                       max_iter: int = 60) -> ErgodicSolution:
    """Vanishing-discount sweep producing the ergodic pair (u, lambda*).

    Each alpha level is one normalised solve on the largest radius.  The
    first starts cold; each later one from the previous level's policy and
    the pair (v, m) that :func:`_predicted_start` extrapolates in alpha.
    Only the start depends on the prediction: each level converges under
    the same residual rule.  Terminates at a
    level whose Howard solve converged when consecutive levels satisfy
    |Δlambda| <= tol, ||Δ w_bar|| <= tol on the inner window, and
    alpha * ||w_bar|| <= tol on the window (so the pair solves the ergodic
    equation there at tolerance).  An exhausted schedule returns the flagged
    trace for inspection.  ``radius_trace`` comes from the radius ladder of
    :func:`expand_domain` at the last alpha, with no early stop, topped by
    the sweep's last solve.  Each bordered (v, m) solve
    is one BiCGStab solve with v(origin) eliminated into m, on every
    operator, started from the Howard iterate (v, m): the first Howard step
    of a level from the predicted pair, a rung of the ladder from the ball
    below's v with m = 0.
    The alpha levels share each radius's operator, and with it the
    ``FrozenSystem.preconditioner()`` of a policy that comes back.  A solve
    that falls back to sparse LU (its factor failed, or its pair's true
    residual exceeded a tenth of the inner tolerance) leaves the next one to
    try BiCGStab again.  ``counts`` sums the ``counts`` of every solve made.
    """
    inner_tol = solver_tol if solver_tol is not None else tol
    ops = {R: _operator(p, domain, R, None) for R in domain.radii}
    final_op = ops[domain.radii[-1]]
    final_grid = final_op.grid
    win = _window_indices(final_grid, domain.window_radius)
    levels: list[AlphaLevel] = []
    sol: HowardSolution | None = None
    converged = False
    counts = SolveCounts()

    def normalized(op, alpha, v0, policy0, m0=0.0):
        out = solve_normalized(op, alpha, inner_tol, max_iter=max_iter,
                               v0=v0, policy0=policy0, m0=m0)
        counts.add(out.counts)
        return out

    for alpha in schedule.alphas():
        prev = sol
        v0, m0 = _predicted_start(levels, alpha) if levels else (None, 0.0)
        sol = normalized(final_op, alpha, v0, None if prev is None else prev.policy, m0)
        alpha_norm = alpha * float(np.max(np.abs(sol.u[win])))
        if prev is not None:
            lam_change = abs(sol.m - prev.m)
            wbar_change = float(np.max(np.abs(sol.u[win] - prev.u[win])))
        else:
            lam_change = wbar_change = np.inf
        levels.append(AlphaLevel(alpha=alpha, lam=sol.m, wbar=sol.u,
                                 lam_change=lam_change, wbar_change=wbar_change,
                                 alpha_norm=alpha_norm,
                                 residual=sol.residual_inf_norm))
        if (sol.converged and lam_change <= tol and wbar_change <= tol
                and alpha_norm <= tol):
            converged = True
            break

    def rung(op, v0, policy0):
        out = sol if op is final_op else normalized(op, alpha, v0, policy0)
        return out.u, out.policy, out

    trace, _, _ = _ladder(domain, ops.__getitem__, rung)
    return ErgodicSolution(
        u=sol.u, lambda_star=sol.m, grid=final_grid, alpha_trace=levels,
        radius_trace=trace, growth_report=_growth_report(sol.u, final_grid, p),
        converged=converged, operator=final_op, counts=counts)


def convergence_study(p: ControlProblem, domain: DomainConfig,
                      schedule: AlphaSchedule, tol: float, *,
                      solver_tol: float | None = None,
                      max_iter: int = 60) -> dict:
    """Ergodic solve at hx, hx/2, hx/4 with pairwise inner-window differences.

    Returns the spacings, lambda* per spacing, the two consecutive lambda*
    deltas, the sup differences on the coarse grid's inner window and the
    convergence flags.  No extrapolation and no rate claims; deltas are
    recorded as observed.
    """
    hx = [domain.hx / 2**k for k in range(3)]
    sols = [vanishing_discount(p, replace(domain, hx=h), schedule, tol,
                               solver_tol=solver_tol, max_iter=max_iter)
            for h in hx]
    lam = [float(s.lambda_star) for s in sols]
    coarse = sols[0].grid
    win = coarse.lattice[_window_indices(coarse, domain.window_radius)]
    # the coarse window's node z sits at lattice point z * 2**k on level k
    u = [s.u[s.grid.node_index_of_lattice(win * 2**k)] for k, s in enumerate(sols)]
    diffs = [float(np.max(np.abs(u[k] - u[k + 1]))) for k in range(2)]
    return {
        "hx": hx,
        "lambda_star": lam,
        "lambda_deltas": [abs(lam[0] - lam[1]), abs(lam[1] - lam[2])],
        "window_sup_diffs": diffs,
        "converged": [bool(s.converged) for s in sols],
    }


def _growth_report(u: np.ndarray, grid: Grid, p: ControlProblem) -> dict:
    """Sampled |u|/(1+V) ratios along axis rays; proxy for u in o(V)."""
    if p.lyapunov is not None:
        V = np.asarray(p.lyapunov.V(grid.nodes), dtype=float)
    else:
        V = np.zeros(grid.n_nodes)
    ratios = np.abs(u) / (1.0 + V)
    rays = []
    tail_ok = True
    fracs = (0.4, 0.6, 0.8, 1.0)
    for axis in range(grid.d):
        for sgn in (1, -1):
            samples = []
            for f in fracs:
                k = max(1, int(round(f * grid._halfwidth)))
                z = np.zeros((1, grid.d), dtype=np.int64)
                z[0, axis] = sgn * k
                idx = grid.node_index_of_lattice(z)[0]
                if idx >= 0:
                    samples.append((k * grid.hx, float(ratios[idx])))
            rays.append({"axis": axis, "sign": sgn, "samples": samples})
            vals = [v for _, v in samples[-3:]]
            if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
                tail_ok = False
    return {"rays": rays, "nonincreasing_tail": tail_ok}


# ---------------------------------------------------------------------------
# trace diagnostics


@dataclass(frozen=True)
class BarWReport:
    ok: bool
    pointwise_ok: bool
    bounded_across_alpha: bool
    max_violation: float
    max_window_values: tuple[float, ...]


def check_bar_w_bound(levels: list[AlphaLevel], p: ControlProblem, grid: Grid,
                      window_radius: float) -> BarWReport:
    """Check |w_bar(x)| <= max_B |w_bar| + V(x) per level and boundedness in alpha."""
    if p.lyapunov is None:
        raise ValueError("bar-w bound needs Lyapunov data")
    if len(levels) < 2:
        raise ValueError("need at least two alpha levels")
    V = np.asarray(p.lyapunov.V(grid.nodes), dtype=float)
    win = _window_indices(grid, window_radius)
    worst = 0.0
    maxes = []
    for lv in levels:
        mb = float(np.max(np.abs(lv.wbar[win])))
        maxes.append(mb)
        gap = (mb + V) - np.abs(lv.wbar)
        worst = max(worst, float(max(0.0, -gap.min())))
    pointwise_ok = worst <= 1e-10
    med = float(np.median(maxes))
    bounded = maxes[-1] <= 2.0 * med + 1e-12
    return BarWReport(ok=pointwise_ok and bounded, pointwise_ok=pointwise_ok,
                      bounded_across_alpha=bounded, max_violation=worst,
                      max_window_values=tuple(maxes))


@dataclass(frozen=True)
class LambdaBoundReport:
    ok: bool
    margins: tuple[float, ...]


def check_lambda_bound(levels: list[AlphaLevel], p: ControlProblem, grid: Grid,
                       k0: float) -> LambdaBoundReport:
    """alpha |w_alpha(0)| = |lambda_alpha| <= k0 + alpha V(0) across the trace."""
    if p.lyapunov is None:
        raise ValueError("lambda bound needs Lyapunov data")
    v0 = float(np.asarray(p.lyapunov.V(grid.nodes[grid.origin_index][None, :]))[0])
    margins = tuple(k0 + lv.alpha * v0 - abs(lv.lam) for lv in levels)
    return LambdaBoundReport(ok=all(m >= -1e-12 for m in margins), margins=margins)
