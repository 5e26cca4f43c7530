"""Declarative description of controlled jump-diffusion problems.

A :class:`ControlProblem` bundles a finite control set with per-control
coefficient fields (kernel density factor, drift, running cost, optional
zeroth-order term), optional mixed local/Lévy data and optional Lyapunov
data.  Coefficients are evaluable callables over point arrays so one problem
serves many grids; tabulation happens at operator assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid
from .quadrature import JumpQuadrature

__all__ = [
    "KernelSpec", "MixedSpec", "LyapunovData", "ControlProblem",
    "CheckResult", "ValidationReport", "validate_problem",
    "power_drift_problem", "constant_cost_problem", "constant_kernel",
    "x_kernel",
]

ScalarField = Callable[[np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray], np.ndarray]
KernelField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def constant_kernel(value: float) -> KernelField:
    """Kernel factor k(x, y) ≡ value: the :func:`x_kernel` of a constant field."""
    v = float(value)
    return x_kernel(lambda x: np.full(np.shape(x)[:-1], v))


def x_kernel(field: ScalarField) -> KernelField:
    """Kernel factor k(x, y) = field(x) that reads no y, tagged with ``x_field``.

    Every weight of node x_i's jump stencil is then the k ≡ 1 weight times
    field(x_i), so assembly and the Lyapunov certificate apply the jump part
    as one lattice convolution scaled per node instead of evaluating the
    kernel per (node, offset).
    """

    def k(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], np.asarray(y).shape[:-1])
        return np.broadcast_to(np.asarray(field(x), dtype=float), shape).copy()

    k.x_field = field
    return k


@dataclass(frozen=True)
class KernelSpec:
    """Stable-like kernel density factor with its ellipticity class.

    ``k`` is one callable shared by all controls or a sequence aligned with
    the control list; admissible values lie in [(2-2s)λ, (2-2s)Λ] and must be
    symmetric in the jump direction, k(x, y) = k(x, -y).  The class needs
    s in (1/2, 1) and 0 < λ ≤ Λ < ∞; a field outside it raises
    ``ValueError`` naming the field.
    """

    s: float
    lambda_ell: float
    Lambda_ell: float
    k: KernelField | Sequence[KernelField]

    def __post_init__(self):
        if not 0.5 < self.s < 1.0:
            raise ValueError(f"s must be in (1/2, 1), got {self.s}")
        if not 0.0 < self.lambda_ell:
            raise ValueError(f"lambda_ell must be positive, got {self.lambda_ell}")
        if not self.lambda_ell <= self.Lambda_ell < np.inf:
            raise ValueError(f"Lambda_ell must be finite and at least lambda_ell = "
                             f"{self.lambda_ell}, got {self.Lambda_ell}")

    def kernel_for(self, tau: int) -> KernelField:
        if callable(self.k):
            return self.k
        return self.k[tau]

    def band(self) -> tuple[float, float, float]:
        """``(lo, hi, tol)``: the band [(2-2s)λ, (2-2s)Λ] and the slack a
        kernel value, or its asymmetry, may have outside it."""
        fac = 2.0 - 2.0 * self.s
        hi = fac * self.Lambda_ell
        return fac * self.lambda_ell, hi, 1e-10 * max(1.0, hi)

    def excursion(self, kv: np.ndarray) -> np.ndarray:
        """How far each kernel value lies outside the band; at most 0 inside."""
        lo, hi, _ = self.band()
        return np.maximum(lo - kv, kv - hi)

    @staticmethod
    def asymmetry(kv: np.ndarray, mirror: np.ndarray) -> np.ndarray:
        """|k(x, y) - k(x, -y)| for finite ``kv``; a non-finite mirror is an infinite gap."""
        return np.where(np.isfinite(mirror), np.abs(kv - mirror), np.inf)


@dataclass(frozen=True)
class MixedSpec:
    """Local second-order part and optional Lévy–Itô jump part, whose
    jumps are compensated on |y| <= 1."""

    a: Callable[[np.ndarray], np.ndarray] | Sequence[Callable]   # (n,d)->(n,d,d)
    levy_kernel: KernelField | Sequence[KernelField] | None = None
    levy_majorant: ScalarField | None = None

    def a_for(self, tau: int):
        if callable(self.a):
            return self.a
        return self.a[tau]

    def levy_for(self, tau: int):
        if self.levy_kernel is None:
            return None
        if callable(self.levy_kernel):
            return self.levy_kernel
        return self.levy_kernel[tau]


@dataclass(frozen=True)
class LyapunovData:
    """Lyapunov pair (V, h) with analytic derivatives.

    ``h`` carries the decay shape; the constants (k0, k1) of the drift
    condition are fitted numerically, into a
    :class:`~nlhjb.lyapunov.LyapunovCertificate`.
    """

    V: ScalarField
    grad_V: VectorField
    hess_V: Callable[[np.ndarray], np.ndarray]
    h: ScalarField
    envelope_exponent: float
    mu: float
    gamma: float | None = None


@dataclass(frozen=True)
class ControlProblem:
    controls: tuple[str, ...]
    kernel: KernelSpec | None
    drift: tuple[VectorField, ...]
    cost: tuple[ScalarField, ...]
    zeroth: tuple[ScalarField, ...] | None = None
    mixed: MixedSpec | None = None
    lyapunov: LyapunovData | None = None

    def __post_init__(self):
        if len(self.controls) == 0:
            raise ValueError("control set must be non-empty")
        shared = []   # fields that may also be one callable for every control
        if self.kernel is not None:
            shared.append(("kernel", self.kernel.k))
        if self.mixed is not None:
            shared += [("a", self.mixed.a), ("levy_kernel", self.mixed.levy_kernel)]
        for name, seq in [("drift", self.drift), ("cost", self.cost), ("zeroth", self.zeroth)] + [
                (n, f) for n, f in shared if not callable(f)]:
            if seq is not None and len(seq) != len(self.controls):
                raise ValueError(f"{name} fields must match the control count")
        if self.kernel is None and self.mixed is None:
            raise ValueError("problem needs a jump kernel or a mixed local part")

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @property
    def has_jumps(self) -> bool:
        """Whether the problem has a jump kernel or a Lévy part, which need a quadrature."""
        return self.kernel is not None or (
            self.mixed is not None and self.mixed.levy_kernel is not None)

    @property
    def jump_order(self) -> float:
        """The order s of the jump quadrature: the kernel's s, else 0.75."""
        return self.kernel.s if self.kernel is not None else 0.75


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> list[dict]:
        return [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail,
             "witness": None if c.witness is None else list(c.witness)}
            for c in self.checks
        ]


def _sample(arr: np.ndarray, cap: int) -> np.ndarray:
    if arr.shape[0] <= cap:
        return arr
    stride = int(np.ceil(arr.shape[0] / cap))
    return arr[::stride]


def _finite(name: str, vals) -> np.ndarray:
    """``vals`` as floats; raises ``ValueError`` naming ``name`` if one is NaN/inf."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} evaluates to NaN/inf on sampled points")
    return vals


def _worst(worst: tuple, vals: np.ndarray, control: str, *axes: np.ndarray) -> tuple:
    """The running ``(largest value, witness)`` after one control's ``vals``: the
    control and the point of each of ``axes`` at the largest value, which an
    earlier control keeps unless ``vals`` exceeds it."""
    top = vals.max()
    if not top > worst[0]:
        return worst
    at = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(top), (control, *(tuple(ax[i]) for ax, i in zip(axes, at)))


def _worst_check(name: str, worst: tuple, detail: str, tol: float = 1e-10) -> CheckResult:
    """The check that the largest value is at most ``tol``, witnessed if not."""
    top, wit = worst
    return CheckResult(name, top <= tol, detail.format(top), wit if top > tol else None)


def _outer_slope(r: np.ndarray, vals: np.ndarray) -> float:
    """Log-log slope of ``vals`` against radius on the outer half of the samples."""
    mask = (r >= 0.5 * np.max(r)) & (r > 0) & (vals > 0)
    if np.count_nonzero(mask) < 3:
        return 0.0
    lr, lv = np.log(r[mask]), np.log(vals[mask])
    return float(np.polyfit(lr, lv, 1)[0])


def validate_problem(p: ControlProblem, grid: Grid, q: JumpQuadrature) -> ValidationReport:
    """Check the problem's structural assumptions at grid resolution, with
    kernels sampled at the offsets and tail probes of ``q``.

    Soft failures land in the report with witness points; malformed fields
    (NaN, negative kernel or Lyapunov data) raise immediately, and so does a
    ``q`` that does not fit (:meth:`~nlhjb.quadrature.JumpQuadrature.check_fit`).
    """
    q.check_fit(grid, p.jump_order)
    xs = _sample(grid.nodes, 128)
    ys = _sample(q.half_offsets, 128)
    checks: list[CheckResult] = []

    if p.kernel is not None:
        tol = p.kernel.band()[2]
        asym = bound = (0.0, None)
        yk = np.concatenate([ys, q.kernel_points[q.n_offsets:]])
        for t, c in enumerate(p.controls):
            k = p.kernel.kernel_for(t)
            kp = _finite(f"kernel[{c}]", k(xs[:, None, :], yk[None, :, :]))
            if np.any(kp < 0):
                i, j = np.unravel_index(int(np.argmin(kp)), kp.shape)
                raise ValueError(f"kernel[{c}] negative at x={xs[i]}, y={yk[j]}")
            km = np.asarray(k(xs[:, None, :], -yk[None, :, :]), dtype=float)
            asym = _worst(asym, p.kernel.asymmetry(kp, km), c, xs, yk)
            bound = _worst(bound, p.kernel.excursion(kp), c, xs, yk)
        checks.append(_worst_check("kernel-symmetry", asym, "max |k(x,y)-k(x,-y)| = {:.3e}", tol))
        checks.append(_worst_check(
            "kernel-bounds", bound, "max excursion outside [(2-2s)λ,(2-2s)Λ] = {:.3e}", tol))

    if p.zeroth is not None:
        zeroth = [_finite(f"zeroth[{c}]", f(grid.nodes)) for c, f in zip(p.controls, p.zeroth)]
        cmax = max(float(cv.max()) for cv in zeroth)
        checks.append(CheckResult(
            "zeroth-sign", cmax < 0,
            f"sup_tau c_tau = {cmax:.6g} (c_floor = {max(0.0, -cmax):.6g})"))

    cost, drift = [], []
    for t, c in enumerate(p.controls):
        cost.append(_finite(f"cost[{c}]", p.cost[t](grid.nodes)))
        drift.append(_finite(f"drift[{c}]", p.drift[t](grid.nodes)))

    ly = p.lyapunov
    if ly is not None:
        r = grid.radii()
        Vv = _finite("V", ly.V(grid.nodes))
        hv = _finite("h", ly.h(grid.nodes))
        if np.any(Vv < 0) or np.any(hv < 0):
            raise ValueError("Lyapunov fields must be nonnegative")

        mono_ok, mono_wit = True, None
        for axis in range(grid.d):
            for sgn in (1, -1):
                ray = sgn * np.eye(grid.d, dtype=np.int64)[axis]
                steps = np.arange(1, grid._halfwidth + 1)
                zpts = steps[:, None] * ray[None, :]
                pts = zpts.astype(float) * grid.hx
                rr = np.linalg.norm(pts, axis=1)
                sel = rr >= 1.0   # the growth radius
                if np.count_nonzero(sel) < 2:
                    continue
                for fname, fvals in (("V", ly.V(pts[sel])), ("h", ly.h(pts[sel]))):
                    dd = np.diff(np.asarray(fvals, dtype=float))
                    if np.any(dd < -1e-9):
                        mono_ok = False
                        mono_wit = (fname, axis, sgn)
        checks.append(CheckResult(
            "lyapunov-inf-compact", mono_ok,
            "V, h nondecreasing along sampled rays beyond growth radius (proxy)",
            mono_wit))

        sup_b = np.max([np.linalg.norm(b, axis=1) for b in drift], axis=0)
        sup_g = np.max(np.abs(np.broadcast_arrays(*cost)), axis=0)   # a cost may be scalar
        s_ord = p.jump_order
        ratio_b = sup_b / (1.0 + Vv) ** ((2 * s_ord - 1) * ly.mu)
        ratio_g = sup_g / (1.0 + Vv) ** (1.0 + 2 * s_ord * ly.mu)
        ratios = [("drift-growth", ratio_b), ("cost-growth", ratio_g)]
        if p.zeroth is not None:
            ratios.append(("zeroth-growth", np.max(np.abs(np.broadcast_arrays(*zeroth)), axis=0)
                           / (1.0 + Vv) ** (2 * s_ord * ly.mu)))
        for nm, ratio in ratios:
            slope = _outer_slope(r, ratio)
            w = int(np.argmax(ratio))
            checks.append(CheckResult(
                nm, slope <= 0.1,
                f"max ratio {ratio.max():.4g}, outer log-log slope {slope:+.3f}",
                (tuple(grid.nodes[w]),) if slope > 0.1 else None))

        with np.errstate(divide="ignore", invalid="ignore"):
            gh = np.where(hv > 0, sup_g / hv, 0.0)
        slope_gh = _outer_slope(r, gh)
        checks.append(CheckResult(
            "cost-dominated", slope_gh < 0,
            f"sup|g|/h outer slope {slope_gh:+.3f} (o(h) proxy; domination "
            f"checked outside the unit ball)",
        ))

        if ly.gamma is not None:
            ok = ly.gamma * (1 + ly.mu) < 2 * s_ord
            checks.append(CheckResult(
                "lyapunov-integrability", ok,
                f"gamma(1+mu) = {ly.gamma * (1 + ly.mu):.4g} "
                f"{'<' if ok else '>='} 2s = {2 * s_ord:.4g}"))
        else:
            w = (1.0 + np.linalg.norm(ys, axis=1) ** (grid.d + 2 * s_ord)) ** -1.0
            vals = np.asarray(ly.V(ys), dtype=float) ** (1 + ly.mu) * w
            est = float(vals.sum() * grid.hx**grid.d)
            checks.append(CheckResult(
                "lyapunov-integrability", np.isfinite(est),
                f"lattice estimate of ∫ V^(1+mu) ω_s = {est:.4g}"))

    if p.mixed is not None:
        ell = (0.0, None)
        for t, c in enumerate(p.controls):
            eig = np.linalg.eigvalsh(_finite(f"a[{c}]", p.mixed.a_for(t)(xs)))
            if p.kernel is not None:
                ell = _worst(ell, np.maximum(p.kernel.lambda_ell - eig,
                                             eig - p.kernel.Lambda_ell).max(axis=1), c, xs)
            elif np.any(eig <= 0):
                ell = (1.0, (c, tuple(xs[int(np.argmin(eig.min(axis=1)))])))
        checks.append(_worst_check("mixed-ellipticity", ell, "max eigenvalue excursion {:.3e}"))
        if p.mixed.levy_kernel is not None and p.mixed.levy_majorant is not None:
            maj = np.asarray(p.mixed.levy_majorant(ys), dtype=float)
            over = (0.0, None)
            for t, c in enumerate(p.controls):
                kv = np.asarray(p.mixed.levy_for(t)(xs[:, None, :], ys[None, :, :]), dtype=float)
                if np.any(kv < 0):
                    raise ValueError("Lévy kernel negative on sampled points")
                over = _worst(over, kv - maj[None, :], c, xs, ys)
            checks.append(_worst_check("mixed-majorant", over, "max K_tau - K = {:.3e}"))
            ry = np.linalg.norm(ys, axis=1)
            est = float(np.sum(np.minimum(ry**2, 1.0) * maj))
            checks.append(CheckResult(
                "mixed-levy-integrability", np.isfinite(est),
                f"lattice estimate of ∫ min(|y|²,1) K = {est:.4g}"))

    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# builtin families


def _radial_cap_coeffs(gamma: float) -> tuple[float, float, float]:
    # even polynomial a + b r^2 + c r^4 matching r^gamma at r=1 up to 2nd order
    c = gamma * (gamma - 2.0) / 8.0
    b = gamma / 2.0 - gamma * (gamma - 2.0) / 4.0
    a = 1.0 - b - c
    return a, b, c


def _power_lyapunov(gamma: float, theta: float, mu: float, d: int) -> LyapunovData:
    a, b, c = _radial_cap_coeffs(gamma)
    expo = theta + gamma - 1.0

    def V(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        out = np.where(r >= 1.0, np.maximum(r, 1e-300) ** gamma,
                       a + b * r**2 + c * r**4)
        return out

    def grad_V(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        outer = gamma * np.maximum(r, 1e-300) ** (gamma - 2.0) * x
        inner = (2 * b + 4 * c * r**2) * x
        return np.where(r >= 1.0, outer, inner)

    def hess_V(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, dd = x.shape
        r = np.linalg.norm(x, axis=1)
        eye = np.eye(dd)[None, :, :]
        xxt = x[:, :, None] * x[:, None, :]
        rs = np.maximum(r, 1.0)   # H_out is read only where r >= 1
        H_out = (gamma * rs ** (gamma - 2.0))[:, None, None] * eye \
            + (gamma * (gamma - 2.0) * rs ** (gamma - 4.0))[:, None, None] * xxt
        H_in = (2 * b + 4 * c * r**2)[:, None, None] * eye + 8 * c * xxt
        return np.where((r >= 1.0)[:, None, None], H_out, H_in)

    def h(x: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return r**expo

    return LyapunovData(V=V, grad_V=grad_V, hess_V=hess_V, h=h,
                        envelope_exponent=expo, mu=mu, gamma=gamma)


def power_drift_problem(gamma: float, theta: float, d: int, s: float, *,
                        drift_sign: float = -1.0) -> ControlProblem:
    """Radial power-law family: V = |x|^gamma outside B_1, drift -x|x|^(theta-1).

    Two controls: drift scales 1 and 1.5 (at least 1, which keeps the inward
    drift bound), Gaussian costs of amplitude 1 and 0.5 and width 1 and 2.
    The admissible exponent window is gamma in (s+1/2, 2s), theta >= 0 and
    theta < (2s-gamma)(2s-1), so theta + gamma - 1 > 0, as gamma > 1;
    violations are rejected with the offending inequality spelled out.
    ``drift_sign=+1`` builds the outward-drift twin (same exponents, no
    stability).
    """
    if not (0.5 < s < 1.0):
        raise ValueError(f"s={s} violates s in (1/2, 1)")
    if not (gamma > s + 0.5):
        raise ValueError(f"gamma={gamma} violates gamma > s + 1/2 = {s + 0.5}")
    if not (gamma < 2 * s):
        raise ValueError(f"gamma={gamma} violates gamma < 2s = {2 * s}")
    if not (theta >= 0):
        raise ValueError(f"theta={theta} violates theta >= 0")
    lim = (2 * s - gamma) * (2 * s - 1.0)
    if not (theta < lim):
        raise ValueError(f"theta={theta} violates theta < (2s-gamma)(2s-1) = {lim}")

    mu = theta / (gamma * (2 * s - 1.0))
    sgn = float(drift_sign)

    def make_drift(scale: float) -> VectorField:
        def b(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            fac = np.where(r > 0, np.maximum(r, 1e-300) ** (theta - 1.0), 0.0)
            return sgn * scale * fac * x
        return b

    def make_cost(amp: float, width: float) -> ScalarField:
        def g(x: np.ndarray) -> np.ndarray:
            r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
            return amp * np.exp(-r2 / (2.0 * width * width))
        return g

    return ControlProblem(
        controls=("tau0", "tau1"),
        kernel=KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                          k=constant_kernel(2.0 - 2.0 * s)),
        drift=(make_drift(1.0), make_drift(1.5)),
        cost=(make_cost(1.0, 1.0), make_cost(0.5, 2.0)),
        lyapunov=_power_lyapunov(gamma, theta, mu, d),
    )


def constant_cost_problem(kappa: float, d: int, s: float | None = 0.75, *,
                          n_controls: int = 2,
                          local_identity: bool = False) -> ControlProblem:
    """Constant running cost with bounded drifts; exact ergodic pair (0, kappa).

    With ``local_identity=True`` the jump kernel is dropped and a unit local
    diffusion takes its place (degenerate mixed path).
    """
    def make_drift(i: int) -> VectorField:
        sc = (-1.0) ** i * (0.5 + 0.5 * i)

        def b(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            r2 = np.sum(x**2, axis=-1, keepdims=True)
            return sc * x / (1.0 + r2)
        return b

    def g(x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[:-1], float(kappa))

    kernel = None
    mixed = None
    if local_identity:
        def a_id(x: np.ndarray) -> np.ndarray:
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return np.broadcast_to(np.eye(x.shape[1]), (x.shape[0], x.shape[1], x.shape[1])).copy()
        mixed = MixedSpec(a=a_id)
    else:
        kernel = KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0,
                            k=constant_kernel(2.0 - 2.0 * s))

    return ControlProblem(
        controls=tuple(f"tau{i}" for i in range(n_controls)),
        kernel=kernel,
        drift=tuple(make_drift(i) for i in range(n_controls)),
        cost=tuple(g for _ in range(n_controls)),
        mixed=mixed,
    )
