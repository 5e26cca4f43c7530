"""Run configuration: strict parsing of the JSON config tree.

Every section is a plain dataclass, so defaults live in one place.  The
problem section has one dataclass per family, picked by ``problem.family``.
A key that the chosen family or mode never reads is rejected with the key
named, and so is a key that another given key would override or a value of
the wrong JSON type.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .ergodic import AlphaSchedule, DomainConfig
from .expressions import compile_kernel_field, compile_scalar_field
from .problem import (ControlProblem, KernelSpec, constant_cost_problem,
                      constant_kernel, power_drift_problem)

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_problem",
           "build_alpha_schedule"]

MODES = ("discounted", "ergodic", "certify", "convergence-study")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ControlFieldConfig:
    drift: tuple[str, ...]
    cost: str
    zeroth: str | None = None
    kernel: str | None = None


@dataclass(frozen=True)
class PowerDriftConfig:
    family: ClassVar[str] = "power_drift"
    gamma: float
    theta: float
    s: float
    drift_sign: float = -1.0
    cost_shift: float = 0.0

    def build(self, d: int) -> ControlProblem:
        return power_drift_problem(self.gamma, self.theta, d, self.s,
                                   drift_sign=self.drift_sign)


@dataclass(frozen=True)
class ConstantCostConfig:
    family: ClassVar[str] = "constant_cost"
    kappa: float
    s: float = 0.75
    local_identity: bool = False
    cost_shift: float = 0.0

    def build(self, d: int) -> ControlProblem:
        return constant_cost_problem(self.kappa, d, self.s,
                                     local_identity=self.local_identity)


def _compiled(key: str, expr: str, d: int, compile_field=compile_scalar_field):
    """``compile_field(expr, d)``, its ``ValueError`` (constant arithmetic
    that fails at the origin included) naming ``key``."""
    try:
        return compile_field(expr, d)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


@dataclass(frozen=True)
class CustomConfig:
    family: ClassVar[str] = "custom"
    s: float
    controls: tuple[ControlFieldConfig, ...]
    lambda_ell: float = 1.0
    Lambda_ell: float = 1.0
    cost_shift: float = 0.0

    def __post_init__(self):
        if not self.controls:
            raise ValueError("controls must be a non-empty list")

    def build(self, d: int) -> ControlProblem:
        """The problem, a malformed entry rejected with its key named."""
        drifts, costs, zeroths, kernels = [], [], [], []
        any_zeroth = any(c.zeroth is not None for c in self.controls)
        for i, c in enumerate(self.controls):
            key = f"problem.controls[{i}]"
            if len(c.drift) != d:
                raise ValueError(f"key '{key}.drift' needs {d} component "
                                 f"expressions, got {len(c.drift)}")
            comps = [_compiled(f"{key}.drift[{j}]", e, d) for j, e in enumerate(c.drift)]

            def make_b(comps=comps):
                def b(x):
                    x = np.asarray(x, dtype=float)
                    return np.stack([f(x) for f in comps], axis=-1)
                return b

            drifts.append(make_b())
            costs.append(_compiled(f"{key}.cost", c.cost, d))
            if any_zeroth:
                if c.zeroth is None:
                    raise ValueError(f"key '{key}.zeroth' is missing; either all "
                                     "controls carry zeroth or none")
                zeroths.append(_compiled(f"{key}.zeroth", c.zeroth, d))
            if c.kernel is not None:
                kernels.append(_compiled(f"{key}.kernel", c.kernel, d,
                                         compile_kernel_field))
            else:
                kernels.append(constant_kernel(2.0 - 2.0 * self.s))
        kspec = KernelSpec(s=self.s, lambda_ell=self.lambda_ell,
                           Lambda_ell=self.Lambda_ell, k=tuple(kernels))
        return ControlProblem(
            controls=tuple(f"tau{i}" for i in range(len(self.controls))),
            kernel=kspec,
            drift=tuple(drifts), cost=tuple(costs),
            zeroth=tuple(zeroths) if any_zeroth else None)


_FAMILIES = {cls.family: cls
             for cls in (PowerDriftConfig, ConstantCostConfig, CustomConfig)}


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_policy_iters: int = 60

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_policy_iters < 1:
            raise ValueError("max_policy_iters must be at least 1")


@dataclass(frozen=True)
class AlphaConfig:
    start: float = AlphaSchedule.start
    factor: float = AlphaSchedule.factor
    max_levels: int = AlphaSchedule.max_levels
    values: tuple[float, ...] | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.start <= 0:
            # the discount of discounted mode; the sweep's range is
            # checked by build_alpha_schedule
            raise ValueError(f"start must be positive, got {self.start}")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    problem: PowerDriftConfig | ConstantCostConfig | CustomConfig
    grid: DomainConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    alpha: AlphaConfig = field(default_factory=AlphaConfig)
    output_dir: str = "out"


_SECTION_TYPES = {
    "grid": DomainConfig,
    "solver": SolverConfig,
    "alpha": AlphaConfig,
}


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# Keys a mode never reads, per section; giving one is an error.
_UNREAD_IN_MODE = {
    "certify": {"solver": _names(SolverConfig), "alpha": _names(AlphaConfig),
                "grid": ("inner_radius",)},
    "discounted": {"alpha": ("factor", "max_levels", "values", "tol")},
}


_KINDS = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
          float: ("a finite number", "finite numbers"), str: ("a string", "strings")}


def _kind(tp, plural: bool = False) -> str:
    """The JSON type a field annotation accepts, in words."""
    args = get_args(tp)
    if type(None) in args:
        return _kind(args[0]) + " or null"
    if get_origin(tp) is tuple:
        return "a list of " + _kind(args[0], plural=True)
    return _KINDS.get(tp, ("a mapping", "mappings"))[plural]


def _fits(tp, val) -> bool:
    """Whether a JSON value fits a field annotation.

    Booleans are not numbers, and NaN and ±Infinity, which ``json`` reads,
    are not finite numbers.
    """
    args = get_args(tp)
    if type(None) in args:
        return val is None or _fits(args[0], val)
    if get_origin(tp) is tuple:
        return isinstance(val, (list, tuple)) and all(_fits(args[0], v) for v in val)
    if tp in (int, float):
        number = numbers.Integral if tp is int else numbers.Real
        return (isinstance(val, number) and not isinstance(val, bool)
                and -math.inf < val < math.inf)
    return isinstance(val, tp if tp in _KINDS else dict)


def _coerce(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    names = _names(cls)
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown key '{key}' in {where} "
                              f"(it takes {', '.join(names)})")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key '{f.name}' in {where}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, val in raw.items():
        if not _fits(hints[key], val):
            raise ConfigError(f"key '{key}' in {where} must be {_kind(hints[key])}, "
                              f"got {val!r}")
        if key == "controls":
            val = tuple(_coerce(ControlFieldConfig, c, f"section 'problem.controls[{i}]'")
                        for i, c in enumerate(val))
        elif isinstance(val, list):
            val = tuple(val)
        kwargs[key] = val
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _coerce_problem(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError("section 'problem' must be a mapping")
    family = raw.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"key 'problem.family' must be one of {tuple(_FAMILIES)}, "
                          f"got {family!r}")
    keys = {k: v for k, v in raw.items() if k != "family"}
    return _coerce(_FAMILIES[family], keys,
                   f"section 'problem' of family '{family}'")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {"mode", "output_dir", "problem"} | set(_SECTION_TYPES)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' at config root")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for required in ("problem", "grid"):
        if required not in raw:
            raise ConfigError(f"missing required section '{required}'")
    if not isinstance(raw.get("output_dir", ""), str):
        raise ConfigError(f"key 'output_dir' must be a string, got {raw['output_dir']!r}")
    sections = {name: _coerce(cls, raw.get(name, {}), f"section '{name}'")
                for name, cls in _SECTION_TYPES.items()}
    cfg = RunConfig(mode=mode, output_dir=raw.get("output_dir", "out"),
                    problem=_coerce_problem(raw["problem"]), **sections)
    _check_given_keys(raw, cfg)
    if cfg.mode in ("ergodic", "convergence-study"):
        try:
            build_alpha_schedule(cfg)
        except ValueError as exc:
            raise ConfigError(f"section 'alpha': {exc}") from None
    try:
        prob = build_problem(cfg)
    except ValueError as exc:
        raise ConfigError(f"section 'problem': {exc}") from None
    if cfg.mode == "certify" and prob.lyapunov is None:
        raise ConfigError("certify mode needs a problem family with Lyapunov data")
    return cfg


def _check_given_keys(raw: dict, cfg: RunConfig) -> None:
    """Reject keys, as given in ``raw``, that the run would not read."""
    for section, unread in _UNREAD_IN_MODE.get(cfg.mode, {}).items():
        for key in raw.get(section, {}):
            if key in unread:
                raise ConfigError(f"key '{section}.{key}' is not read in mode "
                                  f"'{cfg.mode}'")
    alpha = raw.get("alpha", {})
    if "values" in alpha:
        for key in ("start", "factor", "max_levels"):
            if key in alpha:
                raise ConfigError(f"key 'alpha.{key}' is not read when "
                                  "'alpha.values' lists the levels")
    p = cfg.problem
    if isinstance(p, ConstantCostConfig) and p.local_identity:
        for section, key in (("problem", "s"), ("grid", "reg_radius"), ("grid", "r_far_margin")):
            if key in raw[section]:
                raise ConfigError(f"key '{section}.{key}' is not read with 'local_identity': "
                                  "true, which drops the jump part")
    if (cfg.mode == "discounted" and "start" in alpha and isinstance(p, CustomConfig)
            and any(c.zeroth is not None for c in p.controls)):
        raise ConfigError("key 'alpha.start' is not read when the controls carry "
                          "'zeroth', which sets the discount")
    if cfg.mode in ("ergodic", "convergence-study") and isinstance(p, CustomConfig):
        for i, c in enumerate(p.controls):
            if c.zeroth is not None:
                raise ConfigError(f"key 'problem.controls[{i}].zeroth' is not read in "
                                  f"mode '{cfg.mode}', where the discount sets the "
                                  "zeroth-order term")


def build_problem(cfg: RunConfig) -> ControlProblem:
    p = cfg.problem
    prob = p.build(cfg.grid.d)
    if p.cost_shift != 0.0:
        shift = float(p.cost_shift)
        prob = replace(prob, cost=tuple(_shifted(g, shift) for g in prob.cost))
    return prob


def _shifted(g, shift: float):
    def gg(x):
        return np.asarray(g(x), dtype=float) + shift
    return gg


def build_alpha_schedule(cfg: RunConfig) -> AlphaSchedule:
    a = cfg.alpha
    if a.values is not None:
        return AlphaSchedule(explicit=tuple(a.values))
    return AlphaSchedule(start=a.start, factor=a.factor, max_levels=a.max_levels)
