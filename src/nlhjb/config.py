"""Run configuration: strict parsing of the JSON config tree.

Every section is a plain dataclass, so defaults live in one place.  The
problem section has one dataclass per family, picked by ``problem.family``.
A key that the chosen family or mode never reads is rejected with the key
named, and so is a key that another given key would override or a value of
the wrong JSON type.
"""

from __future__ import annotations

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
        drifts, costs, zeroths, kernels = [], [], [], []
        any_zeroth = any(c.zeroth is not None for c in self.controls)
        for c in self.controls:
            if len(c.drift) != d:
                raise ConfigError(f"drift needs {d} component expressions")
            comps = [compile_scalar_field(e, d) for e in c.drift]

            def make_b(comps=comps):
                def b(x):
                    x = np.asarray(x, dtype=float)
                    return np.stack([f(x) for f in comps], axis=-1)
                return b

            drifts.append(make_b())
            costs.append(compile_scalar_field(c.cost, d))
            if any_zeroth:
                if c.zeroth is None:
                    raise ConfigError("either all controls carry zeroth or none")
                zeroths.append(compile_scalar_field(c.zeroth, d))
            if c.kernel is not None:
                kernels.append(compile_kernel_field(c.kernel, d))
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
    start: float = 0.5
    factor: float = 0.5
    max_levels: int = 30
    values: tuple[float, ...] | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


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
          float: ("a number", "numbers"), str: ("a string", "strings")}


def _kind(tp, plural: bool = False) -> str:
    """The JSON type a field annotation accepts, in words."""
    args = get_args(tp)
    if type(None) in args:
        return _kind(args[0]) + " or null"
    if get_origin(tp) is tuple:
        return "a list of " + _kind(args[0], plural=True)
    return _KINDS.get(tp, ("a mapping", "mappings"))[plural]


def _fits(tp, val) -> bool:
    """Whether a JSON value fits a field annotation; booleans are not numbers."""
    args = get_args(tp)
    if type(None) in args:
        return val is None or _fits(args[0], val)
    if get_origin(tp) is tuple:
        return isinstance(val, (list, tuple)) and all(_fits(args[0], v) for v in val)
    if tp in (int, float):
        number = numbers.Integral if tp is int else numbers.Real
        return isinstance(val, number) and not isinstance(val, bool)
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
    if family not in _FAMILIES:
        raise ConfigError(f"problem.family must be one of {tuple(_FAMILIES)}, "
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
    if isinstance(p, ConstantCostConfig) and p.local_identity and "s" in raw["problem"]:
        raise ConfigError("key 'problem.s' is not read with 'local_identity': "
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
