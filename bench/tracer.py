"""Outside-in tracer for nlhjb: per-layer self time and exact counts.

``Tracer.install`` wraps every public function of the traced ``nlhjb``
modules and every scipy linear-solver entry point.  Callers import by name
(``from .discounted import solve_normalized``), so each wrapper replaces the
original at every binding site: in every ``nlhjb`` module namespace, the
package namespace and the scipy namespaces.  A span's self time is its
duration minus the time of the wrapped calls it makes; the self times of all
spans under ``cli.run`` therefore add up to the wall time of ``cli.run``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

# Module -> metric that receives the self time of its public functions.
MODULE_METRIC = {
    "config": "config.self_s",
    "expressions": "expressions.self_s",
    "grid": "grid.build_s",
    "quadrature": "quadrature.build_s",
    "operators": "operators.assemble_s",
    "discounted": "discounted.howard_self_s",
    "ergodic": "ergodic.ladder_self_s",
    "lyapunov": "lyapunov.drift_eval_s",
    "cli": "cli.self_s",
}
# Public functions whose self time goes elsewhere than their module's metric.
FUNCTION_METRIC = {
    "operators.apply_inf": "operators.apply_inf_s",
    "operators.apply_control": "operators.apply_inf_s",
    "ergodic.check_bar_w_bound": "ergodic.checks_s",
    "ergodic.check_lambda_bound": "ergodic.checks_s",
    "ergodic.verify_ergodic_pair": "ergodic.checks_s",
    "lyapunov.fit_envelope": "lyapunov.fit_s",
    "lyapunov.with_certificate": "lyapunov.fit_s",
}
TIME_METRICS = sorted(set(MODULE_METRIC.values()) | set(FUNCTION_METRIC.values())
                      | {"discounted.linsolve_s"})
COUNT_METRICS = [
    "discounted.linsolve_calls", "discounted.linsolve_fallbacks",
    "discounted.howard_iters", "operators.nnz", "operators.stored_bytes",
    "ergodic.alpha_levels", "ergodic.radius_solves",
    "quadrature.n_offsets", "grid.n_nodes",
]

# scipy solver entry points, all timed under discounted.linsolve_s.  A direct
# solve right after an iterative one in the same calling span is a fallback.
ITERATIVE = {("scipy.sparse.linalg", n) for n in ("bicgstab", "gmres", "lgmres", "cg")}
DIRECT = {("scipy.sparse.linalg", n) for n in ("spsolve", "splu", "factorized")} | {
    ("scipy.linalg", n) for n in ("solve", "lu_factor", "lu_solve")}

# oracles is test-only; problem holds problem definitions, timed in its callers.
UNTRACED = {"oracles", "problem"}

_HOWARD = {"discounted.solve_normalized", "discounted.solve_policy_iteration",
           "discounted.solve_value_iteration"}


class _Frame:
    __slots__ = ("child_s", "last_solver")

    def __init__(self):
        self.child_s = 0.0
        self.last_solver = None


class _LUProxy:
    """Factorization object whose ``solve`` is traced; all else delegates."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.self_s = {m: 0.0 for m in TIME_METRICS}
        self.metric_calls = Counter()
        self.calls = Counter()
        self.counts = Counter({m: 0 for m in COUNT_METRICS})
        self._stack: list[_Frame] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, metric: str, fn, solver_kind: str | None = None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if solver_kind is not None and parent is not None:
                if solver_kind == "direct" and parent.last_solver == "iterative":
                    self.counts["discounted.linsolve_fallbacks"] += 1
                parent.last_solver = solver_kind
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[metric] += dt - frame.child_s
                if parent is not None:
                    parent.child_s += dt
                self.metric_calls[metric] += 1
                self.calls[name] += 1
            return self._on_result(name, metric, result)

        return traced

    def _on_result(self, name: str, metric: str, r):
        c = self.counts
        if metric == "discounted.linsolve_s":
            c["discounted.linsolve_calls"] += 1
            if name.endswith(".splu"):
                return _LUProxy(r, self.wrap(name + ".solve", metric, r.solve, "direct"))
            if name.endswith(".factorized"):
                return self.wrap(name + "()", metric, r, "direct")
        elif name in ("expressions.compile_scalar_field", "expressions.compile_kernel_field"):
            return self.wrap(name + "()", metric, r)
        elif name == "grid.build_grid":
            c["grid.n_nodes"] = max(c["grid.n_nodes"], int(r.n_nodes))
        elif name == "quadrature.build_quadrature":
            c["quadrature.n_offsets"] = max(c["quadrature.n_offsets"], int(r.n_offsets))
        elif name == "operators.assemble":
            for m in getattr(r, "base", ()):
                c["operators.nnz"] += int(m.nnz)
                c["operators.stored_bytes"] += int(
                    m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        elif name in _HOWARD:
            c["discounted.howard_iters"] += int(r.iterations)
            c["ergodic.radius_solves"] += 1
        elif name == "ergodic.vanishing_discount":
            c["ergodic.alpha_levels"] += len(r.alpha_trace)
        return r

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and rebind them wherever they are bound."""
        import nlhjb
        import scipy.linalg
        import scipy.sparse.linalg

        modules = [nlhjb]
        wrappers: dict[int, object] = {}
        for info in pkgutil.iter_modules(nlhjb.__path__):
            if info.name in UNTRACED:
                continue
            mod = importlib.import_module(f"nlhjb.{info.name}")
            modules.append(mod)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{info.name}.{attr}"
                metric = FUNCTION_METRIC.get(name, MODULE_METRIC.get(info.name))
                if metric is None:
                    raise KeyError(f"no metric for traced module nlhjb.{info.name}")
                wrappers[id(fn)] = self.wrap(name, metric, fn)
        scipy_mods = {"scipy.sparse.linalg": scipy.sparse.linalg,
                      "scipy.linalg": scipy.linalg}
        for kind, entries in (("iterative", ITERATIVE), ("direct", DIRECT)):
            for modname, attr in entries:
                fn = getattr(scipy_mods[modname], attr)
                wrappers[id(fn)] = self.wrap(f"{modname}.{attr}",
                                             "discounted.linsolve_s", fn, kind)
        for mod in modules + list(scipy_mods.values()):
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "metric_calls": dict(self.metric_calls),
            "calls": dict(sorted(self.calls.items())),
            "counts": dict(self.counts),
        }
