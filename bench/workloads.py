"""Workload configs, pinned answers and answer checks for the nlhjb benchmark.

Each workload is one CLI run config.  The seed picks a constant
``problem.cost_shift`` for the ergodic workloads: a constant cost shift moves
lambda* by exactly the shift and leaves the solve's work unchanged, so every
seed does the same work and still gets a different input.  The discounted
workload has zero exterior data, so a cost shift would change its answer
non-trivially; its input is the same for every seed.
"""

from __future__ import annotations

import copy
import random

POWER_DRIFT = {"family": "power_drift", "gamma": 1.6, "theta": 0.1, "s": 0.9}
SOLVER = {"tol": 1e-9, "max_policy_iters": 60}
ALPHA = {"start": 0.5, "factor": 0.5, "max_levels": 25, "tol": 1e-6}

# Answers must agree with the pinned value to this multiple of solver.tol.
CHECK_TOL_FACTOR = 10.0

# Per-layer self-time metrics every workload must exercise (at least one
# call); a zero count is flagged in the traced run.
_COMMON_LAYERS = [
    "config.self_s", "grid.build_s", "quadrature.build_s",
    "operators.assemble_s", "operators.apply_inf_s",
    "discounted.howard_self_s", "discounted.linsolve_s",
    "ergodic.ladder_self_s", "cli.self_s",
]

WORKLOADS = {
    "ergodic-1d-fine": {
        "config": {
            "mode": "ergodic",
            "problem": POWER_DRIFT,
            "grid": {"d": 1, "hx": 0.0625, "radii": [8.0, 16.0, 32.0]},
            "solver": SOLVER,
            "alpha": ALPHA,
        },
        "pinned": ("lambda_star", 0.22482180072756755),
        "seeded_shift": True,
        "expect_layers": _COMMON_LAYERS + ["lyapunov.drift_eval_s", "lyapunov.fit_s"],
    },
    "discounted-2d": {
        "config": {
            "mode": "discounted",
            "problem": POWER_DRIFT,
            "grid": {"d": 2, "hx": 0.2, "radii": [3.0, 6.0]},
            "solver": SOLVER,
            "alpha": {"start": 0.5},
        },
        "pinned": ("sup_norm", 0.25924873157203376),
        "seeded_shift": False,
        "expect_layers": _COMMON_LAYERS + ["lyapunov.drift_eval_s", "lyapunov.fit_s"],
    },
    "ergodic-2d-xkernel": {
        "config": {
            "mode": "ergodic",
            "problem": {
                "family": "custom", "s": 0.75,
                "lambda_ell": 0.9, "Lambda_ell": 1.1,
                "controls": [
                    {"drift": ["-x1", "-x2"], "cost": "exp(-r*r)",
                     "kernel": "0.5+0.04*cos(x1)*cos(x2)"},
                    {"drift": ["-2*x1", "-0.5*x2"], "cost": "0.5*exp(-x1*x1)",
                     "kernel": "0.5-0.04*exp(-r*r)"},
                ],
            },
            "grid": {"d": 2, "hx": 0.5, "radii": [4.0, 8.0]},
            "solver": SOLVER,
            "alpha": ALPHA,
        },
        "pinned": ("lambda_star", 0.07778459536154819),
        "seeded_shift": True,
        "expect_layers": _COMMON_LAYERS + ["expressions.self_s"],
    },
}


def make_config(name: str, seed: int) -> tuple[dict, float]:
    """The run config for ``name`` under ``seed`` and the cost shift it carries."""
    w = WORKLOADS[name]
    raw = copy.deepcopy(w["config"])
    shift = 0.0
    if w["seeded_shift"]:
        # Quarter steps are exact in binary, so the shift adds no rounding.
        shift = random.Random(seed).randrange(1, 9) / 4.0
        raw["problem"]["cost_shift"] = shift
    return raw, shift


def check_report(name: str, raw: dict, shift: float, exit_code: int | None,
                 report: dict | None) -> tuple[bool, str]:
    """Compare one run's report.json with the pinned answer."""
    if exit_code != 0:
        return False, f"cli.run returned {exit_code}"
    if report is None:
        return False, "no report.json"
    if report.get("converged") is not True:
        return False, "report says not converged"
    key, pinned = WORKLOADS[name]["pinned"]
    got = report.get(key)
    if not isinstance(got, (int, float)):
        return False, f"report has no numeric {key}"
    tol = CHECK_TOL_FACTOR * raw["solver"]["tol"]
    err = abs(got - shift - pinned)
    if not err <= tol:
        return False, f"{key}={got!r} (shift {shift}) is {err:.3g} from {pinned!r}, tol {tol:g}"
    return True, f"{key} within {err:.3g} of pinned (tol {tol:g})"
