"""Configuration-driven entry point.

Reads a JSON run config, executes the requested mode and writes artifacts:
``report.json`` (deterministic summary), ``solution.csv`` (node coordinates
plus the solved field), ``certificate.json`` in certify mode and
``run_meta.json`` (wall-clock metadata and, in ergodic and discounted mode,
the count of frozen-policy solves per linear solver, the total of
BiCGStab iterations and the number of near-field factorizations; excluded
from determinism checks).
Exit status: 0 on success, 1 for validation/config failures, monotonicity
violations and stencils over the size cap, 2 when a solve ends flagged
non-converged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, build_alpha_schedule, build_problem,
                     parse_config)
from .discounted import check_barrier
from .ergodic import (_quadrature, check_bar_w_bound, check_lambda_bound,
                      convergence_study, expand_domain, vanishing_discount)
from .grid import build_grid
from .lyapunov import evaluate_lyapunov_drift, fit_envelope
from .operators import MonotonicityError
from .problem import validate_problem

__all__ = ["main", "run"]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_solution_csv(path: Path, grid, values: np.ndarray) -> None:
    cols = [grid.nodes[:, c] for c in range(grid.d)] + [np.asarray(values)]
    header = ",".join([f"x{c + 1}" for c in range(grid.d)] + ["u"])
    data = np.column_stack(cols)
    with path.open("w") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _run_ergodic(cfg: RunConfig, outdir: Path) -> tuple[int, dict]:
    """Ergodic run: exit code and the solver counts for ``run_meta.json``."""
    prob = build_problem(cfg)
    schedule = build_alpha_schedule(cfg)
    sol = vanishing_discount(prob, cfg.grid, schedule, cfg.alpha.tol,
                             solver_tol=cfg.solver.tol,
                             max_iter=cfg.solver.max_policy_iters)
    grid = sol.grid
    invariants = {
        "origin_normalized": bool(sol.u[grid.origin_index] == 0.0),
        "growth_nonincreasing_tail": bool(sol.growth_report["nonincreasing_tail"]),
        "lambda_trace_cauchy": bool(sol.converged),
    }
    if prob.lyapunov is not None and len(sol.alpha_trace) >= 2:
        cert = fit_envelope(evaluate_lyapunov_drift(prob, grid, sol.operator.quadrature),
                            prob.lyapunov, grid)
        if cert.ok:
            lb = check_lambda_bound(sol.alpha_trace, prob, grid, cert.k0)
            invariants["lambda_alpha_bounded"] = bool(lb.ok)
        bw = check_bar_w_bound(sol.alpha_trace, prob, grid, cfg.grid.window_radius)
        invariants["wbar_growth_bound"] = bool(bw.ok)
    report = {
        "mode": "ergodic",
        "lambda_star": float(sol.lambda_star),
        "converged": bool(sol.converged),
        "alpha_trace": [
            {"alpha": lv.alpha, "lambda": lv.lam,
             "lam_change": None if np.isinf(lv.lam_change) else lv.lam_change,
             "wbar_change": None if np.isinf(lv.wbar_change) else lv.wbar_change,
             "alpha_norm": lv.alpha_norm, "residual": lv.residual}
            for lv in sol.alpha_trace
        ],
        "radius_trace": [
            {"R": R, "inner_change": None if np.isinf(c) else c}
            for R, c in sol.radius_trace
        ],
        "growth_report": sol.growth_report,
        "invariants": invariants,
    }
    _write_json(outdir / "report.json", report)
    _write_solution_csv(outdir / "solution.csv", grid, sol.u)
    return 0 if sol.converged else 2, vars(sol.counts)


def _run_discounted(cfg: RunConfig, outdir: Path) -> tuple[int, dict]:
    """Discounted run: exit code and the solver counts for ``run_meta.json``."""
    prob = build_problem(cfg)
    alpha = cfg.alpha.start if prob.zeroth is None else None
    sol = expand_domain(prob, alpha, cfg.grid, cfg.solver.tol,
                        max_iter=cfg.solver.max_policy_iters)
    op = sol.diagnostics["operator"]
    grid = op.grid
    report = {
        "mode": "discounted",
        "alpha": alpha,
        "residual_inf_norm": sol.residual_inf_norm,
        "iterations": sol.iterations,
        "converged": bool(sol.converged),
        "radius_trace": [
            {"R": R, "inner_change": None if np.isinf(c) else c}
            for R, c in sol.diagnostics["radius_trace"]
        ],
        "radius_stabilized": bool(sol.diagnostics["radius_stabilized"]),
        "sup_norm": float(np.max(np.abs(sol.w))),
    }
    if prob.lyapunov is not None:
        cert = fit_envelope(evaluate_lyapunov_drift(prob, grid, op.quadrature),
                            prob.lyapunov, grid)
        if cert.ok:
            br = check_barrier(sol, prob, grid, k0=cert.k0)
            report["barrier"] = {"ok": br.ok, "n_violations": br.n_violations,
                                 "min_margin": br.min_margin, "detail": br.detail}
    _write_json(outdir / "report.json", report)
    _write_solution_csv(outdir / "solution.csv", grid, sol.w)
    with (outdir / "trace.csv").open("w") as fh:
        fh.write("iteration,residual,policy_changes\n")
        for it, res, changes in sol.trace:
            fh.write(f"{it},{repr(float(res))},{changes}\n")
    return 0 if sol.converged else 2, vars(sol.counts)


def _run_certify(cfg: RunConfig, outdir: Path) -> tuple[int, dict]:
    prob = build_problem(cfg)
    if prob.lyapunov is None:
        raise ConfigError("certify mode needs a problem family with Lyapunov data")
    grid = build_grid(cfg.grid.d, cfg.grid.hx, cfg.grid.radii[-1])
    q = _quadrature(prob, cfg.grid, grid)
    values = evaluate_lyapunov_drift(prob, grid, q)
    cert = fit_envelope(values, prob.lyapunov, grid)
    payload = cert.to_dict()
    payload["validation"] = validate_problem(prob, grid, q).summary()
    _write_json(outdir / "certificate.json", payload)
    _write_json(outdir / "report.json", {
        "mode": "certify", "ok": bool(cert.ok), "k0": cert.k0, "k1": cert.k1,
        "n_violations": len(cert.violations),
        "worst_margin": cert.worst_margin,
    })
    _write_solution_csv(outdir / "solution.csv", grid, values)
    return 0 if cert.ok else 2, {}


def _run_convergence_study(cfg: RunConfig, outdir: Path) -> tuple[int, dict]:
    report = convergence_study(build_problem(cfg), cfg.grid,
                               build_alpha_schedule(cfg), cfg.alpha.tol,
                               solver_tol=cfg.solver.tol,
                               max_iter=cfg.solver.max_policy_iters)
    _write_json(outdir / "report.json", {"mode": "convergence-study", **report})
    return 0 if all(report["converged"]) else 2, {}


# Mode -> runner returning the exit code and its entries for ``run_meta.json``.
_RUNNERS = {"ergodic": _run_ergodic, "discounted": _run_discounted,
            "certify": _run_certify, "convergence-study": _run_convergence_study}


def run(cfg: RunConfig, output_dir: str | None = None) -> int:
    """Execute one run config; returns the process exit status."""
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    code, counts = _RUNNERS[cfg.mode](cfg, outdir)
    _write_json(outdir / "run_meta.json", {"nlhjb_version": __version__, **counts,
                                           "wall_seconds": time.perf_counter() - t0})
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="nlhjb",
        description="Solvers for ergodic and discounted HJB equations with "
                    "stable-like jump operators")
    ap.add_argument("config", help="path to the JSON run config")
    ap.add_argument("--output-dir", default=None, help="override config output_dir")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
        cfg = parse_config(raw)
        code = run(cfg, output_dir=args.output_dir)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError,
            MemoryError, MonotonicityError) as exc:
        block = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(block, sort_keys=True))
        return 1
    if args.verbose:
        outdir = Path(args.output_dir if args.output_dir else cfg.output_dir)
        print((outdir / "report.json").read_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
