"""Configuration-driven entry point.

Reads a JSON run config, executes the requested mode and writes artifacts:
``report.json`` (deterministic summary), ``solution.csv`` (node coordinates
plus the solved field), ``trace.csv`` in discounted mode,
``certificate.json`` in certify mode and
``run_meta.json`` (wall-clock metadata and, in ergodic and discounted mode,
the count of frozen-policy solves per linear solver, the total of
BiCGStab iterations and the number of near-field LU factorizations; excluded
from determinism checks).
Exit status: 0 on success, 1 for validation/config failures, an output
directory that cannot be made, monotonicity violations and stencils over
the size cap, 2 when a solve ends flagged non-converged.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
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


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _solution_csv(grid, values: np.ndarray) -> str:
    header = ",".join([f"x{c + 1}" for c in range(grid.d)] + ["u"])
    rows = np.column_stack([grid.nodes, values]).tolist()
    return "".join([header + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows])


def _finite(c: float) -> float | None:
    """``c``, with ±inf written as JSON ``null``."""
    return None if np.isinf(c) else c


def _radius_trace(trace) -> list[dict]:
    return [{"R": R, "inner_change": _finite(c)} for R, c in trace]


def _certificate(prob, grid, q):
    """The envelope fit of ``sup_tau L_tau[V]`` of ``prob`` on ``grid``."""
    return fit_envelope(evaluate_lyapunov_drift(prob, grid, q), prob.lyapunov, grid)


def _run_ergodic(cfg: RunConfig, prob):
    sol = vanishing_discount(prob, cfg.grid, build_alpha_schedule(cfg), cfg.alpha.tol,
                             solver_tol=cfg.solver.tol,
                             max_iter=cfg.solver.max_policy_iters)
    grid = sol.grid
    invariants = {
        "origin_normalized": bool(sol.u[grid.origin_index] == 0.0),
        "growth_nonincreasing_tail": bool(sol.growth_report["nonincreasing_tail"]),
        "lambda_trace_cauchy": bool(sol.converged),
    }
    if prob.lyapunov is not None and len(sol.alpha_trace) >= 2:
        cert = _certificate(prob, grid, sol.operator.quadrature)
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
             "lam_change": _finite(lv.lam_change),
             "wbar_change": _finite(lv.wbar_change),
             "alpha_norm": lv.alpha_norm, "residual": lv.residual}
            for lv in sol.alpha_trace
        ],
        "radius_trace": _radius_trace(sol.radius_trace),
        "growth_report": sol.growth_report,
        "invariants": invariants,
    }
    return report, (grid, sol.u), {}, sol.converged, vars(sol.counts)


def _run_discounted(cfg: RunConfig, prob):
    alpha = cfg.alpha.start if prob.zeroth is None else None
    sol, radius_trace, op, counts = expand_domain(prob, alpha, cfg.grid, cfg.solver.tol,
                                                  max_iter=cfg.solver.max_policy_iters)
    grid = op.grid
    report = {
        "mode": "discounted",
        "alpha": alpha,
        "residual_inf_norm": sol.residual_inf_norm,
        "iterations": sol.iterations,
        "converged": bool(sol.converged),
        "radius_trace": _radius_trace(radius_trace),
        "radius_stabilized": bool(radius_trace[-1][1] <= cfg.solver.tol),
        "sup_norm": float(np.max(np.abs(sol.u))),
    }
    if prob.lyapunov is not None:
        cert = _certificate(prob, grid, op.quadrature)
        if cert.ok:
            br = check_barrier(sol, prob, grid, k0=cert.k0, c_floor=op.c_floor())
            report["barrier"] = {"ok": br.ok, "n_violations": br.n_violations,
                                 "min_margin": br.min_margin, "detail": br.detail}
    trace = "iteration,residual,policy_changes\n" + "".join(
        f"{it},{repr(float(res))},{changes}\n" for it, res, changes in sol.trace)
    return report, (grid, sol.u), {"trace.csv": trace}, sol.converged, vars(counts)


def _run_certify(cfg: RunConfig, prob):
    grid = build_grid(cfg.grid.d, cfg.grid.hx, cfg.grid.radii[-1])
    q = _quadrature(prob, cfg.grid, grid)
    cert = _certificate(prob, grid, q)
    payload = {**cert.to_dict(), "validation": validate_problem(prob, grid, q).summary()}
    report = {"mode": "certify", "ok": bool(cert.ok), "k0": cert.k0, "k1": cert.k1,
              "n_violations": len(cert.violations), "worst_margin": cert.worst_margin}
    return report, (grid, cert.values), {"certificate.json": _json(payload)}, cert.ok, {}


def _run_convergence_study(cfg: RunConfig, prob):
    report = convergence_study(prob, cfg.grid, build_alpha_schedule(cfg), cfg.alpha.tol,
                               solver_tol=cfg.solver.tol,
                               max_iter=cfg.solver.max_policy_iters)
    return {"mode": "convergence-study", **report}, None, {}, all(report["converged"]), {}


# Mode -> runner.  A runner only computes: it returns the report, the
# ``(grid, values)`` of solution.csv or None, the text of its other artifacts
# by file name, success and its run_meta.json entries.  ``run`` writes them.
_RUNNERS = {"ergodic": _run_ergodic, "discounted": _run_discounted,
            "certify": _run_certify, "convergence-study": _run_convergence_study}


def _check_output_dir(outdir: Path) -> None:
    """Raise the ``OSError`` that ``outdir.mkdir(parents=True)`` would raise at
    its nearest existing ancestor (a file, or not writable), creating nothing."""
    top = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not top.is_dir() or not os.access(top, os.W_OK | os.X_OK):
        code = errno.EACCES if top.is_dir() else errno.EEXIST if top == outdir else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(outdir))


def run(cfg: RunConfig, output_dir: str | None = None) -> int:
    """Execute one run config and write its files; returns the process exit status.

    An output directory that cannot be made raises before the run; it is made
    only after the runner returns, so a run that raises leaves none behind."""
    t0 = time.perf_counter()
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    _check_output_dir(outdir)
    report, solution, artifacts, ok, counts = _RUNNERS[cfg.mode](cfg, build_problem(cfg))
    outdir.mkdir(parents=True, exist_ok=True)
    files = {"report.json": _json(report), **artifacts}
    if solution is not None:
        files["solution.csv"] = _solution_csv(*solution)
    for name, text in files.items():
        (outdir / name).write_text(text)
    (outdir / "run_meta.json").write_text(_json({
        "nlhjb_version": __version__, **counts,
        "wall_seconds": time.perf_counter() - t0}))
    return 0 if ok else 2


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
