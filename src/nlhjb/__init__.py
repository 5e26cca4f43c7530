"""nlhjb: monotone finite-difference solvers for ergodic and discounted
Hamilton-Jacobi-Bellman equations driven by symmetric stable-like jump
operators, with drift, optional mixed local terms, and Foster-Lyapunov
certification."""

__version__ = "0.1.0"

from .discounted import (BarrierReport, HowardSolution, check_barrier,
                         solve_normalized, solve_policy_iteration)
from .ergodic import (AlphaSchedule, DomainConfig, ErgodicSolution,
                      check_bar_w_bound, check_lambda_bound, convergence_study,
                      expand_domain, vanishing_discount)
from .grid import Grid, build_grid
from .lyapunov import LyapunovCertificate, evaluate_lyapunov_drift, fit_envelope
from .operators import (DiscreteOperator, MonotonicityError, apply_control,
                        apply_inf, assemble, pucci_extremal)
from .problem import (ControlProblem, KernelSpec, LyapunovData, MixedSpec,
                      ValidationReport, constant_cost_problem, constant_kernel,
                      power_drift_problem, validate_problem, x_kernel)
from .quadrature import JumpQuadrature, build_quadrature

__all__ = [
    "__version__",
    "Grid", "build_grid",
    "KernelSpec", "MixedSpec", "LyapunovData", "ControlProblem",
    "ValidationReport", "validate_problem", "power_drift_problem",
    "constant_cost_problem", "constant_kernel", "x_kernel",
    "JumpQuadrature", "build_quadrature",
    "DiscreteOperator", "MonotonicityError", "assemble", "apply_control",
    "apply_inf", "pucci_extremal",
    "HowardSolution", "BarrierReport",
    "solve_policy_iteration", "solve_normalized", "check_barrier",
    "DomainConfig", "AlphaSchedule", "ErgodicSolution", "expand_domain",
    "vanishing_discount", "convergence_study",
    "check_bar_w_bound", "check_lambda_bound",
    "LyapunovCertificate", "evaluate_lyapunov_drift", "fit_envelope",
]
