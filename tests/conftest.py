"""Shared builders for the test suite: seeded random problems and helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import nlhjb
from nlhjb import ControlProblem, KernelSpec, constant_kernel


def pytest_report_header(config):
    """Name the ``nlhjb`` under test: pytest's ``pythonpath = ["src"]`` puts
    this checkout's ``src`` ahead of ``PYTHONPATH``."""
    return f"nlhjb: {Path(nlhjb.__file__).parent}"


def smooth_field(rng: np.random.Generator, d: int, amp: float = 1.0):
    """Bounded smooth random field: a short cosine series over the coordinates."""
    n_modes = 3
    a = rng.normal(size=n_modes) * amp / n_modes
    w = rng.uniform(0.3, 1.5, size=(n_modes, d))
    ph = rng.uniform(0.0, 2 * np.pi, size=n_modes)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for k in range(n_modes):
            out = out + a[k] * np.cos(np.tensordot(x, w[k], axes=([-1], [0])) + ph[k])
        return out

    return f


def smooth_drift(rng: np.random.Generator, d: int, amp: float = 0.8):
    comps = [smooth_field(rng, d, amp) for _ in range(d)]

    def b(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([f(x) for f in comps], axis=-1)

    return b


def varying_kernel(rng: np.random.Generator, s: float, wobble: float = 0.25):
    """Admissible y-symmetric kernel in [(2-2s)(1-wobble), (2-2s)(1+wobble)]."""
    xi = rng.uniform(0.4, 1.2)

    def k(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
        mod = 1.0 + wobble * np.sin(xi * np.asarray(x, dtype=float)[..., 0]) * np.cos(r)
        return (2.0 - 2.0 * s) * np.broadcast_to(
            mod, np.broadcast_shapes(np.asarray(x).shape[:-1], np.asarray(y).shape[:-1])).copy()

    return k


def random_problem(seed: int, d: int = 1, s: float = 0.75, n_controls: int = 2,
                   c_floor: float | None = None, vary_kernel: bool = True,
                   nonneg_cost: bool = False) -> ControlProblem:
    """Seeded bounded-coefficient problem; ``c_floor`` installs c_tau <= -c_floor."""
    rng = np.random.default_rng(seed)
    kern = varying_kernel(rng, s) if vary_kernel else constant_kernel(2.0 - 2.0 * s)
    drifts = tuple(smooth_drift(rng, d) for _ in range(n_controls))
    costs = []
    for _ in range(n_controls):
        f = smooth_field(rng, d)
        if nonneg_cost:
            costs.append(lambda x, f=f: np.abs(f(x)))
        else:
            costs.append(f)
    zeroth = None
    if c_floor is not None:
        zs = []
        for _ in range(n_controls):
            f = smooth_field(rng, d, amp=0.3)
            zs.append(lambda x, f=f, c=c_floor: -c - np.abs(f(x)))
        zeroth = tuple(zs)
    return ControlProblem(
        controls=tuple(f"tau{i}" for i in range(n_controls)),
        kernel=KernelSpec(s=s, lambda_ell=1.0 - 0.3, Lambda_ell=1.0 + 0.3,
                          k=kern) if vary_kernel else
        KernelSpec(s=s, lambda_ell=1.0, Lambda_ell=1.0, k=kern),
        drift=drifts, cost=tuple(costs), zeroth=zeroth)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
