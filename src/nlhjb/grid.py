"""Uniform lattices on truncated balls and exterior extension rules.

The computational domain is the set of lattice points ``hx * Z^d`` inside the
closed Euclidean ball of radius ``R``.  Everything outside the ball is handled
through an :class:`ExteriorRule`, which either returns zero or evaluates a
user-supplied scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Grid", "ExteriorRule", "build_grid", "evaluate_extended", "lattice_box"]


def lattice_box(d: int, k: int) -> np.ndarray:
    """Integer points of the box |z|_inf <= k, shape (n, d), in lexicographic order."""
    r = np.arange(-k, k + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*[r] * d, indexing="ij"), axis=-1).reshape(-1, d)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform lattice on the closed ball B_R, with deterministic ordering.

    Nodes are ordered lexicographically by their integer lattice coordinates,
    so two grids built with identical parameters are identical arrays.
    """

    d: int
    hx: float
    R: float
    lattice: np.ndarray   # (N, d) integer coordinates
    nodes: np.ndarray     # (N, d) = hx * lattice
    origin_index: int
    _halfwidth: int = 0
    _table: np.ndarray = field(default=None, repr=False)  # dense int lookup

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_index_of_lattice(self, z: np.ndarray) -> np.ndarray:
        """Map integer lattice coordinates (…, d) to node indices, -1 if exterior."""
        z = np.asarray(z)
        k = self._halfwidth
        inside = np.all(np.abs(z) <= k, axis=-1)
        idx = np.full(z.shape[:-1], -1, dtype=np.int64)
        idx[inside] = self._table[tuple((z[inside] + k).T)]
        return idx

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)


@dataclass(frozen=True)
class ExteriorRule:
    """Extension of a grid function outside B_R.

    ``kind`` is ``"zero"`` (Dirichlet zero data) or ``"function"`` with a
    vectorised scalar field evaluable at any exterior point queried by the
    quadrature, including the lumped-tail probe radii beyond ``R_far``.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    @staticmethod
    def zero() -> "ExteriorRule":
        return ExteriorRule(kind="zero")

    @staticmethod
    def function(fn: Callable[[np.ndarray], np.ndarray]) -> "ExteriorRule":
        return ExteriorRule(kind="function", fn=fn)

    @staticmethod
    def constant(value: float) -> "ExteriorRule":
        v = float(value)
        return ExteriorRule(
            kind="function",
            fn=lambda x: np.full(np.asarray(x).shape[:-1], v, dtype=float),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "zero":
            return np.zeros(x.shape[0])
        vals = np.asarray(self.fn(x), dtype=float)
        return np.broadcast_to(vals, (x.shape[0],)).copy()


def build_grid(d: int, hx: float, R: float) -> Grid:
    """Build the uniform lattice on the closed ball of radius ``R``.

    Requires ``hx > 0``, ``R >= hx`` and ``d in {1, 2}``; solver radius
    schedules additionally enforce R >= 4*hx per step.
    """
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension d={d}; expected 1 or 2")
    if not (hx > 0):
        raise ValueError(f"grid spacing must be positive, got hx={hx}")
    if R < hx:
        raise ValueError(f"radius too small: R={R} < hx={hx}")

    k = int(np.floor(R / hx + 1e-12))
    lattice = lattice_box(d, k)
    # closed-ball membership with a relative slack so boundary nodes are kept;
    # the box order is lexicographic, and so is any subset of it
    r2 = np.sum(lattice.astype(float) ** 2, axis=1) * hx * hx
    lattice = lattice[r2 <= R * R * (1.0 + 1e-12)]
    nodes = lattice.astype(float) * hx

    table = np.full((2 * k + 1,) * d, -1, dtype=np.int64)
    table[tuple((lattice + k).T)] = np.arange(lattice.shape[0])

    origin = int(np.argmin(np.sum(nodes**2, axis=1)))
    return Grid(d=d, hx=hx, R=R, lattice=lattice, nodes=nodes,
                origin_index=origin, _halfwidth=k, _table=table)


def evaluate_extended(grid: Grid, field_values: np.ndarray,
                      rule: ExteriorRule, x: np.ndarray) -> np.ndarray:
    """Evaluate a grid function at lattice-shifted points, extending by ``rule``.

    ``x`` may be a single point (d,) or a batch (..., d); points that coincide
    with grid nodes return the stored value, everything else goes through the
    exterior rule.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    z = np.rint(pts / grid.hx).astype(np.int64)
    on_lattice = np.all(np.abs(pts - z * grid.hx) <= 1e-9 * max(1.0, grid.hx), axis=1)
    idx = grid.node_index_of_lattice(z)
    idx = np.where(on_lattice, idx, -1)
    out = np.empty(pts.shape[0])
    interior = idx >= 0
    out[interior] = np.asarray(field_values)[idx[interior]]
    if np.any(~interior):
        out[~interior] = rule(pts[~interior])
    return out[0] if single else out
