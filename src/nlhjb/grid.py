"""Uniform lattices on truncated balls.

The computational domain is the set of lattice points ``hx * Z^d`` inside the
closed Euclidean ball of radius ``R``.  Everything outside the ball is
exterior data, a vectorised scalar field or ``None`` for zero data, which
:func:`~nlhjb.operators.assemble` reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "build_grid", "lattice_box"]


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
    # dense int lookup of the box |z|_inf <= k + 1, -1 on its outer layer
    _table: np.ndarray = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_index_of_lattice(self, z: np.ndarray) -> np.ndarray:
        """Map integer lattice coordinates (…, d) to node indices, -1 if exterior.

        Points outside the box |z|_inf <= k are clipped onto the table's
        outer layer, which holds -1.
        """
        k = self._halfwidth
        z = np.clip(np.asarray(z) + (k + 1), 0, 2 * k + 2)
        return self._table[tuple(np.moveaxis(z, -1, 0))]

    @functools.cached_property
    def ring(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each node's neighbours at offsets |z|_inf <= 1 that are nodes, itself
        included, row by row: ``(rows, cols, k, indptr)``, k the offset's
        index in ``lattice_box(d, 1)`` and node i's entries at
        ``indptr[i]:indptr[i+1]``, a CSR layout.  Each row's columns ascend.
        Built once.
        """
        j = self.node_index_of_lattice(self.lattice[:, None, :] + lattice_box(self.d, 1))
        inside = j >= 0
        rows, k = np.nonzero(inside)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(inside, axis=1))])
        return rows, j[rows, k], k, indptr

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)


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

    table = np.full((2 * k + 3,) * d, -1, dtype=np.int64)
    table[tuple((lattice + k + 1).T)] = np.arange(lattice.shape[0])

    origin = int(np.argmin(np.sum(nodes**2, axis=1)))
    return Grid(d=d, hx=hx, R=R, lattice=lattice, nodes=nodes,
                origin_index=origin, _halfwidth=k, _table=table)

