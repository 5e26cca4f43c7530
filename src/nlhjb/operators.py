"""Assembly of monotone discrete operators and the extremal Pucci envelopes.

Per control, the assembled stencil realises

    L_tau u + c_tau u + g_tau =
        jump quadrature of δ(u,x,y) k_tau(x,y)|y|^{-d-2s}
        + upwinded b_tau·∇u  (+ mixed local part, + Lévy–Itô part)
        + c_tau u + g_tau,

with nonnegative off-diagonal weights.  Exterior targets are folded into the
constant term times the exterior data ``ext``, a field or ``None`` for zero.

When every control's kernel reads no jump direction y (a tagged
:func:`~nlhjb.problem.x_kernel`, of which
:func:`~nlhjb.problem.constant_kernel` is the constant case) and there is
no mixed or Lévy part, node x_i's jump stencil is the k ≡ 1 stencil times
k_tau(x_i): one lattice convolution, scaled per control and node.
``assemble`` then keeps only the sparse drift stencils and applies the jump
part by FFT; the explicit CSR stencils, the oracle for that path, are built
on demand by :meth:`DiscreteOperator.csr`.  Kernels that read y keep the
CSR stencils.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, lattice_box
from .problem import ControlProblem, KernelSpec, ScalarField
from .quadrature import JumpQuadrature

__all__ = [
    "DiscreteOperator", "MonotonicityError", "assemble",
    "apply_control", "apply_inf", "pucci_extremal",
]


class MonotonicityError(RuntimeError):
    """A negative or non-finite stencil weight survived assembly."""


# The Lévy–Itô part compensates its jumps y with |y| <= this radius, here
# and in the drift certificate of :mod:`nlhjb.lyapunov`.
_COMPENSATOR_RADIUS = 1.0


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, a fast real FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


# 2-d FFT operators with at least this many nodes are preconditioned by τ
# (FrozenSystem.preconditioner), smaller ones by the near-field LU.  It is
# the smallest N at and above which τ was no slower on every config of the
# crossover table in CHANGES.md (cli.run, LU against τ, 2-d power_drift and
# x-kernel configs of both modes with N from 1257 to 3209): the x-kernel
# ergodic sweep tied at N=2561 and τ was faster from N=2757 on.
_TAU_MIN_NODES = 2562


class _LatticeConvolution:
    """The jump quadrature of a kernel k ≡ 1 as a convolution on the lattice.

    The pair weight of each offset ±z sits on a (2F+1)^d weight image, F the
    far radius in lattice steps; ``diag`` is the node's own weight (offsets
    and the lumped tail mass).  Sums over all targets of all nodes are one
    real FFT convolution with the image.
    """

    def __init__(self, grid: Grid, q: JumpQuadrature):
        d = grid.d
        F = int(np.abs(q.half_lattice).max())
        W = np.zeros((2 * F + 1,) * d)
        for sign in (1, -1):
            W[tuple((sign * q.half_lattice + F).T)] = q.pair_weights
        self.grid, self.q, self.far, self.weights = grid, q, F, W
        self.diag = -(W.sum() + 2.0 * q.tail_mass)
        self._plans: dict[int, tuple] = {}

    def _plan(self, A: int) -> tuple:
        """FFT length, weight transform and node indices for half-width ``A``.

        The length L >= A + K + F + 1 keeps the cyclic wrap-around off every
        node.  ``scatter`` is each node's flat index in the box of
        half-width A; ``gather`` its flat index in the inverse, whose leading
        axes keep only the nodes' range A - K..A + K.  Built once per ``A``.
        """
        plan = self._plans.get(A)
        if plan is None:
            d, F, K = self.grid.d, self.far, self.grid._halfwidth
            L = _fast_len(max(A + K + F + 1, 2 * F + 1, 2 * A + 1))
            wrapped = np.zeros((L,) * d)
            idx = np.arange(-F, F + 1) % L
            wrapped[np.ix_(*[idx] * d)] = self.weights
            lat = self.grid.lattice
            scatter = np.ravel_multi_index(tuple((lat + A).T), (2 * A + 1,) * d)
            gather = np.ravel_multi_index((*(lat[:, :-1] + K).T, lat[:, -1] + A),
                                          (2 * K + 1,) * (d - 1) + (L,))
            plan = self._plans[A] = (L, np.fft.rfftn(wrapped), scatter, gather)
        return plan

    def sums(self, image: np.ndarray) -> np.ndarray:
        """Σ_z W[z] f(x + z·hx) at every node, f given on a centred box.

        ``image`` holds f on the box of half-width A >= K (the grid's) in
        :func:`~nlhjb.grid.lattice_box` order.  The 1-D passes of
        ``np.fft.rfftn`` and ``irfftn`` run in their order, and the
        last-axis ``irfft`` only on the rows of the leading axes that hold
        nodes.  The inverse is left unnormalised and its values at the nodes
        are scaled once by 1/L^d: that reproduces ``scipy.fft.irfftn`` bit
        for bit, where numpy's own normalisation differs from it at
        round-off in 2-d.
        """
        d, K = self.grid.d, self.grid._halfwidth
        A = (image.shape[0] - 1) // 2
        L, hat, _, gather = self._plan(A)
        f = np.fft.rfft(image, L, axis=-1)
        for axis in range(d - 2, -1, -1):
            f = np.fft.fft(f, L, axis=axis)
        f *= hat
        for axis in range(d - 1):
            f = np.fft.ifft(f, L, axis=axis, norm="forward")
        rows = f[(slice(A - K, A + K + 1),) * (d - 1)]
        conv = np.fft.irfft(rows, L, axis=-1, norm="forward")
        return conv.ravel()[gather] * (1.0 / L**d)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Jump part with k ≡ 1 and zero exterior data, applied to ``u``."""
        K = self.grid._halfwidth
        scatter = self._plan(K)[2]
        image = np.zeros((2 * K + 1,) * self.grid.d)
        image.ravel()[scatter] = u
        return self.sums(image) + self.diag * u

    def exterior(self, ext: ScalarField | None) -> np.ndarray:
        """Constant term of the k ≡ 1 jump part from exterior data: zeros,
        with no transform, for zero data."""
        grid, q = self.grid, self.q
        if ext is None:
            return np.zeros(grid.n_nodes)
        hw = grid._halfwidth + self.far
        z = lattice_box(grid.d, hw)
        outside = grid.node_index_of_lattice(z) < 0
        image = np.zeros(z.shape[0])
        image[outside] = _exterior(ext, z[outside] * grid.hx)
        const = self.sums(image.reshape((2 * hw + 1,) * grid.d))
        for tail in _tail_ext(grid, q, ext):
            const += (q.tail_mass / grid.d) * tail
        return const

    @functools.cached_property
    def tau(self) -> "_TauBox":
        """The τ form of this convolution on a lattice box of half-width A >= K
        with 2(A+1) 5-smooth, built on first use."""
        return _TauBox(self, _fast_len(self.grid._halfwidth + 1) - 1)


def _dst(x: np.ndarray, axis: int) -> np.ndarray:
    """DST-I along ``axis``: Σ_j x_j sin(π(j+1)(k+1)/(n+1)), k = 0..n-1.

    Built from ``numpy.fft`` by odd extension: (0, x, 0, -x reversed) has
    length 2(n+1), and its transform at 1..n is -2i times the DST-I of x.
    """
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    return np.moveaxis(np.fft.rfft(ext)[..., 1:n + 1].imag * -0.5, -1, axis)


class _TauBox:
    """The k ≡ 1 jump operator on the lattice box |z|_inf <= A in the τ algebra.

    On the box, with zero data outside it, that operator is ``diag`` times
    the identity plus a two-level Toeplitz matrix of the weight image.  Its
    τ form T_τ keeps the Toeplitz weights with |z_i| <= n - 1 (n = 2A + 1,
    the only ones that couple two box points) and is diagonalised by DST-I
    along both axes, with eigenvalues ``diag`` + Σ_z W[z]·cos(z·θ) at
    θ = π(j1, j2)/(n+1), j = 1..n: the real part of one FFT of the weight
    image of length 2(n+1) per axis (Bini & Capovani, Linear Algebra Appl.
    52/53 (1983) 99–126).  They are at most ``diag`` + ΣW < 0, so T_τ is
    negative definite.  It agrees with the box operator on images that
    vanish within F lattice steps of the box's faces.  Built for d = 2.
    """

    def __init__(self, conv: _LatticeConvolution, A: int):
        n, F = 2 * A + 1, conv.far
        L, c = 2 * (n + 1), min(F, n - 1)
        image = np.zeros((L, L))
        idx = np.arange(-c, c + 1) % L
        image[np.ix_(idx, idx)] = conv.weights[F - c:F + c + 1, F - c:F + c + 1]
        self.eigenvalues = conv.diag + np.fft.rfft2(image)[1:n + 1, 1:n + 1].real
        self.n = n
        # DST-I twice per axis is (n+1)/2 times the identity on each
        self._inverse = (2.0 / (n + 1)) ** 2 / self.eigenvalues
        lat = conv.grid.lattice
        self.scatter = np.ravel_multi_index(tuple((lat + A).T), (n, n))

    def spectral(self, image: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(S⊗S)·diag(weights)·(S⊗S) applied to an (n, n) box image, S the
        DST-I: T_τ for weights (2/(n+1))²·``eigenvalues``, T_τ^{-1} for
        ``_inverse``."""
        return _dst(_dst(_dst(_dst(image, 1), 0) * weights, 0), 1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """T_τ^{-1} of node values ``rhs``, zero at the box's other points,
        read back at the nodes."""
        image = np.zeros((self.n, self.n))
        image.ravel()[self.scatter] = rhs
        return self.spectral(image, self._inverse).ravel()[self.scatter]


class _Inverse(spla.LinearOperator):
    """A preconditioner's P^{-1}; ``ones`` is P^{-1} 1, made on first use."""

    @functools.cached_property
    def ones(self) -> np.ndarray:
        return self._matvec(np.ones(self.shape[0]))


class _TauInverse(_Inverse):
    """P^{-1} for P = diag(``scale``)·T_τ, T_τ the ``box``'s, read on the
    nodes: T_τ^{-1}(y / scale)."""

    def __init__(self, box: _TauBox, scale: np.ndarray):
        super().__init__(dtype=float, shape=(scale.size, scale.size))
        self.box, self.scale = box, scale

    def _matvec(self, x):
        return self.box.solve(np.ravel(x) / self.scale)


class _NearInverse(_Inverse):
    """P^{-1} by a sparse LU of P."""

    def __init__(self, lu):
        super().__init__(dtype=float, shape=lu.shape)
        self._lu = lu

    def _matvec(self, x):
        return self._lu.solve(x)


@dataclass(eq=False)
class _NearFactor:
    """Memo of :meth:`FrozenSystem.preconditioner`: policy bytes, P^{-1}, LU factors made."""

    key: bytes | None = None
    inverse: _Inverse | None = None
    count: int = 0


@dataclass(eq=False)
class _MatrixFreeJump:
    """FFT jump part of an operator: scale k_tau(x_i) on one convolution."""

    conv: _LatticeConvolution
    scale: np.ndarray                 # k_tau(x_i), shape (n_controls, N)
    ext: ScalarField | None           # exterior data of the CSR oracle
    stencils: tuple | None = None     # (base, const) of the CSR oracle


@dataclass(eq=False)
class DiscreteOperator:
    """Per-control monotone stencils stored in the layout Howard reads them.

    With T controls and N nodes, ``base`` is one CSR matrix of shape
    (T·N, N): row t·N + i is control t's stencil at node i (jump, drift and
    local parts, no zeroth term).  ``c`` (the zeroth-order term) and
    ``const`` (running cost plus exterior data) are (T, N) arrays indexed
    the same way.  A frozen policy picks one row per node
    (:meth:`frozen`), and the pointwise infimum reads all T rows of a node
    at once.  When ``jump`` is set, ``base`` holds the drift part only and
    the jump part is ``jump.scale[t, i]`` times one lattice convolution.
    """

    grid: Grid
    quadrature: JumpQuadrature | None
    problem: ControlProblem
    base: sp.csr_matrix               # (n_controls * N, N) stacked stencils
    c: np.ndarray                     # (n_controls, N) zeroth-order term
    const: np.ndarray                 # (n_controls, N) running cost + exterior data
    jump: _MatrixFreeJump | None = None   # set: base holds the drift part only
    # the memo of FrozenSystem.preconditioner(): shared by with_alpha copies,
    # a fresh one for csr() copies
    near_factor: _NearFactor = dataclasses.field(default_factory=_NearFactor)

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def csr(self) -> "DiscreteOperator":
        """The same operator with explicit CSR stencils (built once, cached).

        Returns ``self`` when the stencils are already explicit.  This is
        where the stencil-size cap applies.
        """
        if self.jump is None:
            return self
        if self.jump.stencils is None:
            self.jump.stencils = _stencils(self.problem, self.grid, self.quadrature,
                                           self.jump.ext, matrix_free=False)
        base, const = self.jump.stencils
        return dataclasses.replace(self, base=base, const=const, jump=None,
                                   near_factor=_NearFactor())

    def frozen(self, policy: np.ndarray) -> "FrozenSystem":
        """The frozen-policy system: row i of control ``policy[i]``."""
        return FrozenSystem(self, policy)

    def with_alpha(self, alpha: float) -> "DiscreteOperator":
        """Same dynamics with c ≡ -alpha, the one way to discount (else ``ValueError``)."""
        if self.problem.zeroth is not None:
            raise ValueError(f"alpha={alpha} given; the problem carries its own zeroth-order term")
        if not np.isfinite(alpha) or alpha < 0:
            raise ValueError(f"alpha={alpha} must be finite and >= 0")
        return dataclasses.replace(self, c=np.full(self.c.shape, -float(alpha)))

    def c_floor(self) -> float:
        """Largest c_floor with sup_tau c_tau <= -c_floor on the grid."""
        return float(-self.c.max())


class FrozenSystem(spla.LinearOperator):
    """Frozen-policy system and constant: row i is control ``policy[i]``'s.

    ``local`` gathers the rows ``policy[i]·N + i`` of ``op.base`` and puts c
    on the diagonal: the whole system for explicit stencils, the drift part
    when the operator applies its jump part by FFT, which then adds row i's
    convolution scaled by k_{policy[i]}(x_i).  ``const`` is the running cost
    plus exterior data.  ``tocsc`` builds the system from ``op.csr()`` for
    sparse LU.  :meth:`preconditioner`, BiCGStab's, is memoized on the
    operator per policy, so Howard steps and alpha levels that come back to
    a policy reuse it.
    """

    def __init__(self, op: DiscreteOperator, policy: np.ndarray):
        n = op.n_nodes
        super().__init__(dtype=float, shape=(n, n))
        nodes = np.arange(n)
        local = op.base[policy * n + nodes]
        local.setdiag(local.diagonal() + op.c[policy, nodes])
        local.eliminate_zeros()
        self.op, self.policy, self.local = op, policy, local
        self.const = op.const[policy, nodes]
        if op.jump is not None:
            self.scale = op.jump.scale[policy, nodes]

    def _matvec(self, x):
        x = np.ravel(x)
        out = self.local @ x
        if self.op.jump is not None:
            out += self.scale * self.op.jump.conv(x)
        return out

    def near(self) -> sp.csr_matrix:
        """The system at each node's ring neighbours |z|_inf <= 1 that are nodes.

        Row i reads ``local`` there, 3^d lookups, and on the FFT path adds
        k_{policy[i]}(x_i) times the convolution's weight at each offset z,
        its ``diag`` at z = 0.  So on both paths the diagonal holds the
        weight of every offset.  Its off-diagonals are >= 0 and -near is
        strictly diagonally dominant by rows, so it is a nonsingular
        M-matrix.  The margin is the leak to the exterior: a jump weight that
        leaves the ball (the lumped tail mass included) reaches no column,
        and the weights cut outside the ring only add to the margin.  So it
        holds at c = 0 too; with no jump part and c = 0 only the rows at the
        ball's edge leak.
        """
        rows, cols, k, indptr = self.op.grid.ring
        vals = np.asarray(self.local[rows, cols]).ravel()
        if self.op.jump is not None:
            conv = self.op.jump.conv
            # the 3^d weights around the image's centre, in lattice_box(d, 1) order
            w = conv.weights[(slice(conv.far - 1, conv.far + 2),) * conv.grid.d].flatten()
            w[w.size // 2] = conv.diag
            vals += self.scale[rows] * w[k]
        P = sp.csr_matrix((vals, cols, indptr), shape=self.shape)
        P.eliminate_zeros()
        return P

    def tau(self) -> _TauInverse:
        """P^{-1} for P = diag(k_{policy[i]}(x_i))·T_τ, T_τ the τ form of the
        k ≡ 1 jump operator (``op.jump.conv.tau``): no factor, drift and c
        left out.  2-d FFT operators only."""
        return _TauInverse(self.op.jump.conv.tau, self.scale)

    def preconditioner(self) -> spla.LinearOperator:
        """BiCGStab's P^{-1}, with ``ones`` = P^{-1} 1: :meth:`tau` on a 2-d
        FFT operator of at least ``_TAU_MIN_NODES`` nodes, else a sparse LU
        of P = :meth:`near`.

        The one owner of the preconditioner.  Its memo (``op.near_factor``)
        keeps one, keyed by the policy alone: ``with_alpha`` copies share it,
        so a factor made at an earlier alpha serves a later one.  Its
        diagonal is then off by the change in alpha, which moves only the
        preconditioner; the residual rules judge every answer.  On a new
        policy the old one is dropped before the next is built, so at most
        one is alive per operator, and the memo counts the LU factors made.
        The LU uses a symmetric minimum-degree ordering with diagonal pivots:
        a symmetric permutation keeps the strict diagonal dominance, which
        then holds in every Schur complement, so no pivot is zero.  Raises
        ``RuntimeError`` when ``splu`` does (a singular factor), which leaves
        the memo empty.
        """
        memo = self.op.near_factor
        key = self.policy.tobytes()
        if memo.key != key:
            memo.key = memo.inverse = None
            if (self.op.jump is not None and self.op.grid.d == 2
                    and self.shape[0] >= _TAU_MIN_NODES):
                memo.inverse = self.tau()
            else:
                memo.inverse = _NearInverse(spla.splu(
                    self.near().tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True}))
                memo.count += 1
            memo.key = key
        return memo.inverse

    def tocsr(self) -> sp.csr_matrix:
        if self.op.jump is None:
            return self.local
        return self.op.csr().frozen(self.policy).local

    def tocsc(self) -> sp.csc_matrix:
        return self.tocsr().tocsc()

    def bordered(self, i0: int) -> "BorderedSystem":
        return BorderedSystem(self, i0)


class BorderedSystem(spla.LinearOperator):
    """A with column i0 replaced by -1: B x = A(x with x[i0] = 0) - x[i0]·1.

    B x = rhs is the bordered system A v - m = rhs, v[i0] = 0, with
    m = x[i0] and v = x with slot i0 set to 0 (:meth:`split`).  ``A`` is a
    :class:`FrozenSystem`; B is nonsingular, since -A^{-1} 1 > 0 at i0.
    """

    def __init__(self, A: FrozenSystem, i0: int):
        super().__init__(dtype=float, shape=A.shape)
        self.A, self.i0 = A, i0

    def split(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        v = np.array(x, dtype=float).ravel()
        m = float(v[self.i0])
        v[self.i0] = 0.0
        return v, m

    def _matvec(self, x):
        v, m = self.split(x)
        return self.A._matvec(v) - m

    def preconditioner(self) -> spla.LinearOperator:
        """The same bordering of P^{-1} = ``A.preconditioner()``, by
        elimination: y maps to z + m·w, with m in slot i0, for z = P^{-1} y,
        w = P^{-1} 1 (its ``ones``) and m = -z[i0]/w[i0].  For the near-field
        LU w[i0] < 0, as -P is a nonsingular M-matrix; τ's inverse has no
        sign, so a w[i0] that is not negative and finite raises
        ``RuntimeError``, as does ``A``'s preconditioner when it fails.
        """
        P, i0 = self.A.preconditioner(), self.i0
        w = P.ones
        if not (np.isfinite(w[i0]) and w[i0] < 0):
            raise RuntimeError(f"P^-1 1 is {w[i0]} at the bordered node {i0}")

        def solve(y):
            x = P.matvec(np.ravel(y))
            m = -x[i0] / w[i0]
            x += m * w
            x[i0] = m
            return x

        return spla.LinearOperator(self.shape, matvec=solve, dtype=float)

    def tocsc(self) -> sp.csc_matrix:
        """B for sparse LU: the CSC form of ``A`` with column i0 set to -1."""
        S, i0 = self.A.tocsc(), self.i0
        ones = sp.csc_matrix(np.full((S.shape[0], 1), -1.0))
        return sp.hstack([S[:, :i0], ones, S[:, i0 + 1:]], format="csc")


def _stacked_inf(op: DiscreteOperator, u: np.ndarray):
    """Per-control values (n_controls, N), their pointwise min and the argmin policy.

    ``np.argmin`` returns the first minimum, so ties go to the lowest index.
    """
    u = np.asarray(u, dtype=float)
    vals = (op.base @ u).reshape(op.c.shape) + op.c * u + op.const
    if op.jump is not None:
        vals += op.jump.scale * op.jump.conv(u)
    policy = np.argmin(vals, axis=0)
    return vals, vals[policy, np.arange(vals.shape[1])], policy


def apply_control(op: DiscreteOperator, t: int, u: np.ndarray) -> np.ndarray:
    """Evaluate (L_t u + c_t u + g_t) at every node for control index ``t``."""
    return _stacked_inf(op, u)[0][t]


def apply_inf(op: DiscreteOperator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise infimum over controls plus the argmin policy (lowest index wins)."""
    _, vmin, policy = _stacked_inf(op, u)
    return vmin, policy


# ---------------------------------------------------------------------------
# assembly


class _Workspace:
    """Lattice targets, exterior data and tail data for one (grid, quadrature, data)."""

    def __init__(self, grid: Grid, q: JumpQuadrature | None, ext: ScalarField | None):
        self.grid, self.q, self.ext = grid, q, functools.partial(_exterior, ext)
        self._targets: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        if q is None:
            return
        if grid.n_nodes * q.n_offsets > 3e7:
            raise MemoryError("stencil would exceed the supported desk scale")
        self.tail_ext = _tail_ext(grid, q, ext)

    def targets(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node index of x_i + z·hx (-1 outside the ball) and the exterior data there.

        ``z`` is one lattice offset, shape (d,), or a set, shape (M, d); the
        two arrays have shape (N,) or (N, M), the data 0 at nodes.  Memoized.
        """
        z = np.asarray(z, dtype=np.int64)
        key = (z.shape, z.tobytes())
        hit = self._targets.get(key)
        if hit is None:
            grid = self.grid
            at = (grid.n_nodes,) + (1,) * (z.ndim - 1) + (grid.d,)
            idx = grid.node_index_of_lattice(grid.lattice.reshape(at) + z)
            outside = idx < 0
            extv = np.zeros(idx.shape)
            if np.any(outside):
                extv[outside] = self.ext((grid.nodes.reshape(at) + z * grid.hx)[outside])
            hit = self._targets[key] = (idx, extv)
        return hit


def _exterior(ext: ScalarField | None, x: np.ndarray) -> np.ndarray:
    """``ext`` at points ``x`` (n, d) or (d,), shape (n,): None is 0, a scalar broadcasts."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vals = 0.0 if ext is None else np.asarray(ext(x), dtype=float)
    return np.broadcast_to(vals, (x.shape[0],)).copy()


def _tail_ext(grid: Grid, q: JumpQuadrature, ext: ScalarField | None) -> list[np.ndarray]:
    """Exterior data at the two tail probes of each axis, summed per node."""
    out = []
    for probe in q.tail_probe_radius * np.eye(grid.d):
        out.append(_exterior(ext, grid.nodes + probe) + _exterior(ext, grid.nodes - probe))
    return out


class _StencilBuilder:
    """One control's stencil as weights ``w`` at lattice offsets ``z``.

    ``w`` is (N,) for one offset and (N, M) for a set.  A weight whose
    target leaves the ball goes into ``const`` times the exterior data there.
    Only nonzero weights are stored (non-finite ones too, so that
    :func:`_check_monotone` names them); :meth:`matrix` stores every diagonal.
    """

    def __init__(self, ws: _Workspace):
        self.ws = ws
        n = ws.grid.n_nodes
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.diag = np.zeros(n)
        self.const = np.zeros(n)

    def add(self, w: np.ndarray, z: np.ndarray) -> None:
        """Weights ``w`` on x_i + z·hx."""
        idx, extv = self.ws.targets(z)
        interior = idx >= 0
        stored = interior & (w != 0.0)
        self.rows.append(np.nonzero(stored)[0])
        self.cols.append(idx[stored])
        self.vals.append(w[stored])
        outside = np.where(interior, 0.0, w * extv)
        self.const += outside.sum(axis=-1) if w.ndim > 1 else outside

    def pair(self, w: np.ndarray, z: np.ndarray) -> None:
        """δ(u, x_i, z·hx) times ``w``: ``w`` on x_i ± z·hx, -2·Σw on the diagonal."""
        self.add(w, z)
        self.add(w, -z)
        self.diag -= 2.0 * (w.sum(axis=-1) if w.ndim > 1 else w)

    def matrix(self) -> sp.csr_matrix:
        n = self.diag.size
        rows = np.concatenate([np.arange(n)] + self.rows)
        cols = np.concatenate([np.arange(n)] + self.cols)
        vals = np.concatenate([self.diag] + self.vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _check_band(kv: np.ndarray, spec: KernelSpec, label: str, x: np.ndarray,
                y: np.ndarray | None = None) -> None:
    """Reject kernel values outside the ellipticity band [(2-2s)λ, (2-2s)Λ].

    ``kv[i, ...]`` is the value at node ``x[i]`` (and offset ``y[j]`` for a
    2-d ``kv``).  Raises ``ValueError`` naming the control and the witness
    point of the value farthest outside.  ``kv`` is finite.
    """
    lo, hi, tol = spec.band()
    excess = spec.excursion(kv)
    bad = excess > tol
    if not np.any(bad):
        return
    k = np.unravel_index(int(np.argmax(np.where(bad, excess, -np.inf))), kv.shape)
    where = f"x={tuple(x[k[0]].tolist())}"
    if y is not None:
        where += f", y={tuple(y[k[1]].tolist())}"
    raise ValueError(
        f"kernel value {kv[k]:.6g} for control {label} at {where} lies outside "
        f"[(2-2s)λ, (2-2s)Λ] = [{lo:.6g}, {hi:.6g}]")


def _checked_kernel_values(kern, spec: KernelSpec, label: str, x: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """k(x_i, y_j) of shape (N, M), checked against the band and for symmetry.

    The quadrature gives the pair ±y one weight, so it needs
    k(x, -y) = k(x, y); a kernel that differs from its mirror by more than
    the band tolerance, or whose mirror is not finite, raises ``ValueError``
    naming the control, ``x`` and ``y``.  Values that are not all finite are
    left to the stencil check (:func:`_check_monotone`), which names them.
    """
    kv = np.asarray(kern(x[:, None, :], y[None, :, :]), dtype=float)
    if not np.all(np.isfinite(kv)):
        return kv
    _check_band(kv, spec, label, x, y)
    mirror = np.asarray(kern(x[:, None, :], -y[None, :, :]), dtype=float)
    gap = spec.asymmetry(kv, mirror)
    if gap.max(initial=0.0) > spec.band()[2]:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ValueError(
            f"kernel for control {label} is not symmetric in y: k(x, y) = "
            f"{kv[i, j]:.6g} but k(x, -y) = {mirror[i, j]:.6g} at "
            f"x={tuple(x[i].tolist())}, y={tuple(y[j].tolist())}")
    return kv


def _assemble_jump(bld: _StencilBuilder, kern, spec: KernelSpec, label: str) -> None:
    """Jump stencils of ``kern``, read at ``q.kernel_points`` by one
    :func:`_checked_kernel_values` call."""
    grid, q = bld.ws.grid, bld.ws.q
    d, M = grid.d, q.n_offsets
    kv = _checked_kernel_values(kern, spec, label, grid.nodes, q.kernel_points)
    bld.pair(q.pair_weights[None, :] * kv[:, :M], q.half_lattice)
    for axis in range(d):
        wt = (q.tail_mass / d) * kv[:, M + axis]
        bld.const += wt * bld.ws.tail_ext[axis]
        bld.diag -= 2.0 * wt


def _assemble_drift(bld: _StencilBuilder, b: np.ndarray) -> None:
    grid = bld.ws.grid
    for axis, e in enumerate(np.eye(grid.d, dtype=np.int64)):
        bp = np.maximum(b[:, axis], 0.0) / grid.hx
        bm = np.maximum(-b[:, axis], 0.0) / grid.hx
        bld.add(bp, e)
        bld.add(bm, -e)
        bld.diag -= bp + bm


def _assemble_local(bld: _StencilBuilder, a: np.ndarray, label: str) -> None:
    """Local part a : D²u: a_ii - |a_12| per axis, |a_12| on the diagonal of its sign."""
    grid = bld.ws.grid
    h2 = grid.hx**2
    a12 = a[:, 0, 1:].sum(axis=1)          # an empty sum, 0, in 1-d
    s12 = np.abs(a12)
    dominance = np.diagonal(a, axis1=1, axis2=2) - s12[:, None]
    if np.any(dominance < -1e-12):
        i = int(np.argmin(dominance.min(axis=1)))
        raise MonotonicityError(
            f"local matrix for control {label} not diagonally dominant "
            f"at node {tuple(grid.nodes[i].tolist())}")
    for axis, e in enumerate(np.eye(grid.d, dtype=np.int64)):
        bld.pair(dominance[:, axis] / h2, e)
    if grid.d == 2:
        for sign, mask in ((+1, a12 >= 0), (-1, a12 < 0)):
            if np.any(mask):   # δ along the diagonal carries 1/h²
                bld.pair(np.where(mask, s12 / h2, 0.0), np.array([1, sign]))


def _assemble_levy(bld: _StencilBuilder, kern) -> np.ndarray:
    """Lévy–Itô part; returns the compensator drift to fold into upwinding."""
    grid, q = bld.ws.grid, bld.ws.q
    x = grid.nodes
    celld = grid.hx**grid.d
    beta = np.zeros((grid.n_nodes, grid.d))
    for z in (q.half_lattice, -q.half_lattice):
        y = z * grid.hx
        w = celld * np.asarray(kern(x[:, None, :], y[None, :, :]), dtype=float)
        bld.add(w, z)
        bld.diag -= w.sum(axis=1)
        inside = np.linalg.norm(y, axis=1) <= _COMPENSATOR_RADIUS
        beta -= np.einsum("nm,md->nd", w[:, inside], y[inside])
    # singular cell around the origin: second-difference with ½ ∫ y_i² K
    qsub = 16
    t = (np.arange(qsub) + 0.5) / qsub - 0.5
    sub = np.stack(np.meshgrid(*[t * grid.hx] * grid.d, indexing="ij"),
                   axis=-1).reshape(-1, grid.d)
    area = (grid.hx / qsub) ** grid.d
    k0 = np.asarray(kern(x[:, None, :], sub[None, :, :]), dtype=float)
    for axis, e in enumerate(np.eye(grid.d, dtype=np.int64)):
        coef = 0.5 * (k0 * sub[None, :, axis] ** 2).sum(axis=1) * area / grid.hx**2
        bld.pair(coef, e)
    return beta


def _check_monotone(m: sp.csr_matrix, grid: Grid, label: str) -> None:
    coo = m.tocoo()
    bad = ~np.isfinite(coo.data)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise MonotonicityError(
            f"non-finite stencil weight {coo.data[k]} for control {label} "
            f"at node {tuple(grid.nodes[coo.row[k]].tolist())}")
    off = coo.row != coo.col
    if not np.any(off):
        return
    vals = coo.data[off]
    tol = -1e-12 * max(1.0, float(np.abs(coo.data).max()))
    k = int(np.argmin(vals))
    if vals[k] < tol:
        i, j = int(coo.row[off][k]), int(coo.col[off][k])
        offset = grid.nodes[j] - grid.nodes[i]
        raise MonotonicityError(
            f"negative off-diagonal weight {vals[k]:.3e} for control {label} "
            f"at node {tuple(grid.nodes[i].tolist())}, offset {tuple(offset.tolist())}")


def _node_values(fields, grid: Grid) -> np.ndarray:
    """Per-control fields at the nodes, shape (n_controls, N)."""
    return np.stack([np.broadcast_to(np.asarray(f(grid.nodes), dtype=float),
                                     (grid.n_nodes,)) for f in fields])


def _reject(vals: np.ndarray, bad: np.ndarray, what: str, controls, grid: Grid,
            error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the value, control and node of the first ``bad``."""
    if np.any(bad):
        t, i = (int(j[0]) for j in np.nonzero(bad))
        raise error(f"{what} {vals[t, i]:.3e} for control {controls[t]} "
                    f"at node {tuple(grid.nodes[i].tolist())}")


def _node_factors(p: ControlProblem, grid: Grid) -> np.ndarray | None:
    """k_tau(x_i) of shape (n_controls, N) when the FFT jump applies, else None.

    The FFT jump applies when every control's kernel carries ``x_field``.
    Raises :class:`MonotonicityError` naming the control and the node where
    a factor is negative or not finite, and ``ValueError`` where it lies
    outside the ellipticity band (:func:`_check_band`).
    """
    if p.kernel is None or p.mixed is not None:
        return None
    kernels = [p.kernel.kernel_for(t) for t in range(p.n_controls)]
    if not all(hasattr(kern, "x_field") for kern in kernels):
        return None
    factors = _node_values([kern.x_field for kern in kernels], grid)
    _reject(factors, ~(np.isfinite(factors) & (factors >= 0)), "jump kernel factor",
            p.controls, grid, MonotonicityError)
    for t, label in enumerate(p.controls):
        _check_band(factors[t], p.kernel, label, grid.nodes)
    return factors


def _stencils(p: ControlProblem, grid: Grid, q: JumpQuadrature | None,
              ext: ScalarField | None, matrix_free: bool):
    """Stacked CSR stencils (no zeroth term) and constants g_tau + exterior terms.

    Returns ``base`` of shape (n_controls·N, N), each control checked by
    :func:`_check_monotone` before stacking, and the (n_controls, N)
    constants.  With ``matrix_free`` the jump part is left out, so no
    per-offset index maps are built.
    """
    ws = _Workspace(grid, None if matrix_free else q, ext)
    n = grid.n_nodes
    base, outside = [], []
    for t, label in enumerate(p.controls):
        bld = _StencilBuilder(ws)
        if p.kernel is not None and not matrix_free:
            _assemble_jump(bld, p.kernel.kernel_for(t), p.kernel, label)
        b = np.asarray(p.drift[t](grid.nodes), dtype=float).reshape(n, grid.d)
        if p.mixed is not None:
            levy = p.mixed.levy_for(t)
            if levy is not None:
                b = b + _assemble_levy(bld, levy)
            a = np.asarray(p.mixed.a_for(t)(grid.nodes), dtype=float)
            _assemble_local(bld, a.reshape(n, grid.d, grid.d), label)
        _assemble_drift(bld, b)
        m = bld.matrix()
        _check_monotone(m, grid, label)
        base.append(m)
        outside.append(bld.const)
    return sp.vstack(base, format="csr"), _node_values(p.cost, grid) + np.stack(outside)


def assemble(p: ControlProblem, grid: Grid, q: JumpQuadrature | None,
             ext: ScalarField | None) -> DiscreteOperator:
    """Assemble the stacked monotone stencils of L_tau + c_tau (:class:`DiscreteOperator`).

    ``ext`` is the exterior data, a vectorised scalar field or ``None`` for zero
    data.  c is the problem's zeroth term, else 0 (``with_alpha`` discounts).
    Monotonicity violations raise with the offending node, control and offset.
    ``q``, which must fit (:meth:`~nlhjb.quadrature.JumpQuadrature.check_fit`),
    may be ``None`` only for problems without a jump kernel or Lévy part.
    Kernels that read no y, without mixed parts, give an operator with an FFT
    jump part (see the module docstring); there a negative or non-finite kernel
    value raises with the control and node.  On either path a kernel value
    outside [(2-2s)λ, (2-2s)Λ] raises ``ValueError`` with the control and the
    point, and so does a zeroth-order term or constant (running cost plus
    exterior data) that is not finite, with the control and the node.
    """
    if p.has_jumps and q is None:
        raise ValueError("problem has jump terms but no quadrature was given")
    if q is not None:
        q.check_fit(grid, p.jump_order)
    factors = _node_factors(p, grid)
    base, const = _stencils(p, grid, q, ext, matrix_free=factors is not None)
    jump = None
    if factors is not None:
        conv = _LatticeConvolution(grid, q)
        w = conv.weights
        if w.min() < -1e-12 * max(1.0, float(np.abs(w).max())):
            raise MonotonicityError(f"negative jump weight {w.min():.3e}")
        const += factors * conv.exterior(ext)
        jump = _MatrixFreeJump(conv=conv, scale=factors, ext=ext)
    c = _node_values(p.zeroth, grid) if p.zeroth is not None else np.zeros(const.shape)
    for what, vals in (("zeroth-order term", c), ("running cost plus exterior data", const)):
        _reject(vals, ~np.isfinite(vals), f"non-finite {what}", p.controls, grid)
    return DiscreteOperator(grid=grid, quadrature=q, problem=p,
                            base=base, c=c, const=const, jump=jump)


# ---------------------------------------------------------------------------
# elementary δ decomposition of the Pucci envelopes


def _delta_fields(grid: Grid, q: JumpQuadrature, u: np.ndarray, ext: ScalarField | None):
    """δ(u, x_i, y) at the half offsets (N, M) and the tail probes (N, d)."""
    u = np.asarray(u, dtype=float)
    ws = _Workspace(grid, q, ext)
    (ip, ep), (im, em) = ws.targets(q.half_lattice), ws.targets(-q.half_lattice)
    dlt_off = np.where(ip >= 0, u[ip], ep) + np.where(im >= 0, u[im], em) - 2.0 * u[:, None]
    dlt_tail = np.stack([tail - 2.0 * u for tail in ws.tail_ext], axis=1)
    return dlt_off, dlt_tail


def pucci_extremal(q: JumpQuadrature, grid: Grid, u: np.ndarray,
                   ext: ScalarField | None, sign: str, lambda_ell: float,
                   Lambda_ell: float) -> np.ndarray:
    """Extremal operators over the kernel class (2-2s)λ ≤ k ≤ (2-2s)Λ.

    ``sign='+'`` gives M⁺u (supremum), ``sign='-'`` gives M⁻u, the extremal
    class of the paper's ellipticity band.  Each elementary δ term (offset
    pair or lumped tail) is sign-split before weighting, so M⁻u ≤ I_k u ≤ M⁺u
    holds exactly in floating point for any admissible kernel when I_k u
    sums the same terms in the same order.  ``q`` must fit ``grid``.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    q.check_fit(grid)
    fac = 2.0 - 2.0 * q.s
    hi, lo = (Lambda_ell, lambda_ell) if sign == "+" else (lambda_ell, Lambda_ell)

    def extremal(t: np.ndarray) -> np.ndarray:
        return fac * (hi * np.maximum(t, 0.0) - lo * np.maximum(-t, 0.0))

    dlt_off, dlt_tail = _delta_fields(grid, q, u, ext)
    out = np.sum(extremal(q.pair_weights[None, :] * dlt_off), axis=1)
    for axis in range(grid.d):
        out += extremal((q.tail_mass / grid.d) * dlt_tail[:, axis])
    return out
