"""Separation-of-variables preconditioner for the axisymmetric operator.

The preconditioner ``B`` is the same finite-volume operator assembled with a
*constant* diffusivity ``vtilde`` and a *constant* reaction ``shift`` (both
still carrying the radial weight ``r``).  Because its coefficients do not
vary with z, expanding each radial column in the half-sample cosine basis
(:mod:`axisolver.fourier`) block-diagonalizes it: mode ``l`` satisfies an
independent tridiagonal system along r,

    T_l = T_r + diag( r_i * (vtilde * lam_l + shift) ),
    lam_l = 4 sin^2(pi l / (2 nz)) / dz^2,          l = 0 .. nz-1,

where ``T_r`` is the constant-coefficient radial stencil with face
conductances ``j * dr * vtilde`` and the Dirichlet closure at the wall.
Applying ``B``-inverse is therefore: cosine analysis down the columns, one
banded solve per mode, cosine synthesis back.  All mode systems are
eliminated once at construction and reused across applications.

The mode family is ordered as the coefficient slots of
:func:`axisolver.fourier.dct_forward` (member ``j`` is mode
``spectral_modes(nz)[j]`` = 0, nz, 1, nz - 1, 2, ...), so the transforms
hand their arrays to the mode solves and back with no repacking.  ``lam_l``
holds at l = nz too, the member whose right-hand side is always zero, and
for even nz mode nz/2 has two members: nz + 1 members for odd nz, nz + 2
for even nz.

Two backends solve the mode systems.  With ``ranks=1`` the family is solved
in row blocks, the partition of the dichotomy algorithm on one process
(Wang, ACM TOMS 7, 1981): the n = nr - 1 radial rows split into
P = isqrt(n + 1) blocks of m = n // P rows with one separator row between
neighbours, the last block padded with decoupled identity rows.
Construction factors every block of every mode as one (m, P * nz) family,
stores the two spikes of each block (its solution against the coupling to
the separator on either side) and factors the (P - 1, nz) tridiagonal Schur
complement of the separators.  An application eliminates m rows of all
blocks at once, solves the separators and subtracts the spikes: about
2 sqrt(n) batched row steps, each over P times as many systems, where one
sweep of the family takes 2 n.  With ``ranks > 1`` the nz mode matrices
form one family for the distributed splitting solver
(:mod:`axisolver.dichotomy`): a single plan over one row partition and one
communicator, and one launch running one splitting protocol per
application, whose messages carry every mode at once.  An application
therefore sends as many messages as one single-matrix solve
(7 at p = 4), whatever nz is.

``bounds_for(op)`` encloses the spectrum of ``B^-1 A`` in closed form, the
interval the Chebyshev method needs.  A and B are conductance stencils on
one graph, so the face ratios kappa / vtilde, the node reactions q against
``shift`` and a lower bound ``radial_floor`` of B's radial faces against
sum r x^2 bound the Rayleigh quotient, from one min/max pass over the
coefficients, the pass that also gives ``recovered_midranges``.
"""

from __future__ import annotations

import math

import numpy as np

from .comm import CommWorld, check_executor
from .dichotomy import Partition, build_plan, solve_series
from .elliptic import DiscreteOperator, Grid2D
from .errors import (DimensionMismatch, DomainError, NonPositiveCoefficient,
                     as_integer)
from .fourier import dct_forward, dct_inverse, spectral_modes
from .iterative import SpectralBounds
from .kernels import multi_apply, multi_factor
from .tridiag import TridiagonalMatrix

__all__ = ["SovPreconditioner", "recovered_midranges"]


def block_shape(n: int) -> tuple[int, int]:
    """(m, P) of the p = 1 partition of ``n`` rows: P = isqrt(n + 1) blocks
    of m = n // P rows, block k on rows k (m + 1) .. k (m + 1) + m - 1 and
    separator k on row k (m + 1) + m.  The last block holds between 1 and
    m of the rows, since P**2 <= n + 1."""
    P = math.isqrt(n + 1)
    return n // P, P


def _to_blocks(a, width: int, m: int, P: int, fill: float) -> np.ndarray:
    """Rows ``k (m + 1) + i``, ``i < width``, of ``a`` laid out as
    ``out[i, k]`` (shape ``(width, P) + a.shape[1:]``); rows past the end of
    ``a`` read ``fill``."""
    head = (P - 1) * (m + 1)
    out = np.empty((width, P) + a.shape[1:])
    out[:, :-1] = a[:head].reshape((P - 1, m + 1) + a.shape[1:])[:, :width] \
        .swapaxes(0, 1)
    tail = a.shape[0] - head
    out[:tail, -1] = a[head:]
    out[tail:, -1] = fill
    return out


class _ModeBlocks:
    """The p = 1 block elimination of a symmetric tridiagonal family with
    (n, L) diagonals and one shared (n - 1,) off-diagonal; see the module
    docstring."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n, L = diag.shape
        m, P = self.m, self.P = block_shape(n)
        # padded rows: diagonal 1, no coupling, right-hand side 0
        block_off = np.repeat(_to_blocks(off, m - 1, m, P, 0.0), L, axis=1)
        self.blocks = multi_factor(
            block_off, _to_blocks(diag, m, m, P, 1.0).reshape(m, P * L),
            block_off)
        # separator k sits on row s = k (m + 1) + m
        sep = self.sep = slice(m, (P - 1) * (m + 1), m + 1)
        if P == 1:
            return
        # separator k couples to row s - 1 by lo[k] and to row s + 1 by up[k]
        lo = self.lo = off[m - 1: sep.stop - 1: m + 1, None]
        up = self.up = off[sep, None]
        # spikes: block k + 1 against up[k] on its first row (left[:, k]),
        # block k against lo[k] on its last row (right[:, k])
        e = np.zeros((m, P, L))
        e[0, 1:] = up
        self.left = multi_apply(self.blocks, e.reshape(m, P * L)) \
            .reshape(m, P, L)[:, 1:]
        e[0] = 0.0
        e[-1, :-1] = lo
        self.right = multi_apply(self.blocks, e.reshape(m, P * L)) \
            .reshape(m, P, L)[:, :-1]
        self.schur = multi_factor(
            -lo[1:] * self.left[-1, :-1],
            diag[sep] - lo * self.right[-1] - up * self.left[0],
            -up[:-1] * self.right[0, 1:])

    def solve(self, F: np.ndarray) -> np.ndarray:
        """The solutions of all L systems; ``F[:, l]`` is the rhs of ``l``."""
        m, P = self.m, self.P
        L = F.shape[1]
        Y = multi_apply(self.blocks, _to_blocks(F, m, m, P, 0.0)
                        .reshape(m, P * L)).reshape(m, P, L)
        out = np.empty((P * (m + 1), L))
        if P > 1:
            s = multi_apply(self.schur, F[self.sep]
                            - self.lo * Y[-1, :-1] - self.up * Y[0, 1:])
            c = self.left * s
            Y[:, 1:] -= c
            Y[:, :-1] -= np.multiply(self.right, s, out=c)
            out[self.sep] = s
        out.reshape(P, m + 1, L)[:, :m] = Y.swapaxes(0, 1)
        return out[: F.shape[0]]


def _sample_ranges(op: DiscreteOperator):
    """(kappa_lo, kappa_hi, q_lo, q_hi): one min/max pass over the
    diffusivity samples at the radial faces 1..nr-1 and the interior z faces
    and the reaction samples at the nodes, recovered from the weighted
    arrays."""
    g = op.grid
    j = np.arange(1, g.nr) * g.dr
    r_in = g.r_nodes[: g.nr - 1]
    kv = np.concatenate([(op.r_faces[:, 1:] / j[None, :]).ravel(),
                         (op.z_faces[1: g.nz, :] / r_in[None, :]).ravel()])
    qv = op.reaction / r_in[None, :]
    return float(kv.min()), float(kv.max()), float(qv.min()), float(qv.max())


def recovered_midranges(op: DiscreteOperator):
    """(vtilde, shift) from an assembled operator: midranges of the
    diffusivity and reaction samples recovered from the weighted arrays."""
    k_lo, k_hi, q_lo, q_hi = _sample_ranges(op)
    return 0.5 * (k_lo + k_hi), 0.5 * (q_lo + q_hi)


class SovPreconditioner:
    """Cosine-diagonalized constant-coefficient operator with cached mode
    eliminations; see the module docstring for the construction."""

    def __init__(self, grid: Grid2D, vtilde: float, shift: float = 0.0,
                 ranks: int = 1, executor: str = "sim"):
        if not 0.0 < vtilde < np.inf:
            raise NonPositiveCoefficient(
                f"reference diffusivity must be positive and finite, "
                f"got {vtilde}")
        if not 0.0 <= shift < np.inf:
            raise NonPositiveCoefficient(
                f"reference reaction must be >= 0 and finite, got {shift}")
        ranks = as_integer(ranks, DomainError, "ranks")
        if ranks < 1:
            raise DomainError(f"ranks must be >= 1, got {ranks}")
        check_executor(executor)
        self.grid = grid
        self.vtilde = float(vtilde)
        self.shift = float(shift)
        self.ranks = ranks

        nu = grid.nr - 1
        if ranks > 1 and nu < 2 * ranks:
            raise DomainError(
                f"{nu} radial unknowns cannot be split across {ranks} ranks")
        diag, off_r = self._mode_bands()
        if ranks == 1:
            self._solve_modes = _ModeBlocks(diag, off_r).solve
        else:
            off = np.tile(off_r[:, None], (1, diag.shape[1]))
            plan = build_plan(TridiagonalMatrix(diag, off, off),
                              Partition.balanced(nu, ranks), CommWorld(ranks))
            # closes over the plan and executor, not self: no reference cycle
            self._solve_modes = lambda F: solve_series(plan, F,
                                                       executor=executor)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_operator(cls, op: DiscreteOperator, ranks: int = 1,
                      executor: str = "sim") -> "SovPreconditioner":
        """Midrange reference coefficients recovered from ``op``."""
        vtilde, shift = recovered_midranges(op)
        return cls(op.grid, vtilde, shift, ranks=ranks, executor=executor)

    @property
    def radial_floor(self) -> float:
        """mu = vtilde / (dr sum_i r_i (H_nu - H_i)), H_k = sum_{j<=k} 1/j:
        B's radial faces alone give x^T B x >= mu sum_i r_i x_i^2.

        Cauchy-Schwarz on x_i = sum_{j>i} (x_{j-1} - x_j), the ghost x_nu
        = 0, against the face conductances j vtilde / dr; so mu never
        exceeds the smallest eigenvalue of that stencil against diag r."""
        g = self.grid
        nu = g.nr - 1
        tail = np.cumsum(1.0 / np.arange(nu, 0, -1))[::-1]   # H_nu - H_i
        # r_i = (i + 1/2) dr; dividing by dr twice never forms dr**2
        return self.vtilde / g.dr / g.dr / float((np.arange(nu) + 0.5) @ tail)

    def bounds_for(self, op: DiscreteOperator) -> SpectralBounds:
        """An interval enclosing the spectrum of B^-1 A for A = ``op``.

        A and B are conductance stencils on one graph: face by face A's
        conductance is f = kappa / vtilde times B's, node by node A carries
        r q where B carries r shift.  With F_B >= mu R (``radial_floor``,
        R = sum r x^2) the Rayleigh quotient (F_A + Q_A) / (F_B + shift R)
        lies in [min(f_lo, (f_lo mu + q_lo) / (mu + shift)),
        max(f_hi, (f_hi mu + q_hi) / (mu + shift))], which is [1, 1] when
        A = B.  Its lower end is positive unless it lies below the float
        range, where :class:`SpectralBounds` raises :class:`InvalidBounds`.
        An operator of another grid raises :class:`DimensionMismatch`."""
        if op.grid != self.grid:
            raise DimensionMismatch(f"operator grid {op.grid} is not the "
                                    f"preconditioner's {self.grid}")
        k_lo, k_hi, q_lo, q_hi = _sample_ranges(op)
        f_lo, f_hi = k_lo / self.vtilde, k_hi / self.vtilde
        mu, s = self.radial_floor, self.shift
        w = mu / (mu + s)         # f * mu, which can underflow, is not formed
        return SpectralBounds(min(f_lo, w * f_lo + q_lo / (mu + s)),
                              max(f_hi, w * f_hi + q_hi / (mu + s)))

    def _mode_bands(self):
        """(diag, off) of the mode systems, recomputed, not stored: column j
        of ``diag`` is mode ``spectral_modes(nz)[j]``."""
        g = self.grid
        nu = g.nr - 1
        # conductances already in stencil units; the diagonal is formed as
        # the exact floating-point sum of the two coupling magnitudes so the
        # dominance check downstream holds with zero slack
        cond = np.arange(g.nr) * g.dr * self.vtilde / g.spacing_squares()[0]
        lam = self._eigenvalues(spectral_modes(g.nz))
        diag = ((cond[:nu] + cond[1:])[:, None]
                + g.r_nodes[:nu, None] * (self.vtilde * lam[None, :]
                                          + self.shift))
        return diag, -cond[1:nu]

    def _eigenvalues(self, l: np.ndarray) -> np.ndarray:
        g = self.grid
        return (4.0 * np.sin(np.pi * l / (2.0 * g.nz)) ** 2
                / g.spacing_squares()[1])

    @property
    def mode_eigenvalues(self) -> np.ndarray:
        """lam_l = 4 sin^2(pi l / (2 nz)) / dz^2 for l = 0 .. nz-1."""
        return self._eigenvalues(np.arange(self.grid.nz))

    def mode_matrix(self, l: int) -> TridiagonalMatrix:
        """The tridiagonal radial system of cosine mode ``l`` (0-based)."""
        l = as_integer(l, DomainError, "mode index")
        nz = self.grid.nz
        if not 0 <= l < nz:
            raise DomainError(f"mode index {l} outside 0..{nz - 1}")
        slot = 2 * l if 2 * l <= nz else 2 * (nz - l) + 1
        diag, off = self._mode_bands()
        return TridiagonalMatrix(diag[:, slot], off, off)

    # -- application --------------------------------------------------------

    def apply_inverse(self, f) -> np.ndarray:
        """Solve ``B x = f``; shape of ``f`` ((nz, nr-1) or flat) preserved."""
        F, flat = self.grid.as_field(f)
        modes = dct_forward(F, axis=0)          # row j = spectral slot j
        out = dct_inverse(self._solve_modes(modes.T).T, self.grid.nz, axis=0)
        return out.ravel() if flat else out

    def apply(self, x) -> np.ndarray:
        """Forward application ``B x`` (used to verify exactness)."""
        X, flat = self.grid.as_field(x)
        modes = dct_forward(X, axis=0)
        diag, off = self._mode_bands()
        out_modes = diag.T * modes
        out_modes[:, :-1] += off * modes[:, 1:]
        out_modes[:, 1:] += off * modes[:, :-1]
        out = dct_inverse(out_modes, self.grid.nz, axis=0)
        return out.ravel() if flat else out
