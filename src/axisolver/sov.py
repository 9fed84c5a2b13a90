"""Separation-of-variables preconditioner for the axisymmetric operator.

The preconditioner ``B`` is the same finite-volume operator assembled with a
*constant* diffusivity ``vtilde`` and a *constant* reaction ``shift`` (both
still carrying the radial weight ``r``): by definition
``B = assemble(grid, CoefficientFields.constant(vtilde, shift))``, which
this class only inverts.  Because its coefficients do not vary with z,
expanding each radial column in the half-sample cosine basis
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

The mode systems are solved by the distributed splitting solver
(:mod:`axisolver.dichotomy`).  With ``ranks=1`` that is its blocked
elimination of the whole family, built directly from the mode bands by
:func:`~axisolver.dichotomy.block_factor` (a plan would first copy the
bands and check their dominance, which they have by construction): the
n = nr - 1 radial rows split into about sqrt(n) blocks with one separator
row between neighbours; an application takes the separators first, from
dot products of the blocks' rhs with rows of the block inverses, then
eliminates each block once, about 2 sqrt(n) batched row steps where one
sweep of the family takes 2 n.  With ``ranks > 1`` the
mode matrices form one family plan over one row partition and one
communicator, and one launch runs one splitting protocol per application,
whose messages carry every mode at once.  An application therefore sends
as many messages as one single-matrix solve (7 at p = 4), whatever nz is.

``bounds_for(op)`` encloses the spectrum of ``B^-1 A`` in closed form, the
interval the Chebyshev method needs.  A and B are conductance stencils on
one graph, so the face ratios kappa / vtilde, the node reactions q against
``shift`` and a lower bound ``radial_floor`` of B's radial faces against
sum r x^2 bound the Rayleigh quotient, from one min/max pass over the
coefficients, the pass that also gives ``recovered_midranges``.
"""

from __future__ import annotations

import numpy as np

from .comm import CommWorld, check_executor
from .dichotomy import Partition, block_factor, build_plan, solve_series
from .elliptic import DiscreteOperator, Grid2D
from .errors import (DimensionMismatch, DomainError, NonPositiveCoefficient,
                     as_integer)
from .fourier import dct_forward, dct_inverse, spectral_modes
from .iterative import SpectralBounds
# unused here: the benchmark's tracer still wraps these two names, which go
# with its next change
from .kernels import multi_apply, multi_factor  # noqa: F401
from .tridiag import TridiagonalMatrix

__all__ = ["SovPreconditioner", "recovered_midranges"]


def _sample_ranges(op: DiscreteOperator):
    """(kappa_lo, kappa_hi, q_lo, q_hi): the extremes of the diffusivity
    samples at the radial faces 1..nr-1 and the interior z faces and of the
    reaction samples at the nodes, recovered from the weighted arrays.

    Every column of a weighted array shares one r > 0, and a rounded
    division by it keeps the order of its dividends, so each column's
    extremes are divided instead of the whole array: the same values, with
    no full-grid quotient."""
    g = op.grid
    r_in = g.r_nodes[: g.nr - 1]
    lo, hi = [], []
    for weighted, r in ((op.r_faces[:, 1:], np.arange(1, g.nr) * g.dr),
                        (op.z_faces[1: g.nz], r_in), (op.reaction, r_in)):
        lo.append(float((weighted.min(axis=0) / r).min()))
        hi.append(float((weighted.max(axis=0) / r).max()))
    return min(lo[0], lo[1]), max(hi[0], hi[1]), lo[2], hi[2]


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

        nu = grid.nr - 1
        if ranks > 1 and nu < 2 * ranks:
            raise DomainError(
                f"{nu} radial unknowns cannot be split across {ranks} ranks")
        diag, off_r = self._mode_bands()
        if ranks == 1:
            off = np.broadcast_to(off_r[:, None], (nu - 1, diag.shape[1]))
            self._solve_modes = block_factor(off, diag, off).solve
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

    @property
    def rounding_ratio(self) -> float:
        """eps^2 nu (nu + 1/2) (4 a^2 + b) / (1 + b nu / 2), a = dr / dz, b =
        shift dr^2 / vtilde: on a wide grid, the energy of the rounding eps |f|
        left in mode 0 (eigenvalues >= vtilde / (nu dr) + shift dr / 2) over
        an answer's |f|^2 / lambda_max(B); past 1, PCG's r^T z can be < 0."""
        nu = self.grid.nr - 1
        dr2, dz2 = self.grid.spacing_squares()
        b = self.shift / self.vtilde * dr2
        return (float(np.finfo(np.float64).eps) ** 2 * nu * (nu + 0.5)
                * (4.0 * dr2 / dz2 + b) / (1.0 + 0.5 * nu * b))

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
        lam = (4.0 * np.sin(np.pi * spectral_modes(g.nz) / (2.0 * g.nz)) ** 2
               / g.spacing_squares()[1])
        diag = ((cond[:nu] + cond[1:])[:, None]
                + g.r_nodes[:nu, None] * (self.vtilde * lam[None, :]
                                          + self.shift))
        return diag, -cond[1:nu]

    # -- application --------------------------------------------------------

    def apply_inverse(self, f) -> np.ndarray:
        """Solve ``B x = f``; shape of ``f`` ((nz, nr-1) or flat) preserved."""
        F, flat = self.grid.as_field(f)
        modes = dct_forward(F, axis=0)          # row j = spectral slot j
        out = dct_inverse(self._solve_modes(modes.T).T, self.grid.nz, axis=0)
        return out.ravel() if flat else out

