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

Two backends solve the mode systems.  With ``ranks=1`` one batched
elimination of the whole mode family serves every application.  With
``ranks > 1`` the nz mode matrices form one family for the distributed
splitting solver (:mod:`axisolver.dichotomy`): a single plan over one row
partition and one communicator, and one launch running one splitting
protocol per application, whose messages carry every mode at once.  An
application therefore sends as many messages as one single-matrix solve
(7 at p = 4), whatever nz is.
"""

from __future__ import annotations

import numpy as np

from .comm import CommWorld
from .dichotomy import Partition, build_plan, solve_series
from .elliptic import DiscreteOperator, Grid2D
from .errors import DomainError, NonPositiveCoefficient
from .fourier import dct_forward, dct_inverse
from .kernels import multi_apply, multi_factor
from .tridiag import TridiagonalFamily, TridiagonalMatrix

__all__ = ["SovPreconditioner", "recovered_midranges"]


def recovered_midranges(op: DiscreteOperator):
    """(vtilde, shift) from an assembled operator: midranges of the
    diffusivity and reaction samples recovered from the weighted arrays."""
    g = op.grid
    j = np.arange(1, g.nr) * g.dr
    r_in = g.r_nodes[: g.nr - 1]
    kappa_samples = [op.r_faces[:, 1:] / j[None, :]]
    if g.nz > 1:
        kappa_samples.append(op.z_faces[1: g.nz, :] / r_in[None, :])
    kv = np.concatenate([s.ravel() for s in kappa_samples])
    qv = (op.reaction / r_in[None, :]).ravel()
    vtilde = 0.5 * (float(kv.min()) + float(kv.max()))
    shift = 0.5 * (float(qv.min()) + float(qv.max()))
    return vtilde, shift


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
        if ranks < 1:
            raise DomainError(f"ranks must be >= 1, got {ranks}")
        self.grid = grid
        self.vtilde = float(vtilde)
        self.shift = float(shift)
        self.ranks = int(ranks)
        self.executor = executor

        g = grid
        nu = g.nr - 1
        if ranks > 1 and nu < 2 * ranks:
            raise DomainError(
                f"{nu} radial unknowns cannot be split across {ranks} ranks")
        # conductances already in stencil units; the diagonal is formed as
        # the exact floating-point sum of the two coupling magnitudes so the
        # dominance check downstream holds with zero slack
        cond = np.arange(g.nr) * g.dr * self.vtilde / g.dr ** 2
        r_in = g.r_nodes[:nu]
        lam = self.mode_eigenvalues
        self._off_r = -cond[1:nu]
        # bands of every mode system, shaped (order, n_modes)
        self._diag_modes = ((cond[:nu] + cond[1:])[:, None]
                            + r_in[:, None] * (self.vtilde * lam[None, :]
                                               + self.shift))
        off = np.tile(self._off_r[:, None], (1, g.nz))
        if ranks == 1:
            self._fact = multi_factor(off, self._diag_modes, off)
            self._plan = None
        else:
            self._fact = None
            self._plan = build_plan(
                TridiagonalFamily(self._diag_modes, off, off),
                Partition.balanced(nu, ranks), CommWorld(ranks))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_operator(cls, op: DiscreteOperator, ranks: int = 1,
                      executor: str = "sim") -> "SovPreconditioner":
        """Midrange reference coefficients recovered from ``op``."""
        vtilde, shift = recovered_midranges(op)
        return cls(op.grid, vtilde, shift, ranks=ranks, executor=executor)

    @property
    def mode_eigenvalues(self) -> np.ndarray:
        """lam_l = 4 sin^2(pi l / (2 nz)) / dz^2 for l = 0 .. nz-1."""
        g = self.grid
        l = np.arange(g.nz)
        return 4.0 * np.sin(np.pi * l / (2.0 * g.nz)) ** 2 / g.dz ** 2

    def mode_matrix(self, l: int) -> TridiagonalMatrix:
        """The tridiagonal radial system of cosine mode ``l`` (0-based)."""
        if not 0 <= l < self.grid.nz:
            raise DomainError(f"mode index {l} outside 0..{self.grid.nz - 1}")
        return TridiagonalMatrix(self._diag_modes[:, l].copy(),
                                 self._off_r.copy(), self._off_r.copy())

    # -- application --------------------------------------------------------

    def apply_inverse(self, f) -> np.ndarray:
        """Solve ``B x = f``; shape of ``f`` ((nz, nr-1) or flat) preserved."""
        F, flat = self.grid.as_field(f)
        modes = dct_forward(F, axis=0)                   # row l = mode l
        if self._fact is not None:
            solved = multi_apply(self._fact, modes.T).T
        else:
            solved = solve_series(self._plan, modes.T,
                                  executor=self.executor).T
        out = dct_inverse(solved, axis=0)
        return out.ravel() if flat else out

    def apply(self, x) -> np.ndarray:
        """Forward application ``B x`` (used to verify exactness)."""
        X, flat = self.grid.as_field(x)
        modes = dct_forward(X, axis=0)
        out_modes = self._diag_modes.T * modes
        out_modes[:, :-1] += self._off_r * modes[:, 1:]
        out_modes[:, 1:] += self._off_r * modes[:, :-1]
        out = dct_inverse(out_modes, axis=0)
        return out.ravel() if flat else out
