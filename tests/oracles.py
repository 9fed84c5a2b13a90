"""Reference implementations that tests compare the library against; the
library never runs them."""

import hashlib
import math

import numpy as np

from axisolver.elliptic import CoefficientFields, assemble


def tridiagonal_dense(A):
    """The matrix of a ``TridiagonalMatrix``, (L, n, n) for a family of L."""
    i = np.arange(A.n)
    dense = np.zeros((A.nsys, A.n, A.n))
    dense[:, i, i] = A.diag.reshape(-1, A.nsys).T
    dense[:, i[:-1], i[1:]] = A.upper.reshape(-1, A.nsys).T
    dense[:, i[1:], i[:-1]] = A.lower.reshape(-1, A.nsys).T
    return dense if A.diag.ndim == 2 else dense[0]


def tridiagonal_matvec(A, x):
    """A @ x; for a family, column ``l`` of ``x`` against member ``l``."""
    dense = tridiagonal_dense(A)
    return np.einsum("lij,jl->il", dense, x) if A.diag.ndim == 2 else dense @ x


def operator_dense(op):
    """The matrix of ``op.apply_spd``, column by column; small grids only."""
    return np.array([op.apply_spd(e) for e in np.eye(op.grid.n_unknowns)]).T


def sov_operator(M):
    """B, the operator a ``SovPreconditioner`` inverts, assembled."""
    return assemble(M.grid, CoefficientFields.constant(M.vtilde, M.shift))


def coupling_coefficient(m, k, alpha):
    """Weight of harmonic ``k`` in the rhs of harmonic ``m``,
    ``(m - k) sqrt(m! (k+alpha)! / ((m+alpha)! k!))``, in log space."""
    if k >= m:
        return 0.0
    log_ratio = 0.5 * (math.lgamma(m + 1) - math.lgamma(m + alpha + 1)
                       + math.lgamma(k + alpha + 1) - math.lgamma(k + 1))
    return (m - k) * math.exp(log_ratio)


def plan_checksum(plan):
    """SHA-256 over a dichotomy plan's partition and arrays, asserting that
    every array is read-only."""
    arrays = list(plan.full_fact or ())
    for rp in plan.ranks:
        arrays += [rp.G_L, rp.G_R, rp.fold_left, rp.fold_right, rp.weights,
                   rp.interior_c, rp.interior_a, *(rp.interior_fact or ())]
    digest = hashlib.sha256(np.asarray(plan.partition.sizes).tobytes())
    for arr in arrays:
        assert not arr.flags.writeable
        digest.update(arr.tobytes())
    return digest.hexdigest()
