"""Reference implementations that tests compare the library against; the
library never runs them."""

import hashlib
import math

import numpy as np

from axisolver.elliptic import CoefficientFields, assemble
from axisolver.errors import ZeroPivot


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


def scalar_thomas(lower, diag, upper, f):
    """The Thomas elimination of one matrix and one right-hand side, one
    Python float at a time in the kernels' order of operations: the lists
    ``(cp, dn, x)``.  Raises ZeroPivot at the first pivot below 1e-300 in
    magnitude, as the kernels do."""
    lower, diag, upper, f = ([float(v) for v in a]
                             for a in (lower, diag, upper, f))
    n = len(diag)
    cp, dn, x = [], [], [0.0] * n
    for i in range(n):
        if i:
            cp.append(upper[i - 1] / dn[i - 1])
        piv = diag[i] - lower[i - 1] * cp[i - 1] if i else diag[0]
        if abs(piv) < 1e-300:
            raise ZeroPivot(i, piv)
        dn.append(piv)
    x[0] = f[0] / dn[0]
    for i in range(1, n):
        x[i] = (f[i] - lower[i - 1] * x[i - 1]) / dn[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return cp, dn, x


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


def arrays_of(record):
    """Every array of a tuple record such as a ``BlockElimination``, nested
    records flattened and absent (None) ones skipped, in field order."""
    if record is None:
        return []
    if isinstance(record, np.ndarray):
        return [record]
    return [arr for field in record for arr in arrays_of(field)]


def plan_arrays(plan):
    """Every array a dichotomy plan holds."""
    arrays = arrays_of(plan.full_fact)
    for rp in plan.ranks:
        arrays += [rp.G_L, rp.G_R, rp.fold_left, rp.fold_right, rp.weights,
                   rp.interior_c, rp.interior_a,
                   *arrays_of(rp.interior_fact)]
    return arrays


def plan_checksum(plan):
    """SHA-256 over a dichotomy plan's partition and arrays, asserting that
    every array is read-only."""
    digest = hashlib.sha256(np.asarray(plan.partition.sizes).tobytes())
    for arr in plan_arrays(plan):
        assert not arr.flags.writeable
        digest.update(arr.tobytes())
    return digest.hexdigest()
