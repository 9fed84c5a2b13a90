"""Low-level elimination kernels for tridiagonal systems.

One record, :class:`MultiFactorization`, and one pair,
:func:`multi_factor`/:func:`multi_apply`, serve a single matrix and a
family of ``L`` independent matrices alike: a single matrix is the
one-member family.  Band and right-hand-side arrays of a family are shaped
``(n, L)`` so the inner loop runs over contiguous memory; a single matrix
may be passed as 1-D bands.  :func:`multi_apply` can write its solutions
into a given array, the right-hand side itself included, since the
elimination reads each row of the right-hand side before it writes that row
of the solution.

Two interchangeable backends live here: numba-compiled loops (``nogil`` so
the threaded executor can actually overlap them) and plain numpy fallbacks
used when numba is not installed.  A one-member family runs the
single-matrix factor and solve bodies, which are written once and compiled
when numba is present; without it the one solve body also serves the
batched and multi-system cases.  Both backends perform identical
elementwise arithmetic in identical order, so results are bit-for-bit the
same across backends.  Only the pivot check differs: the compiled bodies
stop at the first pivot below the floor, while the numpy family fallback
runs the whole sweep and then flags the first row holding such a pivot,
which is the same row.

Band convention (0-based storage of an order-``n`` system):

* ``diag[i]``   - main diagonal entry of row ``i``;
* ``upper[i]``  - coupling of row ``i`` to row ``i+1`` (length ``n-1``);
* ``lower[i]``  - coupling of row ``i+1`` to row ``i`` (length ``n-1``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ZeroPivot

PIVOT_FLOOR = 1e-300

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# single-matrix kernels
# ---------------------------------------------------------------------------


def _factor(lower, diag, upper, cp, dn):
    n = diag.shape[0]
    if abs(diag[0]) < PIVOT_FLOOR:
        return 0
    dn[0] = diag[0]
    for i in range(1, n):
        cp[i - 1] = upper[i - 1] / dn[i - 1]
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if abs(piv) < PIVOT_FLOOR:
            return i
        dn[i] = piv
    return -1


def _solve(lower, cp, dn, F, X):
    # row i of F/X is a scalar (one rhs), a row of a batch sharing 1-D
    # bands, or a row of a family with (n, L) bands; the numpy fallback runs
    # all three through this one body
    n = F.shape[0]
    X[0] = F[0] / dn[0]
    for i in range(1, n):
        X[i] = (F[i] - lower[i - 1] * X[i - 1]) / dn[i]
    for i in range(n - 2, -1, -1):
        X[i] -= cp[i] * X[i + 1]


@njit(cache=True, nogil=True)
def _solveb_jit(lower, cp, dn, F, X):
    n, m = F.shape
    for j in range(m):
        X[0, j] = F[0, j] / dn[0]
    for i in range(1, n):
        li = lower[i - 1]
        di = dn[i]
        for j in range(m):
            X[i, j] = (F[i, j] - li * X[i - 1, j]) / di
    for i in range(n - 2, -1, -1):
        ci = cp[i]
        for j in range(m):
            X[i, j] -= ci * X[i + 1, j]


# ---------------------------------------------------------------------------
# multi-matrix kernels (one independent system per trailing-axis slot)
# ---------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _factor_multi_jit(lower, diag, upper, cp, dn):
    n, nsys = diag.shape
    for l in range(nsys):
        if abs(diag[0, l]) < PIVOT_FLOOR:
            return 0
        dn[0, l] = diag[0, l]
    for i in range(1, n):
        for l in range(nsys):
            cp[i - 1, l] = upper[i - 1, l] / dn[i - 1, l]
            piv = diag[i, l] - lower[i - 1, l] * cp[i - 1, l]
            if abs(piv) < PIVOT_FLOOR:
                return i
            dn[i, l] = piv
    return -1


@njit(cache=True, nogil=True)
def _solve_multi_jit(lower, cp, dn, F, X):
    n, nsys = F.shape
    for l in range(nsys):
        X[0, l] = F[0, l] / dn[0, l]
    for i in range(1, n):
        for l in range(nsys):
            X[i, l] = (F[i, l] - lower[i - 1, l] * X[i - 1, l]) / dn[i, l]
    for i in range(n - 2, -1, -1):
        for l in range(nsys):
            X[i, l] -= cp[i, l] * X[i + 1, l]


def _factor_multi_np(lower, diag, upper, cp, dn):
    # the whole sweep first, then one pivot check: rows past a lost pivot
    # may hold inf or nan, but the first flagged row is the one the
    # compiled body stops at
    dn[0] = diag[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for u, lo, d, c, piv, prev in zip(upper, lower, diag[1:], cp, dn[1:],
                                          dn):
            np.divide(u, prev, out=c)
            np.multiply(lo, c, out=piv)
            np.subtract(d, piv, out=piv)
        bad = np.flatnonzero((np.abs(dn) < PIVOT_FLOOR).any(axis=1))
    return int(bad[0]) if bad.size else -1


_jit = njit(cache=True, nogil=True)
_factor1 = _jit(_factor)
_solve1 = _jit(_solve)
_solveb = _solveb_jit if HAVE_NUMBA else _solve
_factor_multi = _factor_multi_jit if HAVE_NUMBA else _factor_multi_np
_solve_multi = _solve_multi_jit if HAVE_NUMBA else _solve


def _as_f64(arr, name, shape=None):
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if shape is not None and out.shape != shape:
        raise DimensionMismatch(f"{name} has shape {out.shape}, expected {shape}")
    return out


class MultiFactorization(NamedTuple):
    """Cached elimination data of a family of independent systems, shape (n, L)."""

    lower: np.ndarray
    cp: np.ndarray
    dn: np.ndarray

    @property
    def n(self) -> int:
        return self.dn.shape[0]

    @property
    def nsys(self) -> int:
        return self.dn.shape[1]


def multi_factor(lower, diag, upper) -> MultiFactorization:
    """Factor ``L`` independent systems; band arrays are shaped (n, L), or
    (n,) and (n - 1,) for one matrix, the one-member family.  Eliminate
    once; reuse the result for any number of right-hand sides.

    A one-member family runs the single-matrix kernels, here and in
    :func:`multi_apply`.  Raises ZeroPivot with the row and the value of
    the first pivot below 1e-300 in magnitude (of the first such member).
    """
    diag = _as_f64(diag, "diag")
    if diag.ndim not in (1, 2):
        raise DimensionMismatch(f"diag must be 1-D or 2-D, got shape {diag.shape}")
    bands = (diag.shape[0] - 1,) + diag.shape[1:]
    lower = _as_f64(lower, "lower", bands)
    upper = _as_f64(upper, "upper", bands)
    if diag.ndim == 1:
        lower, diag, upper = lower[:, None], diag[:, None], upper[:, None]
    n, nsys = diag.shape
    cp = np.empty((max(n - 1, 0), nsys), dtype=np.float64)
    dn = np.empty((n, nsys), dtype=np.float64)
    if nsys == 1:   # the single-matrix body, writing through column views
        bad = _factor1(lower[:, 0], diag[:, 0], upper[:, 0], cp[:, 0], dn[:, 0])
    else:
        bad = _factor_multi(lower, diag, upper, cp, dn)
    if bad >= 0:
        # row bad - 1 of dn is complete for every member on both backends
        piv = diag[0] if bad == 0 else (
            diag[bad] - lower[bad - 1] * (upper[bad - 1] / dn[bad - 1]))
        raise ZeroPivot(bad, float(piv[np.argmax(np.abs(piv) < PIVOT_FLOOR)]))
    return MultiFactorization(lower, cp, dn)


def multi_apply(fact: MultiFactorization, F, out=None) -> np.ndarray:
    """Solve all systems; ``F[:, l]`` is the rhs of system ``l``.  A
    one-member family solves one 1-D rhs, or every column of an (n, M)
    ``F``, instead.

    ``out``, a C-contiguous float64 array of ``F``'s shape, receives the
    solutions and is returned.  It may be ``F`` itself: the elimination
    reads each row of ``F`` before it writes that row of the solution."""
    F = _as_f64(F, "F")
    if out is None:
        X = np.empty_like(F)
    elif (out.dtype != np.float64 or out.shape != F.shape
          or not out.flags.c_contiguous):
        raise DimensionMismatch(
            f"out must be a C-contiguous float64 array of shape {F.shape}, "
            f"got {out.dtype} {out.shape}")
    else:
        X = out
    if fact.nsys == 1 and F.ndim in (1, 2) and F.shape[0] == fact.n:
        solve = _solve1 if F.ndim == 1 else _solveb
        solve(fact.lower[:, 0], fact.cp[:, 0], fact.dn[:, 0], F, X)
        return X
    if F.shape != (fact.n, fact.nsys):
        raise DimensionMismatch(
            f"F has shape {F.shape}, expected {(fact.n, fact.nsys)}")
    _solve_multi(fact.lower, fact.cp, fact.dn, F, X)
    return X
