"""Low-level elimination kernels for families of tridiagonal systems.

One record, :class:`MultiFactorization`, and one pair,
:func:`multi_factor`/:func:`multi_apply`, serve a family of ``L``
independent matrices of one order.  Bands are shaped ``(n, L)`` so the inner
loop runs over contiguous memory; a right-hand side is ``(n, L)``, one per
member, or ``(n, L, M)``, M per member, and every other shape is refused.
A caller holding one matrix passes it as the one-member family, or an
(n, M) batch of its right-hand sides as M members sharing its bands.
:func:`multi_apply` can write its solutions into a given array, the
right-hand side itself included, since the elimination reads each row of
the right-hand side before it writes that row of the solution.

Two interchangeable backends live here: numba-compiled loops (``nogil`` so
the threaded executor can actually overlap them) and plain numpy fallbacks
used when numba is not installed.  An (n, L, M) batch runs the numpy solve
body on either backend.  Both backends perform identical elementwise
arithmetic in identical order, so results are bit-for-bit the same across
backends.  Only the pivot check differs: the compiled factor body stops at
the first pivot below the floor, while the numpy fallback runs the whole
sweep and then flags the first row holding such a pivot, which is the same
row.

Band convention (0-based storage of an order-``n`` system, member ``l`` in
column ``l``):

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


def _solve(lower, cp, dn, F, X):
    # row i of F/X is a row of an (n, L) family, or of an (n, L, M) batch
    # against bands broadcast over its M columns
    n = F.shape[0]
    X[0] = F[0] / dn[0]
    for i in range(1, n):
        X[i] = (F[i] - lower[i - 1] * X[i - 1]) / dn[i]
    for i in range(n - 2, -1, -1):
        X[i] -= cp[i] * X[i + 1]


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
    """Factor ``L`` independent systems: ``diag`` (n, L), ``lower`` and
    ``upper`` (n - 1, L).  Eliminate once; reuse the result for any number
    of right-hand sides.

    Raises ZeroPivot with the row and the value of the first pivot below
    1e-300 in magnitude (of the first such member).
    """
    diag = _as_f64(diag, "diag")
    if diag.ndim != 2:
        raise DimensionMismatch(f"diag must be (n, L), got shape {diag.shape}")
    n, nsys = diag.shape
    lower = _as_f64(lower, "lower", (n - 1, nsys))
    upper = _as_f64(upper, "upper", (n - 1, nsys))
    cp = np.empty((max(n - 1, 0), nsys), dtype=np.float64)
    dn = np.empty((n, nsys), dtype=np.float64)
    bad = _factor_multi(lower, diag, upper, cp, dn)
    if bad >= 0:
        # row bad - 1 of dn is complete for every member on both backends
        piv = diag[0] if bad == 0 else (
            diag[bad] - lower[bad - 1] * (upper[bad - 1] / dn[bad - 1]))
        raise ZeroPivot(bad, float(piv[np.argmax(np.abs(piv) < PIVOT_FLOOR)]))
    return MultiFactorization(lower, cp, dn)


def multi_apply(fact: MultiFactorization, F, out=None) -> np.ndarray:
    """Solve all systems: ``F`` is (n, L), ``F[:, l]`` the rhs of system
    ``l``, or (n, L, M), ``F[:, l]`` the M right-hand sides of system ``l``.

    ``out``, a C-contiguous float64 array of ``F``'s shape, receives the
    solutions and is returned.  It may be ``F`` itself: the elimination
    reads each row of ``F`` before it writes that row of the solution."""
    F = _as_f64(F, "F")
    if F.shape[:2] != (fact.n, fact.nsys) or F.ndim not in (2, 3):
        raise DimensionMismatch(f"F has shape {F.shape}, expected "
                                f"({fact.n}, {fact.nsys}) or "
                                f"({fact.n}, {fact.nsys}, M)")
    if out is None:
        X = np.empty_like(F)
    elif (out.dtype != np.float64 or out.shape != F.shape
          or not out.flags.c_contiguous):
        raise DimensionMismatch(
            f"out must be a C-contiguous float64 array of shape {F.shape}, "
            f"got {out.dtype} {out.shape}")
    else:
        X = out
    if F.ndim == 3:
        # the numpy body on either backend, each member's bands broadcast
        # over its M columns
        _solve(fact.lower[..., None], fact.cp[..., None], fact.dn[..., None],
               F, X)
    else:
        _solve_multi(fact.lower, fact.cp, fact.dn, F, X)
    return X
