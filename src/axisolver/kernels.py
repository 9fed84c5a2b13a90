"""Low-level elimination kernels for tridiagonal systems.

Two interchangeable backends live here: numba-compiled loops (``nogil`` so the
threaded executor can actually overlap them) and plain numpy fallbacks used
when numba is not installed.  The single-matrix factor and solve bodies are
written once and compiled when numba is present; without it the one solve
body also serves the batched and multi-system cases.  Both backends perform
identical elementwise arithmetic in identical order, so results are
bit-for-bit the same across backends.

Band convention (0-based storage of an order-``n`` system):

* ``diag[i]``   - main diagonal entry of row ``i``;
* ``upper[i]``  - coupling of row ``i`` to row ``i+1`` (length ``n-1``);
* ``lower[i]``  - coupling of row ``i+1`` to row ``i`` (length ``n-1``).

The multi-system variants solve ``L`` independent systems at once; band and
right-hand-side arrays are shaped ``(n, L)`` so the inner loop runs over
contiguous memory.
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
    n = diag.shape[0]
    if np.any(np.abs(diag[0]) < PIVOT_FLOOR):
        return 0
    dn[0] = diag[0]
    for i in range(1, n):
        cp[i - 1] = upper[i - 1] / dn[i - 1]
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if np.any(np.abs(piv) < PIVOT_FLOOR):
            return i
        dn[i] = piv
    return -1


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


class Factorization(NamedTuple):
    """Cached forward-elimination data of one tridiagonal matrix."""

    lower: np.ndarray
    cp: np.ndarray
    dn: np.ndarray

    @property
    def n(self) -> int:
        return self.dn.shape[0]


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


def thomas_factor(lower, diag, upper) -> Factorization:
    """Eliminate once; reuse the result for any number of right-hand sides."""
    diag = _as_f64(diag, "diag")
    n = diag.shape[0]
    lower = _as_f64(lower, "lower", (n - 1,))
    upper = _as_f64(upper, "upper", (n - 1,))
    cp = np.empty(max(n - 1, 0), dtype=np.float64)
    dn = np.empty(n, dtype=np.float64)
    bad = _factor1(lower, diag, upper, cp, dn)
    if bad >= 0:
        raise ZeroPivot(bad, float(diag[bad] if bad == 0 else dn[bad - 1]))
    return Factorization(lower, cp, dn)


def thomas_apply(fact: Factorization, f) -> np.ndarray:
    """Solve for one rhs (1-D) or a batch stacked along the second axis."""
    f = _as_f64(f, "f")
    if f.shape[0] != fact.n:
        raise DimensionMismatch(f"rhs length {f.shape[0]} != order {fact.n}")
    x = np.empty_like(f)
    if f.ndim == 1:
        _solve1(fact.lower, fact.cp, fact.dn, f, x)
    elif f.ndim == 2:
        _solveb(fact.lower, fact.cp, fact.dn, f, x)
    else:
        raise DimensionMismatch("rhs must be 1-D or 2-D")
    return x


def multi_factor(lower, diag, upper) -> MultiFactorization:
    """Factor ``L`` independent systems; band arrays are shaped (n, L).

    A one-system family runs the single-matrix kernels, here and in
    :func:`multi_apply`, with identical arithmetic.
    """
    diag = _as_f64(diag, "diag")
    n, nsys = diag.shape
    lower = _as_f64(lower, "lower", (n - 1, nsys))
    upper = _as_f64(upper, "upper", (n - 1, nsys))
    cp = np.empty((max(n - 1, 0), nsys), dtype=np.float64)
    dn = np.empty((n, nsys), dtype=np.float64)
    if nsys == 1:   # the single-matrix body, writing through column views
        bad = _factor1(lower[:, 0], diag[:, 0], upper[:, 0], cp[:, 0], dn[:, 0])
    else:
        bad = _factor_multi(lower, diag, upper, cp, dn)
    if bad >= 0:
        raise ZeroPivot(bad, 0.0)
    return MultiFactorization(lower, cp, dn)


def multi_apply(fact: MultiFactorization, F) -> np.ndarray:
    """Solve all systems; ``F[:, l]`` is the rhs of system ``l``.  A
    one-system family solves every column of an (n, M) ``F`` instead."""
    F = _as_f64(F, "F")
    if fact.nsys == 1 and F.ndim == 2 and F.shape[0] == fact.n:
        X = np.empty_like(F)
        _solveb(fact.lower[:, 0], fact.cp[:, 0], fact.dn[:, 0], F, X)
        return X
    if F.shape != (fact.n, fact.nsys):
        raise DimensionMismatch(
            f"F has shape {F.shape}, expected {(fact.n, fact.nsys)}")
    X = np.empty_like(F)
    _solve_multi(fact.lower, fact.cp, fact.dn, F, X)
    return X
