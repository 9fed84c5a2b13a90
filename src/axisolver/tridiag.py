"""Sequential tridiagonal algebra: storage, slicing, Thomas solves, residuals.

Storage convention (0-based arrays for an order-``n`` matrix whose rows are
numbered 1..n when talking about math):

* ``diag[i]``  — entry on the main diagonal in row ``i+1``       (length n);
* ``upper[i]`` — entry coupling row ``i+1`` to row ``i+2``       (length n-1);
* ``lower[i]`` — entry coupling row ``i+2`` back to row ``i+1``  (length n-1).

So row ``i`` (1-based) reads ``lower[i-2]*x[i-1] + diag[i-1]*x[i] +
upper[i-1]*x[i+1]``.  All values are float64 and arrays are never mutated
after construction; instances are freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroRhs
from .kernels import thomas_factor, thomas_apply


def _frozen_f64(arr, name: str, length: int) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 1 or out.shape[0] != length:
        raise DimensionMismatch(
            f"{name} must be a 1-D array of length {length}, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Immutable order-``n`` tridiagonal matrix held as three bands."""

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        diag = np.ascontiguousarray(self.diag, dtype=np.float64)
        if diag.ndim != 1 or diag.shape[0] < 1:
            raise DimensionMismatch("diag must be 1-D with length >= 1")
        n = diag.shape[0]
        object.__setattr__(self, "diag", _frozen_f64(diag, "diag", n))
        object.__setattr__(self, "upper", _frozen_f64(self.upper, "upper", n - 1))
        object.__setattr__(self, "lower", _frozen_f64(self.lower, "lower", n - 1))
        object.__setattr__(self, "n", n)

    @classmethod
    def constant(cls, n: int, sub: float, main: float, sup: float) -> "TridiagonalMatrix":
        """Toeplitz matrix tridiag(sub, main, sup) of order n."""
        return cls(np.full(n, main), np.full(n - 1, sup), np.full(n - 1, sub))

    def to_dense(self) -> np.ndarray:
        dense = np.diag(self.diag)
        if self.n > 1:
            dense += np.diag(self.upper, 1) + np.diag(self.lower, -1)
        return dense

    def matvec(self, x) -> np.ndarray:
        """A @ x for a vector (n,) or a batch (n, m)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"x length {x.shape[0]} != order {self.n}")
        shape = (-1,) + (1,) * (x.ndim - 1)
        y = self.diag.reshape(shape) * x
        if self.n > 1:
            y[:-1] += self.upper.reshape(shape)[: self.n - 1] * x[1:]
            y[1:] += self.lower.reshape(shape)[: self.n - 1] * x[:-1]
        return y

    def is_diagonally_dominant(self) -> bool:
        """Weak row dominance everywhere and strict in at least one row."""
        return _dominant(self.diag, self.upper, self.lower)


def _dominant(diag, upper, lower) -> bool:
    """Row dominance of bands shaped (n, ...): weak in every row, strict in
    at least one row of every member."""
    mag_off = np.zeros(diag.shape)
    if diag.shape[0] > 1:
        mag_off[:-1] += np.abs(upper)
        mag_off[1:] += np.abs(lower)
    slack = np.abs(diag) - mag_off
    return bool(np.all(slack >= 0.0) and np.all(np.any(slack > 0.0, axis=0)))


@dataclass(frozen=True)
class TridiagonalFamily:
    """Immutable family of ``nsys`` order-``n`` tridiagonal matrices.

    Member ``l`` is column ``l`` of each band: ``diag`` is (n, nsys),
    ``upper`` and ``lower`` are (n - 1, nsys), with the band convention of
    :class:`TridiagonalMatrix` down each column.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    n: int = field(init=False)
    nsys: int = field(init=False)

    def __post_init__(self):
        diag = np.ascontiguousarray(self.diag, dtype=np.float64)
        if diag.ndim != 2 or min(diag.shape) < 1:
            raise DimensionMismatch(
                f"family diag must be (n, nsys) with n, nsys >= 1, "
                f"got shape {diag.shape}")
        n, nsys = diag.shape
        for name in ("upper", "lower"):
            band = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if band.shape != (n - 1, nsys):
                raise DimensionMismatch(f"family {name} must have shape "
                                        f"{(n - 1, nsys)}, got {band.shape}")
            band.setflags(write=False)
            object.__setattr__(self, name, band)
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nsys", nsys)

    @classmethod
    def of(cls, A: TridiagonalMatrix) -> "TridiagonalFamily":
        """The one-member family holding ``A``."""
        return cls(A.diag[:, None], A.upper[:, None], A.lower[:, None])

    def is_diagonally_dominant(self) -> bool:
        """Every member is diagonally dominant in the matrix's sense."""
        return _dominant(self.diag, self.upper, self.lower)


def thomas_solve(A: TridiagonalMatrix, f) -> np.ndarray:
    """Direct elimination solve of ``A x = f``.

    ``f`` may be one vector (n,) or a batch (n, m) solved column-by-column in
    one elimination pass.  Raises ZeroPivot when a forward-elimination pivot
    falls below 1e-300 in magnitude (the matrix is expected to be diagonally
    dominant, where that cannot happen).
    """
    return thomas_apply(thomas_factor(A.lower, A.diag, A.upper), f)


def submatrix(A: TridiagonalMatrix, low: int, top: int) -> TridiagonalMatrix:
    """Rows/columns ``low..top`` (1-based, inclusive) with cut couplings dropped."""
    if not (1 <= low <= top <= A.n):
        raise IndexOutOfRange(f"need 1 <= low <= top <= {A.n}, got ({low}, {top})")
    return TridiagonalMatrix(
        A.diag[low - 1: top],
        A.upper[low - 1: top - 1],
        A.lower[low - 1: top - 1],
    )


def residual_relnorm(A: TridiagonalMatrix, x, f) -> float:
    """Euclidean relative residual of a candidate solution."""
    f = np.asarray(f, dtype=np.float64)
    norm_f = float(np.linalg.norm(f))
    if norm_f == 0.0:
        raise ZeroRhs("relative residual undefined: right-hand side is zero")
    return float(np.linalg.norm(A.matvec(x) - f) / norm_f)
