"""Sequential tridiagonal algebra: storage, slicing, Thomas solves, residuals.

Storage convention (0-based arrays for an order-``n`` matrix whose rows are
numbered 1..n when talking about math):

* ``diag[i]``  — entry on the main diagonal in row ``i+1``       (length n);
* ``upper[i]`` — entry coupling row ``i+1`` to row ``i+2``       (length n-1);
* ``lower[i]`` — entry coupling row ``i+2`` back to row ``i+1``  (length n-1).

So row ``i`` (1-based) reads ``lower[i-2]*x[i-1] + diag[i-1]*x[i] +
upper[i-1]*x[i+1]``.  All values are float64; the matrix and family types
store read-only copies of the bands they are given, so instances are freely
shareable across threads and the caller's arrays stay writable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroRhs
from .kernels import multi_apply, multi_factor


def frozen_copy(arr, name: str = "array", shape=None) -> np.ndarray:
    """A read-only C-ordered float64 copy, of ``shape`` when one is given:
    the caller's array stays its own."""
    out = np.array(arr, dtype=np.float64, order="C")
    if shape is not None and out.shape != shape:
        raise DimensionMismatch(
            f"{name} must have shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _store_bands(obj, ndim: int) -> tuple:
    """Replace ``obj``'s diag/upper/lower with frozen copies after checking
    that diag has ``ndim`` axes, each of length >= 1, and that the
    off-diagonal bands are one row shorter; return diag's shape."""
    diag = frozen_copy(obj.diag)
    if diag.ndim != ndim or min(diag.shape) < 1:
        raise DimensionMismatch(f"diag must be {ndim}-D with every length "
                                f">= 1, got shape {diag.shape}")
    off = (diag.shape[0] - 1,) + diag.shape[1:]
    object.__setattr__(obj, "diag", diag)
    for name in ("upper", "lower"):
        object.__setattr__(obj, name, frozen_copy(getattr(obj, name), name, off))
    return diag.shape


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Immutable order-``n`` tridiagonal matrix held as three bands."""

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        (n,) = _store_bands(self, 1)
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
        n, nsys = _store_bands(self, 2)
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
    return multi_apply(multi_factor(A.lower, A.diag, A.upper), f)


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
