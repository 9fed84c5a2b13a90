"""Sequential tridiagonal algebra: storage, Thomas solves, dominance checks.

Storage convention (0-based arrays for an order-``n`` matrix whose rows are
numbered 1..n when talking about math):

* ``diag[i]``  — entry on the main diagonal in row ``i+1``       (length n);
* ``upper[i]`` — entry coupling row ``i+1`` to row ``i+2``       (length n-1);
* ``lower[i]`` — entry coupling row ``i+2`` back to row ``i+1``  (length n-1).

So row ``i`` (1-based) reads ``lower[i-2]*x[i-1] + diag[i-1]*x[i] +
upper[i-1]*x[i+1]``.  A family of L matrices of one order carries a
trailing member axis on every band (``diag`` (n, L)); a single matrix has
1-D bands.  All values are float64; :class:`TridiagonalMatrix` stores
read-only copies of the bands it is given, so instances are freely
shareable across threads and the caller's arrays stay writable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
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


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Immutable order-``n`` tridiagonal matrix, or family of ``nsys``.

    1-D bands (``diag`` (n,), ``upper``/``lower`` (n - 1,)) hold one matrix.
    Bands with a trailing member axis (``diag`` (n, L), ``upper``/``lower``
    (n - 1, L)) hold L members, member ``l`` in column ``l``.  Every entry
    must be finite.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    n: int = field(init=False)
    nsys: int = field(init=False)

    def __post_init__(self):
        diag = frozen_copy(self.diag)
        if diag.ndim not in (1, 2) or min(diag.shape) < 1:
            raise DimensionMismatch(f"diag must be 1-D or 2-D with every "
                                    f"length >= 1, got shape {diag.shape}")
        off = (diag.shape[0] - 1,) + diag.shape[1:]
        bands = (diag, frozen_copy(self.upper, "upper", off),
                 frozen_copy(self.lower, "lower", off))
        if not all(np.isfinite(band).all() for band in bands):
            raise DomainError("tridiagonal bands must be finite")
        for name, band in zip(("diag", "upper", "lower"), bands):
            object.__setattr__(self, name, band)
        object.__setattr__(self, "n", diag.shape[0])
        object.__setattr__(self, "nsys", diag.size // diag.shape[0])

    @classmethod
    def constant(cls, n: int, sub: float, main: float, sup: float) -> "TridiagonalMatrix":
        """Toeplitz matrix tridiag(sub, main, sup) of order n."""
        return cls(np.full(n, main), np.full(n - 1, sup), np.full(n - 1, sub))

    def is_diagonally_dominant(self) -> bool:
        """Weak row dominance everywhere and strict in at least one row of
        every member."""
        mag_off = np.zeros(self.diag.shape)
        mag_off[:-1] += np.abs(self.upper)
        mag_off[1:] += np.abs(self.lower)
        slack = np.abs(self.diag) - mag_off
        return bool(np.all(slack >= 0.0)
                    and np.all(np.any(slack > 0.0, axis=0)))


def thomas_solve(A: TridiagonalMatrix, f) -> np.ndarray:
    """Direct elimination solve of ``A x = f``.

    ``f`` is a vector (n,) or a batch (n, m) for one matrix, and (n, L), one
    column per member, for a family.  One matrix is solved as the
    one-member family of :mod:`.kernels`, a vector as its (n, 1) right-hand
    side and a batch as its (n, 1, m) one.  Raises ZeroPivot when a pivot
    falls below 1e-300 in magnitude (the matrix is expected to be
    diagonally dominant, where that cannot happen), and DimensionMismatch
    for an ``f`` of another shape.
    """
    fact = multi_factor(*(band.reshape(band.shape[0], A.nsys)
                          for band in (A.lower, A.diag, A.upper)))
    if A.diag.ndim == 2:
        return multi_apply(fact, f)
    f = np.asarray(f, dtype=np.float64)
    return multi_apply(fact, f.reshape(f.shape[:1] + (1,) + f.shape[1:])) \
        .reshape(f.shape)
