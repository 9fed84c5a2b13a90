"""The half-sample cosine transforms, built on ``numpy.fft``.

The solver's separation-of-variables preconditioner expands grid columns in
the half-sample cosine basis

    X[l] = sqrt(2/N) * sum_k x[k] cos(pi (k + 1/2) l / N),     l = 0..N-1,

whose inverse carries a half weight on the constant mode:

    x[k] = sqrt(2/N) * (X[0]/2 + sum_{l>=1} X[l] cos(pi (k + 1/2) l / N)).

For every length N the pair is evaluated through a single complex FFT of the
even/odd-folded sequence (reorder to [x0, x2, ..., x5, x3, x1], transform,
rotate by a quarter-sample twiddle; Makhoul 1980, IEEE TASSP 28(1)).  Direct
summation against a cached cosine matrix is kept as the oracle for the tests.
All routines are batched: the transform runs along ``axis`` and broadcasts
over every other axis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "dct_forward", "dct_inverse", "dct_forward_direct", "dct_inverse_direct",
]


@lru_cache(maxsize=32)
def _quarter_twiddle(n: int) -> np.ndarray:
    w = np.exp(-0.5j * np.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=32)
def _cosine_matrix(n: int) -> np.ndarray:
    l = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    C = np.cos(np.pi * (k + 0.5) * l / n)
    C.setflags(write=False)
    return C


def _fold_even_odd(x: np.ndarray) -> np.ndarray:
    """[x0, x2, x4, ..., x5, x3, x1]: evens ascending, odds descending."""
    n = x.shape[-1]
    v = np.empty_like(x)
    half = (n + 1) // 2
    v[..., :half] = x[..., ::2]
    if n > 1:
        v[..., half:] = x[..., n - 1 - (n % 2):: -2]
    return v


def _unfold_even_odd(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1]
    x = np.empty_like(v)
    half = (n + 1) // 2
    x[..., ::2] = v[..., :half]
    if n > 1:
        x[..., 1::2] = v[..., : half - 1: -1]
    return x


def dct_forward(x, axis: int = 0) -> np.ndarray:
    """Half-sample cosine analysis with the sqrt(2/N) scale (see module
    docstring); batched along every axis but ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    moved = np.moveaxis(x, axis, -1)
    V = np.fft.fft(_fold_even_odd(np.ascontiguousarray(moved)))
    out = np.sqrt(2.0 / n) * (V * _quarter_twiddle(n)).real
    return np.moveaxis(out, -1, axis)


def dct_inverse(X, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`dct_forward` (half weight on the constant mode)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[axis]
    C = np.ascontiguousarray(np.moveaxis(X, axis, -1))
    V = np.empty(C.shape, dtype=np.complex128)
    V[..., 0] = C[..., 0]
    if n > 1:
        theta = np.conj(_quarter_twiddle(n)[1:])
        V[..., 1:] = theta * (C[..., 1:] - 1j * C[..., :0:-1])
    # the IFFT already carries the 1/N: feeding coefficients sqrt(N/2) X
    # reproduces the samples exactly, so the scale here is sqrt(N/2)
    v = np.fft.ifft(V).real
    out = np.sqrt(n / 2.0) * _unfold_even_odd(v)
    return np.moveaxis(out, -1, axis)


def dct_forward_direct(x, axis: int = 0) -> np.ndarray:
    """O(N^2) analysis by direct summation; the oracle for the tests."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    moved = np.moveaxis(x, axis, -1)
    out = np.sqrt(2.0 / n) * (moved @ _cosine_matrix(n).T)
    return np.moveaxis(out, -1, axis)


def dct_inverse_direct(X, axis: int = 0) -> np.ndarray:
    """O(N^2) synthesis by direct summation; the oracle for the tests."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[axis]
    weights = np.ones(n)
    weights[0] = 0.5
    basis = weights[:, None] * _cosine_matrix(n)
    moved = np.moveaxis(X, axis, -1)
    out = np.sqrt(2.0 / n) * (moved @ basis)
    return np.moveaxis(out, -1, axis)
