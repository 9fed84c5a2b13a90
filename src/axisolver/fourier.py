"""The half-sample cosine transforms, built on ``numpy.fft``'s real FFT.

The solver's separation-of-variables preconditioner expands grid columns in
the half-sample cosine basis

    X[l] = sqrt(2/N) * sum_k x[k] cos(pi (k + 1/2) l / N),     l = 0..N-1,

whose inverse carries a half weight on the constant mode:

    x[k] = sqrt(2/N) * (X[0]/2 + sum_{l>=1} X[l] cos(pi (k + 1/2) l / N)).

For every length N the pair is evaluated through one N-point real FFT of the
even/odd-folded sequence v = [x0, x2, x4, ..., x5, x3, x1] (Makhoul 1980,
IEEE TASSP 28(1)).  With V = rfft(v) and the quarter-sample twiddle
W_k = exp(-i pi k / (2N)), the analysis reads, for k = 0..N/2,

    X[k] = sqrt(2/N) Re(W_k V_k),     X[N-k] = -sqrt(2/N) Im(W_k V_k),

and the synthesis rebuilds the half spectrum
V_k = sqrt(N/2) conj(W_k) (X[k] - i X[N-k]) (with X[N] = 0), runs
``irfft(n=N)`` and unfolds.  The scales live in the cached twiddle tables.

The coefficients stay in the FFT's own layout, the real view of the
twiddled half spectrum: 2 (N//2 + 1) slots, slot 2k holding X[k] and slot
2k + 1 holding -X[N-k].  Slot 1 (X[N] = 0) is an exact zero; for even N
slots N and N + 1 both carry mode N/2, and slot N + 1 is set to exactly
-(slot N).  :func:`spectral_modes` names the mode of every slot.  The
synthesis reads its input as the complex half spectrum (``irfft`` ignores
the imaginary parts at k = 0 and k = N/2), so neither side repacks.  Both
routines are batched: the transform runs along ``axis`` and broadcasts over
every other axis.  ``dct_forward`` returns its coefficients with ``axis``
innermost in memory (the layout its FFT writes), ``dct_inverse`` returns
C-ordered samples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch

__all__ = ["dct_forward", "dct_inverse", "spectral_modes"]


@lru_cache(maxsize=32)
def _twiddles(n: int):
    """sqrt(2/N) W_k and sqrt(N/2) conj(W_k) for k = 0..N/2."""
    w = np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    analysis = np.sqrt(2.0 / n) * w
    synthesis = np.sqrt(n / 2.0) * np.conj(w)
    analysis.setflags(write=False)
    synthesis.setflags(write=False)
    return analysis, synthesis


def spectral_modes(n: int) -> np.ndarray:
    """The cosine mode acting on each coefficient slot of a length-``n``
    transform: ``[0, n, 1, n-1, 2, n-2, ...]``, 2 (n//2 + 1) entries.  Mode
    ``n`` (slot 1, always zero) lies outside 0..n-1, and for even ``n`` the
    last two slots both carry mode n/2."""
    k = np.arange(n // 2 + 1)
    return np.stack([k, n - k], axis=-1).ravel()


def dct_forward(x, axis: int = 0) -> np.ndarray:
    """Half-sample cosine analysis with the sqrt(2/N) scale, in the slot
    layout of :func:`spectral_modes` (see module docstring); batched along
    every axis but ``axis``."""
    xm = np.asarray(x, dtype=np.float64).swapaxes(axis, -1)
    n = xm.shape[-1]
    half = (n + 1) // 2
    # fold into a buffer the FFT reads contiguously
    v = np.empty(xm.shape)
    v[..., :half] = xm[..., ::2]
    v[..., half:] = xm[..., 1::2][..., ::-1]
    Z = np.fft.rfft(v)
    Z *= _twiddles(n)[0]
    c = Z.view(np.float64)
    if n % 2 == 0:
        # negation by multiplying: numpy 2.4's np.negative writes wrong
        # values into some strided outputs
        np.multiply(c[..., n], -1.0, out=c[..., n + 1])
    return c.swapaxes(-1, axis)


def dct_inverse(c, n: int, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`dct_forward` (half weight on the constant mode):
    ``n`` samples from the 2 (n//2 + 1) slots along ``axis``.  The input is
    read, never written, and copied only when its slots are not contiguous."""
    cm = np.asarray(c, dtype=np.float64).swapaxes(axis, -1)
    if n < 1 or cm.shape[-1] != 2 * (n // 2 + 1):
        raise DimensionMismatch(
            f"{n} samples need {2 * (n // 2 + 1)} coefficient slots, "
            f"got {cm.shape[-1]}")
    if cm.strides[-1] != cm.itemsize:
        cm = np.ascontiguousarray(cm)
    v = np.fft.irfft(cm.view(np.complex128) * _twiddles(n)[1], n=n)
    half = (n + 1) // 2
    out = np.empty(v.swapaxes(-1, axis).shape)
    om = out.swapaxes(axis, -1)
    om[..., ::2] = v[..., :half]
    om[..., 1::2] = v[..., half:][..., ::-1]
    return out

