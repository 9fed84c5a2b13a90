"""Orthonormal Laguerre functions and the spectral-time transform pair.

The time axis is expanded in the functions

    l_m(tau) = sqrt(h m! / Gamma(m + alpha + 1)) tau^(alpha/2) e^(-tau/2)
               L_m^alpha(tau),            tau = h t,

which are orthonormal on t in [0, inf):  integral l_m(ht) l_k(ht) dt =
delta_mk.  A signal is represented through the asymmetric pair

    coefficients:   Q_m = integral_0^inf f(t) w_m(ht) dt,
    reconstruction: f(t) = sum_m Q_m (ht)^(alpha/2) l_m(ht),

one table (:func:`laguerre_function_table`) at three powers of tau over the
analysis weight ``w_m`` (``l_m`` without its ``tau^(alpha/2)``): 0, alpha/2
for ``l_m`` and alpha.  Analysis and synthesis powers add up to the weight
``tau^alpha``, making the pair exactly biorthogonal; for ``alpha >= 1``
every reconstruction vanishes at t = 0, the simulator's quiescent start.

Evaluation uses the three-term recurrence of the *normalized* functions,

    l_{m+1} = [ (2m + alpha + 1 - tau) l_m - sqrt(m (m + alpha)) l_{m-1} ]
              / sqrt((m + 1)(m + alpha + 1)),

which every power shares, started in log space from ``power log(tau)``
so neither a huge ``tau`` nor a huge power of it leaves the float range on
its own: values are carried as ``v * exp(D)`` with a per-point deficit
``D`` that is paid back through renormalization as the functions re-enter
the representable range.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, OverflowGuard, QuadratureNotConverged

__all__ = [
    "laguerre_function_table", "scaled_times", "project_source",
    "reconstruct_signal",
]

_RENORM = 1e250
_LOG_RENORM = math.log(_RENORM)
_HARD_LIMIT = 1e300
_FLOAT_SPACING = float(np.finfo(np.float64).eps)
_LOG_TINY = math.log(float(np.finfo(np.float64).tiny))
_LN2 = math.log(2.0)
_SUM_ROUNDING = 64 * _FLOAT_SPACING


def _validate(m_max: int, alpha: float, h: float) -> None:
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be finite and exceed -1, got {alpha}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"scale h must be positive and finite, got {h}")


def _scaler(deficit: np.ndarray) -> Callable:
    """``v -> v exp(deficit)`` rounded once: a subnormal ``exp(deficit)``
    (too few bits for normal products) becomes a normal scale and ``ldexp``."""
    k = np.minimum(np.floor((deficit - _LOG_TINY) / _LN2), 0.0)
    k[np.isinf(k)] = 0.0                 # exp(-inf) = 0 needs no shift
    scale = np.exp(deficit - k * _LN2)
    if not k.any():
        return lambda v: v * scale
    return lambda v: np.ldexp(v * scale, k.astype(np.int64))


def laguerre_function_table(m_max: int, alpha: float, taus, *, h: float = 1.0,
                            power: Optional[float] = None) -> np.ndarray:
    """``tau^power w_m(tau)`` for m = 0..m_max at every ``tau`` in ``taus``,
    shape (len(taus), m_max + 1): power 0 gives the analysis weights, the
    default alpha/2 the orthonormal ``l_m`` and alpha the synthesis weights;
    a value beyond the float range raises :class:`OverflowGuard`."""
    _validate(m_max, alpha, h)
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1:
        raise DomainError(f"taus must be one-dimensional, got {taus.shape}")
    if not np.all(np.isfinite(taus) & (taus >= 0.0)):
        raise DomainError("tau must be finite and >= 0")
    power = 0.5 * alpha if power is None else power

    # D starts at the log of the m = 0 value; at tau = 0, -inf times power
    deficit = 0.5 * math.log(h) - 0.5 * math.lgamma(alpha + 1.0) - 0.5 * taus
    if power != 0.0:
        with np.errstate(divide="ignore"):
            deficit = deficit + power * np.log(taus)

    out = np.empty((taus.size, m_max + 1), dtype=np.float64)
    v_prev = np.zeros_like(taus)
    v_curr = np.ones_like(taus)
    # a huge tau can overflow a step to inf (or inf - inf to NaN) before the
    # guard sees it: the guard, not a numpy warning, reports that
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scaled = _scaler(deficit)        # rebuilt only when D changes
        out[:, 0] = scaled(v_curr)
        for m in range(m_max):
            nxt = ((2 * m + alpha + 1.0 - taus) * v_curr
                   - math.sqrt(m * (m + alpha)) * v_prev)
            nxt /= math.sqrt((m + 1.0) * (m + alpha + 1.0))
            v_prev, v_curr = v_curr, nxt
            # one reduction checks both limits; a NaN anywhere makes it NaN
            top = float(np.abs(v_curr).max(initial=0.0))
            if not top < _HARD_LIMIT:
                raise OverflowGuard(
                    f"recurrence magnitude exceeded {_HARD_LIMIT:g} "
                    f"at m={m + 1}")
            if top > _RENORM:
                big = np.abs(v_curr) > _RENORM
                v_curr = np.where(big, v_curr / _RENORM, v_curr)
                v_prev = np.where(big, v_prev / _RENORM, v_prev)
                deficit = np.where(big, deficit + _LOG_RENORM, deficit)
                scaled = _scaler(deficit)
            out[:, m + 1] = scaled(v_curr)
    if not np.all(np.isfinite(out)):
        raise OverflowGuard(f"tau^{power!r} w_m(tau) leaves the float range "
                            f"for tau up to {float(taus.max())!r}")
    return out


def scaled_times(h: float, times) -> np.ndarray:
    """``tau = h t`` for every time, flattened.  A negative time raises
    :class:`DomainError`, and so does a ``tau`` beyond the float range,
    formed without a numpy warning."""
    times = np.asarray(times, dtype=np.float64).ravel()
    if times.size and times.min() < 0.0:
        raise DomainError("times must be >= 0")
    with np.errstate(over="ignore"):
        taus = h * times
    if not np.all(np.isfinite(taus)):
        raise DomainError(f"tau = h t leaves the float range at h = {h!r}, "
                          f"t up to {float(times.max())!r}")
    return taus


@lru_cache(maxsize=1)
def _gauss_legendre_rule() -> Tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the 32-node Gauss-Legendre rule on
    [-1, 1], built on first use and kept for the process."""
    x, w = np.polynomial.legendre.leggauss(32)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_legendre_panels(rule: Tuple[np.ndarray, np.ndarray], a: float,
                           b: float, panels: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre ``rule`` (nodes, weights on
    [-1, 1]) repeated on ``panels`` equal panels of [a, b]."""
    x, w = rule
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    # halving each edge before adding cannot overflow, and above the
    # subnormal range it gives the bits of halving the sum
    mid = 0.5 * edges[:-1] + 0.5 * edges[1:]
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def project_source(fn: Callable, m_max: int, alpha: float, h: float, *,
                   t_upper: float) -> np.ndarray:
    """Expansion coefficients Q_0..Q_{m_max} of a signal supported on
    [0, t_upper].

    The integral is evaluated on one 32-node Gauss-Legendre rule, built
    once per process and repeated on equal panels, doubling the panel
    count from 8 until two consecutive answers agree to 1e-10 relative to
    the largest coefficient plus the sums' own rounding floor, 64 float
    spacings times the largest sum of term magnitudes (no panel count
    settles the sums closer than that); raises
    :class:`QuadratureNotConverged` past 256 panels, and
    :class:`DomainError` when ``t_upper`` is not finite and positive, when
    ``h t_upper`` is below the float spacing at 1 (the functions are then
    constant over the support but for rounding, so nothing can be
    resolved), or when a node's ``h t`` (:func:`scaled_times`) leaves the
    float range.
    """
    _validate(m_max, alpha, h)
    if not 0.0 < t_upper < math.inf:
        raise DomainError(f"t_upper must be positive and finite, "
                          f"got {t_upper}")
    if not h * t_upper > _FLOAT_SPACING:
        raise DomainError(
            f"h = {h!r} keeps h t below {_FLOAT_SPACING!r}, the float "
            f"spacing at 1, over the support [0, {t_upper!r}]: the Laguerre "
            f"functions are constant there but for rounding, so the source "
            f"cannot be projected")
    rule = _gauss_legendre_rule()
    prev = None
    panels = 8
    while panels <= 256:
        pts, wts = _gauss_legendre_panels(rule, 0.0, t_upper, panels)
        weights = laguerre_function_table(m_max, alpha, scaled_times(h, pts),
                                          h=h, power=0.0)
        terms = wts * np.asarray(fn(pts), dtype=np.float64)
        coeffs = terms @ weights
        if prev is not None:
            change = float(np.abs(coeffs - prev).max())
            tol = 1e-10 * max(float(np.abs(coeffs).max()), 1e-300)
            # the sums' rounding floor is formed only when tol alone fails
            if change <= tol or change <= tol + _SUM_ROUNDING * float(
                    (np.abs(terms) @ np.abs(weights)).max()):
                return coeffs
        prev = coeffs
        panels *= 2
    raise QuadratureNotConverged(
        f"projection failed to converge with 256 panels "
        f"of 32 nodes on [0, {t_upper}]")


def reconstruct_signal(coeffs, alpha: float, h: float, times) -> np.ndarray:
    """Synthesize ``sum_m Q_m (ht)^(alpha/2) l_m(ht)`` at every time; a
    weight beyond the float range raises :class:`OverflowGuard`, a sum
    beyond it :class:`DomainError`, and so does a negative time or an
    ``h t`` beyond it (:func:`scaled_times`)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DomainError(f"need a 1-D coefficient vector, got {coeffs.shape}")
    times = np.asarray(times, dtype=np.float64)
    _validate(coeffs.size - 1, alpha, h)
    weights = laguerre_function_table(coeffs.size - 1, alpha,
                                      scaled_times(h, times), h=h, power=alpha)
    return _in_range(lambda: weights @ coeffs,
                     "signal values").reshape(times.shape)


def _in_range(synthesize: Callable, what: str) -> np.ndarray:
    """The sums ``synthesize()`` forms; a sum beyond the float range raises
    :class:`DomainError` naming ``what``, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = synthesize()
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{what} leave the float range")
    return out
