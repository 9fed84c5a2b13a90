"""Orthonormal Laguerre functions and the spectral-time transform pair.

The time axis is expanded in the functions

    l_m(tau) = sqrt(h m! / Gamma(m + alpha + 1)) tau^(alpha/2) e^(-tau/2)
               L_m^alpha(tau),            tau = h t,

which are orthonormal on t in [0, inf):  integral l_m(ht) l_k(ht) dt =
delta_mk.  A signal is represented through the asymmetric pair

    coefficients:   Q_m = integral_0^inf f(t) w_m(ht) dt,
    reconstruction: f(t) = (ht)^(alpha/2) sum_m Q_m l_m(ht),

where ``w_m`` is ``l_m`` *without* the power factor ``tau^(alpha/2)`` (the
two half-powers recombine to the full Laguerre weight ``tau^alpha`` between
analysis and synthesis, making the pair exactly biorthogonal).  For
``alpha >= 1`` every reconstruction vanishes at t = 0 identically, which is
how the simulator imposes a quiescent start.

Evaluation uses the three-term recurrence of the *normalized* functions,

    l_{m+1} = [ (2m + alpha + 1 - tau) l_m - sqrt(m (m + alpha)) l_{m-1} ]
              / sqrt((m + 1)(m + alpha + 1)),

started in log space so huge ``tau`` (deep exponential tails) cannot
underflow the recurrence: values are carried as ``v * exp(D)`` with a
per-point deficit ``D`` that is paid back through renormalization as the
functions re-enter the representable range.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, OverflowGuard, QuadratureNotConverged

__all__ = [
    "laguerre_function_table", "apply_half_power", "project_source",
    "reconstruct_signal",
]

_RENORM = 1e250
_LOG_RENORM = math.log(_RENORM)
_HARD_LIMIT = 1e300


def _validate(m_max: int, alpha: float, h: float) -> None:
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be finite and exceed -1, got {alpha}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"scale h must be positive and finite, got {h}")


def laguerre_function_table(m_max: int, alpha: float, taus, *, h: float = 1.0,
                            include_power: bool = True) -> np.ndarray:
    """Values of l_0..l_{m_max} at every ``tau`` in ``taus``; shape
    (len(taus), m_max + 1).

    ``include_power=False`` drops the ``tau^(alpha/2)`` factor, producing the
    analysis weights of :func:`project_source`.
    """
    _validate(m_max, alpha, h)
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1:
        raise DomainError(f"taus must be one-dimensional, got {taus.shape}")
    if not np.all(np.isfinite(taus) & (taus >= 0.0)):
        raise DomainError("tau must be finite and >= 0")

    # log of the m = 0 function; tau = 0 handled per the power factor
    base = 0.5 * math.log(h) - 0.5 * math.lgamma(alpha + 1.0) - 0.5 * taus
    if include_power and alpha != 0.0:
        with np.errstate(divide="ignore"):
            log_power = 0.5 * alpha * np.log(taus)
        log0 = base + np.where(taus > 0.0, log_power,
                               -np.inf if alpha > 0 else np.inf)
    else:
        log0 = base

    out = np.empty((taus.size, m_max + 1), dtype=np.float64)
    deficit = log0.copy()
    v_prev = np.zeros_like(taus)
    v_curr = np.ones_like(taus)
    # a huge tau can overflow a step to inf (or inf - inf to NaN) before the
    # guard sees it: the guard, not a numpy warning, reports that
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out[:, 0] = v_curr * np.exp(deficit)
        for m in range(m_max):
            nxt = ((2 * m + alpha + 1.0 - taus) * v_curr
                   - math.sqrt(m * (m + alpha)) * v_prev)
            nxt /= math.sqrt((m + 1.0) * (m + alpha + 1.0))
            v_prev, v_curr = v_curr, nxt
            mag = np.abs(v_curr)
            if np.any(~np.isfinite(mag) | (mag >= _HARD_LIMIT)):
                raise OverflowGuard(
                    f"recurrence magnitude exceeded {_HARD_LIMIT:g} "
                    f"at m={m + 1}")
            big = mag > _RENORM
            if big.any():
                v_curr = np.where(big, v_curr / _RENORM, v_curr)
                v_prev = np.where(big, v_prev / _RENORM, v_prev)
                deficit = np.where(big, deficit + _LOG_RENORM, deficit)
            out[:, m + 1] = v_curr * np.exp(deficit)
    if not np.all(np.isfinite(out)):
        raise OverflowGuard("non-finite Laguerre function value")
    return out


def apply_half_power(table: np.ndarray, alpha: float, taus) -> np.ndarray:
    """Rows of ``table`` (one per ``tau``) times ``tau^(alpha/2)``: the
    synthesis weights ``tau^(alpha/2) l_m(tau)`` for a table of l_m.

    Each weight is formed in log space, ``sign(l) exp(alpha/2 log(tau) +
    log|l|)``, so a power beyond the float range times a small Laguerre value
    stays finite.  A weight that is itself beyond the float range raises
    :class:`OverflowGuard` instead of reaching a signal as inf or NaN.
    """
    taus = np.asarray(taus, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        # for alpha > 0 the weights vanish at tau = 0 (log power -inf)
        log_power = (0.5 * alpha * np.log(taus) if alpha
                     else np.zeros_like(taus))
        weights = np.sign(table) * np.exp(log_power[:, None]
                                          + np.log(np.abs(table)))
    if not np.all(np.isfinite(weights)):
        raise OverflowGuard(
            f"synthesis weight tau^(alpha/2) l_m(tau) exceeds the float "
            f"range at alpha = {alpha}, tau up to {float(taus.max())!r}")
    return weights


def _gauss_legendre_panels(rule: Tuple[np.ndarray, np.ndarray], a: float,
                           b: float, panels: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre ``rule`` (nodes, weights on
    [-1, 1]) repeated on ``panels`` equal panels of [a, b]."""
    x, w = rule
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def project_source(fn: Callable, m_max: int, alpha: float, h: float, *,
                   t_upper: float) -> np.ndarray:
    """Expansion coefficients Q_0..Q_{m_max} of a signal supported on
    [0, t_upper].

    The integral is evaluated on one 32-node Gauss-Legendre rule, built
    once and repeated on equal panels, doubling the panel count from 8
    until two consecutive answers agree to 1e-10 relative to the largest
    coefficient; raises :class:`QuadratureNotConverged` past 256 panels.
    """
    _validate(m_max, alpha, h)
    if t_upper <= 0.0:
        raise DomainError(f"t_upper must be positive, got {t_upper}")
    rule = np.polynomial.legendre.leggauss(32)
    prev = None
    panels = 8
    while panels <= 256:
        pts, wts = _gauss_legendre_panels(rule, 0.0, t_upper, panels)
        weights = laguerre_function_table(m_max, alpha, h * pts, h=h,
                                          include_power=False)
        values = np.asarray(fn(pts), dtype=np.float64)
        coeffs = (wts * values) @ weights
        if prev is not None:
            scale = max(float(np.abs(coeffs).max()), 1e-300)
            if float(np.abs(coeffs - prev).max()) <= 1e-10 * scale:
                return coeffs
        prev = coeffs
        panels *= 2
    raise QuadratureNotConverged(
        f"projection failed to converge with 256 panels "
        f"of 32 nodes on [0, {t_upper}]")


def reconstruct_signal(coeffs, alpha: float, h: float, times) -> np.ndarray:
    """Synthesize ``(ht)^(alpha/2) sum_m Q_m l_m(ht)`` at every time; a
    weight beyond the float range raises :class:`OverflowGuard`."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DomainError(f"need a 1-D coefficient vector, got {coeffs.shape}")
    times = np.asarray(times, dtype=np.float64)
    _validate(coeffs.size - 1, alpha, h)
    if times.size and times.min() < 0.0:
        raise DomainError("times must be >= 0")
    taus = h * times.ravel()
    table = laguerre_function_table(coeffs.size - 1, alpha, taus, h=h)
    out = apply_half_power(table, alpha, taus) @ coeffs
    return out.reshape(times.shape)
