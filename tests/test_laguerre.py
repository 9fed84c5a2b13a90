"""Tests for axisolver.laguerre: orthonormal Laguerre functions and the
spectral-time transform pair.

Oracle policy: function values are checked against
scipy.special.eval_genlaguerre combined with log-gamma normalization;
orthonormality is verified by high-order Gauss-Legendre quadrature; the
frozen value sqrt(2)/e is the closed form of the order-0 function at
tau = 2 with alpha = 2, h = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, gammaln

from axisolver.errors import DomainError, OverflowGuard, QuadratureNotConverged
from axisolver.laguerre import (
    laguerre_function_table,
    project_source,
    reconstruct_signal,
)


def scipy_reference(m_max, alpha, taus, h=1.0, include_power=True):
    m = np.arange(m_max + 1)
    lognorm = 0.5 * (math.log(h) + gammaln(m + 1) - gammaln(m + alpha + 1))
    out = np.zeros((len(taus), m_max + 1))
    for i, tau in enumerate(taus):
        if include_power:
            power = 1.0 if alpha == 0 else (tau ** (alpha / 2) if tau > 0 else 0.0)
        else:
            power = 1.0
        out[i] = (np.exp(lognorm) * power * np.exp(-tau / 2)
                  * eval_genlaguerre(m, alpha, tau))
    return out


# ---------------------------------------------------------------------------
# function evaluation
# ---------------------------------------------------------------------------


def test_order_zero_frozen_value():
    # l_0(2) with alpha = 2, h = 1: sqrt(1/2) * 2 * e^-1 = sqrt(2)/e
    row = laguerre_function_table(0, 2.0, [2.0])[0]
    assert row[0] == pytest.approx(np.sqrt(2.0) / np.e, rel=1e-14)
    assert row[0] == pytest.approx(0.5202600950228890, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 2.0, 5.0])
@pytest.mark.parametrize("h", [1.0, 300.0])
def test_table_matches_scipy(alpha, h):
    taus = np.array([0.0, 0.1, 1.0, 7.3, 40.0, 200.0])
    ours = laguerre_function_table(60, alpha, taus, h=h)
    ref = scipy_reference(60, alpha, taus, h=h)
    assert np.abs(ours - ref).max() <= 1e-11


def test_analysis_weights_match_scipy():
    taus = np.array([0.0, 0.5, 3.0, 25.0])
    ours = laguerre_function_table(40, 2.0, taus, h=7.0, include_power=False)
    ref = scipy_reference(40, 2.0, taus, h=7.0, include_power=False)
    assert np.abs(ours - ref).max() <= 1e-12


def test_row_is_first_table_row():
    # each tau runs its own recurrence: a one-tau table is bitwise the
    # matching row of a table over many taus
    row = laguerre_function_table(25, 3.0, [4.2], h=2.0)[0]
    table = laguerre_function_table(25, 3.0, np.array([0.0, 4.2, 900.0]),
                                    h=2.0)
    np.testing.assert_array_equal(row, table[1])
    assert row.shape == (26,)


def test_value_at_origin():
    # the power factor kills every order when alpha > 0 ...
    assert np.all(laguerre_function_table(30, 2.0, [0.0])[0] == 0.0)
    # ... while alpha = 0 gives l_m(0) = sqrt(h) for every m
    row = laguerre_function_table(10, 0.0, [0.0], h=9.0)[0]
    np.testing.assert_allclose(row, np.full(11, 3.0), rtol=1e-13)
    # analysis weights at 0: sqrt(h m! / (m+alpha)!) * binom(m+alpha, m)
    w = laguerre_function_table(2, 2.0, [0.0], h=1.0, include_power=False)[0]
    expect = [1.0 / np.sqrt(2.0), np.sqrt(6.0) / 2.0, np.sqrt(12.0) / 2.0]
    np.testing.assert_allclose(w, expect, rtol=1e-13)


def test_deep_tail_underflows_to_zero_without_nan():
    table = laguerre_function_table(100, 5.0, np.array([3000.0, 6000.0]))
    assert np.all(np.isfinite(table))
    assert np.abs(table).max() == 0.0


def test_huge_scale_survives_log_space_start():
    # h = 300 with moderate tau exercises the deficit bookkeeping
    taus = np.array([500.0, 900.0])
    ours = laguerre_function_table(400, 5.0, taus, h=300.0)
    assert np.all(np.isfinite(ours))
    # values re-enter the representable range for large m (tau < 4m)
    assert np.abs(ours[:, 350:]).max() > 1e-20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recurrence_overflow_raises_the_guard_without_a_warning():
    # at tau = 2e155 the recurrence's second step overflows to inf in
    # numpy; that must reach OverflowGuard, not a RuntimeWarning
    with pytest.raises(OverflowGuard, match="at m=2"):
        laguerre_function_table(23, 5, [0.0, 1e-5, 2e155], h=1e155)


def test_scale_factor_is_sqrt_h():
    taus = np.linspace(0.0, 30.0, 7)
    base = laguerre_function_table(20, 3.0, taus, h=1.0)
    scaled = laguerre_function_table(20, 3.0, taus, h=25.0)
    np.testing.assert_allclose(scaled, 5.0 * base, rtol=1e-13, atol=1e-300)


def test_orthonormality_gram_matrix():
    # integral of l_m(h t) l_k(h t) dt = delta reduces to unit-scale tau
    # quadrature; 2000 Gauss-Legendre nodes on [0, 420] resolve m, k <= 50
    x, w = np.polynomial.legendre.leggauss(2000)
    pts = 210.0 * (x + 1.0)
    wts = 210.0 * w
    table = laguerre_function_table(50, 5.0, pts)
    gram = (table * wts[:, None]).T @ table
    assert np.abs(gram - np.eye(51)).max() <= 1e-8


def test_validation():
    with pytest.raises(DomainError):
        laguerre_function_table(-1, 2.0, np.array([1.0]))
    for alpha in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            laguerre_function_table(3, alpha, np.array([1.0]))
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            laguerre_function_table(3, 2.0, np.array([0.5]), h=h)
    for tau in (-0.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            laguerre_function_table(3, 2.0, np.array([0.5, tau]))
    with pytest.raises(DomainError):
        laguerre_function_table(3, 2.0, np.array([[1.0]]))


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------


def quiescent_wavelet(f0=15.0, t0=0.3, gamma=4.0):
    def signal(t):
        arg = 2.0 * np.pi * f0 * (np.asarray(t) - t0)
        return np.exp(-(arg ** 2) / gamma ** 2) * np.sin(arg)

    support = t0 + gamma * np.sqrt(-np.log(1e-14)) / (2.0 * np.pi * f0)
    return signal, support


def test_project_then_reconstruct_is_identity():
    signal, t_up = quiescent_wavelet()
    h, alpha = 300.0, 5.0
    coeffs = project_source(signal, 800, alpha, h, t_upper=t_up)
    ts = np.linspace(0.0, t_up, 401)
    back = reconstruct_signal(coeffs, alpha, h, ts)
    scale = np.abs(signal(ts)).max()
    assert np.abs(back - signal(ts)).max() <= 1e-6 * scale
    # coefficients of a resolved quiescent signal decay by many orders
    assert np.abs(coeffs[600:]).max() <= 1e-12 * np.abs(coeffs).max()


def test_reconstruction_vanishes_at_time_zero():
    signal, t_up = quiescent_wavelet()
    coeffs = project_source(signal, 200, 5.0, 300.0, t_upper=t_up)
    assert reconstruct_signal(coeffs, 5.0, 300.0, np.array([0.0]))[0] == 0.0


def test_projection_of_basis_function_is_unit_vector():
    # synthesizing a single order and projecting it back returns e_j
    h, alpha, j = 40.0, 2.0, 5
    unit = np.zeros(12)
    unit[j] = 1.0
    signal = lambda t: reconstruct_signal(unit, alpha, h, t)
    coeffs = project_source(signal, 11, alpha, h, t_upper=4.0)
    expect = np.zeros(12)
    expect[j] = 1.0
    np.testing.assert_allclose(coeffs, expect, rtol=0, atol=1e-10)


def test_projection_builds_its_gauss_legendre_rule_once(monkeypatch):
    rules, levels = [], []
    real = np.polynomial.legendre.leggauss

    def counted(deg):
        rules.append(deg)
        return real(deg)

    def signal(t):
        levels.append(len(t))
        return quiescent_wavelet()[0](t)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    project_source(signal, 200, 5.0, 300.0, t_upper=quiescent_wavelet()[1])
    assert len(levels) >= 2           # the answer is compared across levels
    assert rules == [32]


def test_projection_quadrature_failure_raises():
    rough = lambda t: np.sign(np.sin(400.0 * t)) * np.exp(5.0 * np.asarray(t))
    with pytest.raises(QuadratureNotConverged):
        project_source(rough, 40, 2.0, 50.0, t_upper=1.0)


def test_projection_validation():
    with pytest.raises(DomainError):
        project_source(lambda t: t, 5, 2.0, 1.0, t_upper=0.0)
    with pytest.raises(DomainError):
        reconstruct_signal(np.zeros((2, 2)), 2.0, 1.0, np.array([0.5]))
    with pytest.raises(DomainError):
        reconstruct_signal(np.ones(3), 2.0, 1.0, np.array([-1.0]))


def test_reconstruct_at_large_alpha_is_finite_or_raises_overflow_guard():
    # at alpha = 400, h = 280 the power tau^(alpha/2) alone overflows from
    # tau = 40; the weight tau^(alpha/2) l_0(tau) there is about e^458
    h, alpha, tau = 280.0, 400.0, 40.0
    with np.errstate(all="raise"):
        out = reconstruct_signal(np.array([1.0, 0.0]), alpha, h,
                                 np.array([0.0, tau / h]))
    log_w0 = (0.5 * math.log(h) - 0.5 * math.lgamma(alpha + 1.0)
              + alpha * math.log(tau) - 0.5 * tau)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.exp(log_w0), rel=1e-10)
    # up to t = 1.2 (tau = 336) the weights leave the float range
    with pytest.raises(OverflowGuard):
        reconstruct_signal(1e-3 * np.ones(16), alpha, h,
                           np.linspace(0, 1.2, 11))


def test_reconstruct_preserves_time_shape():
    coeffs = np.array([0.3, -0.2, 0.1])
    times = np.linspace(0, 2, 6).reshape(2, 3)
    out = reconstruct_signal(coeffs, 2.0, 1.5, times)
    assert out.shape == (2, 3)
    flat = reconstruct_signal(coeffs, 2.0, 1.5, times.ravel())
    np.testing.assert_array_equal(out.ravel(), flat)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_partial_sums_reproduce_random_expansions(seed):
    # reconstruct from random coefficients, project back: identity on the
    # coefficient vector (exercises biorthogonality, not signal smoothness)
    rng = np.random.default_rng(seed)
    h, alpha = 20.0, 2.0
    coeffs = rng.uniform(-1, 1, size=8)
    signal = lambda t: reconstruct_signal(coeffs, alpha, h, t)
    back = project_source(signal, 7, alpha, h, t_upper=8.0)
    np.testing.assert_allclose(back, coeffs, rtol=0, atol=1e-9)
