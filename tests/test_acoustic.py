"""Acoustic simulator tests.

Oracles used here:

* the recurrence coupling weights against direct log-gamma evaluation
  (``oracles.coupling_coefficient``, itself checked against a frozen hand
  value);
* a scalar oscillator u'' + w^2 u = f(t): the harmonic chain applied to a
  one-unknown grid must reproduce the *projection coefficients of the exact
  time solution* (solved independently by an adaptive ODE integrator) --
  this pins the full coupling structure, signs, and scale factors;
* physical invariants of the wave runs: front position at the medium speed,
  causality at receivers, second-order grid convergence, and
  mesh-independent preconditioner cost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import axisolver.acoustic as acoustic
from axisolver.acoustic import (
    LaguerreParams,
    LaguerreSeries,
    MediumModel,
    RunningSums,
    Wavelet,
    harmonic_operator,
    harmonic_rhs,
    reconstruct,
    snapshot_field,
    solve_all_harmonics,
    write_seismogram,
    write_snapshot,
    _galerkin_coefficients,
    _synthesis_weights,
)
from axisolver.elliptic import (
    CoefficientFields,
    DiscreteOperator,
    Grid2D,
    assemble,
    read_field_raw,
    sampler_from_field,
)
from axisolver.errors import (ConfigError, DomainError, HarmonicSolveFailure,
                              OverflowGuard, SolverError)
from axisolver.iterative import pcg_solve
from axisolver.laguerre import laguerre_function_table, project_source
from axisolver.sov import SovPreconditioner

import axisolver.sov as sov_module
from oracles import (arrays_of, assembled_reference, block_factor_reference,
                     coupling_coefficient, fault_v_s, midranges_reference,
                     point_source_trace)
from wavefront_utils import front_radius_along_axis, prearrival_ratio


# ---------------------------------------------------------------------------
# shared smoke-scale wave run (half the full desk resolution)
# ---------------------------------------------------------------------------

DESK_SPEED = 2000.0
DESK_PARAMS = LaguerreParams(h=280.0, alpha=5, n_terms=128)
DESK_WAVELET = Wavelet(f0=10.0, t0=0.4, gamma=4.0)
DESK_SNAP_TIME = 0.5


@pytest.fixture(scope="module")
def desk_half():
    grid = Grid2D(129, 128, 2000.0, 2000.0)
    model = MediumModel.homogeneous(DESK_SPEED)
    series = solve_all_harmonics(grid, model, DESK_PARAMS, DESK_WAVELET,
                                 source=(0.0, 0.0))
    return grid, model, series


# ---------------------------------------------------------------------------
# coupling weights
# ---------------------------------------------------------------------------


def test_coupling_frozen_value():
    # order 2 fed by order 0 at alpha = 2:
    #   2 * sqrt(2! 2! / (4! 0!)) = 2 sqrt(4/24) = sqrt(2/3)
    assert coupling_coefficient(2, 0, 2) == pytest.approx(
        0.816496580927726, abs=1e-15)
    assert coupling_coefficient(2, 0, 2) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-16)


def test_coupling_vanishes_unless_k_below_m():
    for m in range(5):
        for k in range(m, 8):
            assert coupling_coefficient(m, k, 4) == 0.0


def test_coupling_reduces_to_index_gap_at_alpha_zero():
    # the gamma ratios cancel exactly, leaving m - k
    for m in range(1, 12):
        for k in range(m):
            assert coupling_coefficient(m, k, 0) == float(m - k)


def test_coupling_log_space_stays_finite_at_high_order():
    val = coupling_coefficient(400, 2, 9)
    assert np.isfinite(val) and val > 0.0


def test_running_sums_match_direct_accumulation():
    rng = np.random.default_rng(3)
    grid = Grid2D(6, 5, 1.0, 1.0)
    for alpha in (2, 5):
        sums = RunningSums(grid, alpha)
        history = []
        for m in range(13):
            if m:
                combo = sums.weighted_combination(m)
                direct = sum(coupling_coefficient(m, k, alpha) * q
                             for k, q in enumerate(history))
                scale = max(np.abs(direct).max(), 1e-30)
                assert np.abs(combo - direct).max() <= 1e-12 * scale
            q = rng.standard_normal(grid.unknown_shape)
            sums.absorb(q)
            history.append(q)


def test_running_sums_stay_finite_at_large_alpha():
    # LaguerreParams accepts alpha = 400, where the unscaled weight
    # exp(lgamma(k + alpha + 1) / 2) overflows a double already at k = 0
    alpha, n_terms = 400, 40
    rng = np.random.default_rng(8)
    grid = Grid2D(4, 3, 1.0, 1.0)
    sums = RunningSums(grid, alpha)
    history = []
    for _ in range(n_terms):
        q = rng.standard_normal(grid.unknown_shape)
        sums.absorb(q)
        history.append(q)
    combo = sums.weighted_combination(n_terms)
    assert np.all(np.isfinite(sums.s1)) and np.all(np.isfinite(sums.s2))
    assert np.all(np.isfinite(combo))
    direct = sum(coupling_coefficient(n_terms, k, alpha) * q
                 for k, q in enumerate(history))
    assert np.abs(combo - direct).max() <= 1e-12 * np.abs(direct).max()


def test_synthesis_weights_finite_where_the_power_alone_overflows():
    # at alpha = 400, tau^(alpha/2) = e^738 overflows at tau = 40, but the
    # weight tau^(alpha/2) l_0(tau) = sqrt(h / alpha!) tau^alpha e^(-tau/2)
    # is about e^458
    params = LaguerreParams(h=280.0, alpha=400, n_terms=3)
    tau = 40.0
    w = _synthesis_weights(params, [0.0, tau / params.h])
    assert np.all(np.isfinite(w)) and np.all(w[0] == 0.0)
    log_w0 = (0.5 * math.log(params.h) - 0.5 * math.lgamma(401.0)
              + 400 * math.log(tau) - 0.5 * tau)
    assert w[1, 0] == pytest.approx(math.exp(log_w0), rel=1e-10)


def test_synthesis_weights_beyond_float_range_raise_overflow_guard():
    params = LaguerreParams(h=280.0, alpha=400, n_terms=3)
    with pytest.raises(OverflowGuard):
        _synthesis_weights(params, [0.0, 1.2])   # tau = 336: weight ~ e^1157


@settings(max_examples=30, deadline=None)
@given(st.floats(2.0, 8.0), st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
def test_running_sums_property_against_direct_accumulation(alpha, n_terms,
                                                           seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(3, 2, 1.0, 1.0)
    sums = RunningSums(grid, alpha)
    history = []
    for m in range(n_terms + 1):
        weights = [coupling_coefficient(m, k, alpha) for k in range(m)]
        direct = sum((w * q for w, q in zip(weights, history)),
                     np.zeros(grid.unknown_shape))
        # bound on the size of the terms, so cancellation cannot shrink it
        scale = sum(abs(w) * np.abs(q).max() for w, q in zip(weights, history))
        combo = sums.weighted_combination(m)
        assert np.abs(combo - direct).max() <= 1e-12 * max(scale, 1e-300)
        q = rng.standard_normal(grid.unknown_shape)
        sums.absorb(q)
        history.append(q)


def test_running_sums_require_matching_order():
    grid = Grid2D(4, 3, 1.0, 1.0)
    sums = RunningSums(grid, 2)
    for q in np.ones((3,) + grid.unknown_shape):
        sums.absorb(q)
    with pytest.raises(DomainError):
        sums.weighted_combination(2)
    with pytest.raises(DomainError):
        sums.weighted_combination(4)
    assert sums.weighted_combination(3).shape == grid.unknown_shape


# ---------------------------------------------------------------------------
# scalar oscillator oracle: chain coefficients == projected exact solution
# ---------------------------------------------------------------------------


def _chain_scalar(omega, h, alpha, n_terms, wavelet):
    """Run the harmonic chain for u'' + omega^2 u = wavelet(t), u(0)=u'(0)=0,
    with the package accumulators doing the bookkeeping (the smallest legal
    grid is used and the scalar is broadcast over it)."""
    grid = Grid2D(2, 2, 1.0, 1.0)
    f_m = project_source(wavelet, n_terms - 1, alpha, h,
                         t_upper=wavelet.support_end)
    sums = RunningSums(grid, alpha)
    diag = omega * omega + 0.25 * h * h
    coeffs = np.empty(n_terms)
    for m in range(n_terms):
        coupling = sums.weighted_combination(m)[0, 0]
        coeffs[m] = (f_m[m] - h * h * coupling) / diag
        sums.absorb(np.full(grid.unknown_shape, coeffs[m]))
    return coeffs


@pytest.mark.parametrize("f_osc,h,alpha", [(1.5, 40.0, 2), (2.0, 60.0, 5)])
def test_chain_matches_projected_oscillator_solution(f_osc, h, alpha):
    n_terms = 96
    omega = 2.0 * math.pi * f_osc
    wavelet = Wavelet(f0=3.0, t0=1.3, gamma=4.0)
    assert wavelet.is_quiescent

    coeffs = _chain_scalar(omega, h, alpha, n_terms, wavelet)

    # exact time solution, integrated far enough to cover the support of
    # every analysis weight (the highest order reaches tau ~ 4 n_terms)
    t_upper = 4.0 * n_terms / h + wavelet.support_end + 2.0
    sol = solve_ivp(lambda t, y: [y[1], -omega ** 2 * y[0] + wavelet(t)],
                    (0.0, t_upper), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    projected = project_source(lambda t: sol.sol(np.atleast_1d(t))[0],
                               n_terms - 1, alpha, h, t_upper=t_upper)

    scale = np.abs(coeffs).max()
    assert np.abs(coeffs - projected).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# wavelet and medium builders
# ---------------------------------------------------------------------------


def test_wavelet_support_and_quiescence():
    w = Wavelet(f0=10.0, t0=0.4, gamma=4.0)
    half = 4.0 * math.sqrt(math.log(1e14)) / (2.0 * math.pi * 10.0)
    assert w.half_width == pytest.approx(half, rel=1e-14)
    assert w.support_end == pytest.approx(0.4 + half, rel=1e-14)
    assert w.onset == pytest.approx(0.4 - half, rel=1e-12)
    assert w.is_quiescent
    # envelope is below the floor at both support edges; zero crossing at t0
    assert abs(w(w.onset)) <= 2e-14
    assert abs(w(w.support_end)) <= 2e-14
    assert w(0.4) == 0.0
    assert abs(w(0.4 + 0.025)) > 0.5  # quarter period later, near full swing

    late = Wavelet(f0=10.0, t0=0.1, gamma=4.0)
    assert not late.is_quiescent
    assert late.onset == 0.0
    assert Wavelet(f0=10.0, t0=0.1, gamma=4.0, amplitude=0.0).is_quiescent

    amp = Wavelet(f0=10.0, t0=0.4, gamma=4.0, amplitude=-2.5)
    t = np.linspace(0.0, 0.8, 7)
    assert np.allclose(amp(t), -2.5 * w(t), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("f0, gamma", [(1e200, 4.0), (10.0, 1e-308),
                                       (10.0, 5e-324)])
def test_wavelet_envelope_beyond_the_float_range_is_zero(f0, gamma):
    # (2 pi f0 (t - t0) / gamma)^2 overflows off t0: the pulse is 0 there,
    # and at t0 itself it is sin(0) = 0, not 0 / 0
    w = Wavelet(f0=f0, t0=0.4, gamma=gamma)
    t = np.array([0.0, 0.3, 0.4, 0.4 + 1e-3, 1.2])
    np.testing.assert_array_equal(w(t), 0.0)


def test_wavelet_validation():
    with pytest.raises(DomainError):
        Wavelet(f0=0.0)
    with pytest.raises(DomainError):
        Wavelet(f0=5.0, gamma=0.0)
    with pytest.raises(DomainError):
        Wavelet(f0=5.0, t0=-0.1)


def test_medium_builders():
    r = np.array([0.0, 100.0, 500.0])
    z = np.array([0.0, 300.0, 900.0])

    homo = MediumModel.homogeneous(1500.0, rho=2.0)
    assert np.allclose(homo.v_s(r, z), (1500.0 / 2.0) ** 2)
    assert np.allclose(homo.rho(r, z), 2.0)

    fault = MediumModel.fault(1800.0, 2200.0, interface_z=400.0,
                              throw=120.0, fault_r=200.0, dip=0.1)
    # left block: boundary at 400 + 0.1 r; right block displaced by +120
    assert fault.v_s(0.0, 399.0) == pytest.approx(1800.0 ** 2)
    assert fault.v_s(0.0, 401.0) == pytest.approx(2200.0 ** 2)
    assert fault.v_s(300.0, 500.0) == pytest.approx(1800.0 ** 2)  # 400+30+120
    assert fault.v_s(300.0, 560.0) == pytest.approx(2200.0 ** 2)


def test_fault_dip_beyond_the_float_range_puts_the_interface_at_infinity():
    # dip * r overflows for r > 0: the interface is at +-inf there, so one
    # layer fills the column; at r = 0 the interface stays where it is
    r, z = np.array([0.0, 0.0, 950.0, 950.0]), np.array([1.0, 9e3] * 2)
    for dip, far in ((1e308, 1800.0), (-1e308, 2200.0)):
        fault = MediumModel.fault(1800.0, 2200.0, interface_z=400.0, dip=dip)
        np.testing.assert_array_equal(
            fault.v_s(r, z), np.array([1800.0, 2200.0, far, far]) ** 2)


FAULT_GEOMETRIES = [
    {"throw": 120.0, "fault_r": 300.0},
    {"dip": 0.15},
    {"dip": -0.2, "throw": -80.0, "fault_r": 500.0, "rho": 1.7},
    # a dip whose product with r overflows puts the interface at +-inf
    {"dip": 1e308},
    {"dip": -1e308, "throw": 50.0, "fault_r": 10.0},
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("geometry", FAULT_GEOMETRIES)
def test_fault_sampler_matches_its_broadcast_oracle_bit_for_bit(geometry):
    # the sampler finds the interface depth on r's own shape and picks
    # squared speeds; its first form broadcast r and z to one shape and
    # squared the picked speed over it.  Points sit on r = fault_r, just
    # past it, and exactly on the interface (z = depth reads the bottom)
    new = MediumModel.fault(1800.0, 2200.0, interface_z=400.0, **geometry)
    old = fault_v_s(1800.0, 2200.0, 400.0, **geometry)
    fault_r = geometry.get("fault_r", 0.0)
    r = np.array([0.0, 50.0, fault_r, np.nextafter(fault_r, np.inf), 600.0,
                  950.0])
    with np.errstate(over="ignore"):
        depth = (400.0 + geometry.get("dip", 0.0) * r
                 + np.where(r > fault_r, geometry.get("throw", 0.0), 0.0))
    z = np.concatenate([np.array([0.0, 399.0, 401.0, 950.0]),
                        depth[np.isfinite(depth)]])
    R, Z = np.meshgrid(r, z)
    cases = [(float(ri), float(zi)) for ri, zi in zip(r, depth)
             if math.isfinite(zi)]
    cases += [(0.0, 399.0), (0.0, 401.0), (fault_r, 0.0)]   # scalars
    cases += [(r[None, :], z[:, None]), (r[:, None], z[None, :]),
              (R, Z), (R, 401.0), (300.0, Z)]
    for ri, zi in cases:
        mine, ref = np.asarray(new.v_s(ri, zi)), np.asarray(old(ri, zi))
        assert mine.shape == ref.shape
        assert mine.dtype == ref.dtype == np.float64
        assert mine.tobytes() == ref.tobytes()


def test_dipping_fault_build_matches_an_oracle_build(monkeypatch):
    # the operator's arrays, the preconditioner's reference coefficients
    # and its mode elimination, against builds by their first formulas
    grid = Grid2D(33, 32, 950.0, 950.0)
    geometry = {"interface_z": 420.0, "throw": 90.0, "fault_r": 300.0,
                "dip": 0.15}
    model = MediumModel.fault(1800.0, 2200.0, **geometry)
    params = LaguerreParams(h=280.0, alpha=5, n_terms=4)
    op = harmonic_operator(grid, model, params)
    shift = 0.25 * params.h ** 2
    ref = assembled_reference(grid, fault_v_s(1800.0, 2200.0, **geometry),
                              lambda r, z: shift / np.ones(r.shape) ** 2)
    assert op.checksum() == ref.checksum()

    made = []
    real = sov_module.block_factor

    def recording(*bands):
        made.append((bands, real(*bands)))
        return made[-1][1]

    monkeypatch.setattr(sov_module, "block_factor", recording)
    pc = SovPreconditioner.from_operator(op)
    assert (pc.vtilde, pc.shift) == midranges_reference(ref)
    [(bands, elim)] = made
    mine, oracle = arrays_of(elim), arrays_of(block_factor_reference(*bands))
    assert len(mine) == len(oracle) == 10
    for a, b in zip(mine, oracle):
        assert a.shape == b.shape and a.tobytes() == np.array(b).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_medium_builders_reject_non_finite_values(bad):
    for speed, rho in ((bad, 1.0), (1500.0, bad)):
        with pytest.raises(DomainError):
            MediumModel.homogeneous(speed, rho=rho)
    for v_top, v_bottom in ((bad, 2200.0), (1800.0, bad)):
        with pytest.raises(DomainError):
            MediumModel.fault(v_top, v_bottom, interface_z=400.0)
    for name in ("interface_z", "throw", "fault_r", "dip"):
        geometry = {"interface_z": 400.0, name: bad}
        with pytest.raises(DomainError, match=name):
            MediumModel.fault(1800.0, 2200.0, **geometry)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_medium_builders_reject_a_diffusion_beyond_the_float_range():
    # v_s = (speed / rho)^2 overflows a double above about 1.3e154
    for speed, rho in ((1e200, 1.0), (2000.0, 1e-200), (1e300, 1e-10)):
        with pytest.raises(DomainError, match="speed"):
            MediumModel.homogeneous(speed, rho=rho)
    with pytest.raises(DomainError, match="v_top"):
        MediumModel.fault(1e200, 2200.0, interface_z=400.0)
    with pytest.raises(DomainError, match="v_bottom"):
        MediumModel.fault(1800.0, 1e200, interface_z=400.0)
    with pytest.raises(DomainError, match="v_top"):
        MediumModel.fault(1800.0, 2200.0, interface_z=400.0, rho=1e-200)


def test_medium_builders_reject_a_diffusion_that_underflows_to_zero():
    # (speed / rho)^2 is 0 below about 1.5e-162; it filled the diffusion
    # slot with zeros, which assemble refused as a solver error
    for speed, rho in ((1e-308, 1.0), (5e-324, 1.0), (2000.0, 1e200),
                       (2000.0, 1e308)):
        with pytest.raises(DomainError, match="speed"):
            MediumModel.homogeneous(speed, rho=rho)
    for v_top, v_bottom, name in ((1e-308, 2200.0, "v_top"),
                                  (1800.0, 5e-324, "v_bottom")):
        with pytest.raises(DomainError, match=name):
            MediumModel.fault(v_top, v_bottom, interface_z=400.0)
    with pytest.raises(DomainError, match="v_top"):
        MediumModel.fault(1800.0, 2200.0, interface_z=400.0, rho=1e200)


def test_medium_density_samples_are_floats_for_any_number():
    # an integer density beyond int64 sampled as an object array, which
    # no float reduction takes
    r, z = np.array([0.0, 500.0]), np.array([0.0, 900.0])
    for medium in (MediumModel.homogeneous(2e20, rho=10 ** 20),
                   MediumModel.fault(2e20, 3e20, interface_z=400.0,
                                     rho=10 ** 20)):
        rho = medium.rho(r, z)
        assert rho.dtype == np.float64 and np.all(rho == 1e20)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wavelet_phase_beyond_the_float_range_is_zero():
    # 2 pi f0 (t - t0) overflows for a far t0 or t: the envelope is 0
    # there, and the pulse is 0, not 0 * sin(inf) = nan with a warning
    w = Wavelet(f0=10.0, t0=1e308)
    np.testing.assert_array_equal(w(np.array([0.0, 1.0])), 0.0)
    w = Wavelet(f0=10.0, t0=0.4)
    np.testing.assert_array_equal(w(np.array([1e308, -1e308])), 0.0)
    assert np.isnan(w(np.nan))


def test_wavelet_refuses_an_angular_frequency_beyond_the_float_range():
    for f0 in (1e308, 3e307):
        with pytest.raises(DomainError, match="f0"):
            Wavelet(f0=f0)
    assert Wavelet(f0=1e307).half_width > 0.0


def test_laguerre_params_validation():
    for h in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            LaguerreParams(h=h, alpha=2, n_terms=8)
    for alpha in (1, math.inf, math.nan):
        with pytest.raises(DomainError):
            LaguerreParams(h=10.0, alpha=alpha, n_terms=8)
    with pytest.raises(DomainError):
        LaguerreParams(h=10.0, alpha=2.5, n_terms=8)
    for n_terms in (0, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            LaguerreParams(h=10.0, alpha=2, n_terms=n_terms)
    p = LaguerreParams(h=10.0, alpha=3.0, n_terms=8)
    assert isinstance(p.alpha, int) and p.alpha == 3


# ---------------------------------------------------------------------------
# operator and right-hand sides
# ---------------------------------------------------------------------------


def test_harmonic_operator_matches_explicit_assembly():
    grid = Grid2D(9, 8, 10.0, 7.0)
    model = MediumModel.homogeneous(1500.0, rho=2.0)
    params = LaguerreParams(h=100.0, alpha=3, n_terms=4)
    op = harmonic_operator(grid, model, params)

    shift = 0.25 * 100.0 ** 2 / 2.0 ** 2
    fields = CoefficientFields(
        lambda r, z: (1500.0 / 2.0) ** 2 + 0.0 * r,
        lambda r, z: shift + 0.0 * r)
    ref = assemble(grid, fields)

    assert op.checksum() == ref.checksum()
    rng = np.random.default_rng(11)
    y = rng.standard_normal(grid.unknown_shape)
    a, b = op.apply_spd(y), ref.apply_spd(y)
    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    other = harmonic_operator(grid, model,
                              LaguerreParams(h=120.0, alpha=3, n_terms=4))
    assert other.checksum() != op.checksum()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_harmonic_operator_rejects_a_reaction_beyond_the_float_range():
    # h^2 / (4 rho^2): h^2 alone overflows at h = 1e155, the quotient at a
    # moderate h over a small rho
    grid = Grid2D(9, 8, 10.0, 7.0)
    for h, rho in ((1e155, 1.0), (1e150, 1e-100)):
        with pytest.raises(DomainError, match="h = "):
            harmonic_operator(grid, MediumModel.homogeneous(1.0, rho=rho),
                              LaguerreParams(h=h, alpha=3, n_terms=4))


def test_harmonic_operator_samples_the_medium_once():
    # one sampling pass: v_s at the radial faces and at the z faces, rho at
    # the nodes, and nothing more
    grid = Grid2D(9, 8, 10.0, 7.0)
    calls = {"v_s": [], "rho": []}

    def counting(name, value):
        def sampler(r, z):
            calls[name].append(np.broadcast(r, z).shape)
            return np.full(np.broadcast(r, z).shape, value)
        return sampler

    model = MediumModel(v_s=counting("v_s", 4.0), rho=counting("rho", 2.0))
    harmonic_operator(grid, model, LaguerreParams(h=100.0, alpha=3,
                                                  n_terms=4))
    assert calls == {
        "v_s": [(grid.nz, grid.nr - 1), (grid.nz - 1, grid.nr - 1)],
        "rho": [grid.unknown_shape],
    }


def test_harmonic_rhs_delta_and_coupling():
    grid = Grid2D(9, 8, 10.0, 7.0)
    model = MediumModel.homogeneous(1000.0)
    params = LaguerreParams(h=50.0, alpha=2, n_terms=4)
    op = harmonic_operator(grid, model, params)
    sums = RunningSums(grid, params.alpha)

    rhs0 = harmonic_rhs(op, 0, (3, 2), 1.75, sums)
    expect = np.zeros(grid.unknown_shape)
    expect[3, 2] = 1.75 / (2.0 * math.pi * grid.dr * grid.dz)
    assert np.array_equal(rhs0, expect)

    rng = np.random.default_rng(5)
    q0 = rng.standard_normal(grid.unknown_shape)
    sums.absorb(q0)
    rhs1 = harmonic_rhs(op, 1, (0, 0), -0.3, sums)
    manual = -4.0 * op.reaction * coupling_coefficient(1, 0, 2) * q0
    manual[0, 0] += -0.3 / (2.0 * math.pi * grid.dr * grid.dz)
    assert np.abs(rhs1 - manual).max() <= 1e-13 * np.abs(manual).max()

    nz, nu = grid.unknown_shape
    with pytest.raises(DomainError):
        harmonic_rhs(op, 0, (0, nu), 1.0, RunningSums(grid, 2))
    with pytest.raises(DomainError):
        harmonic_rhs(op, 0, (nz, 0), 1.0, RunningSums(grid, 2))


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_homogeneous_solve_diagnostics(desk_half):
    grid, model, series = desk_half
    # separable coefficients: the preconditioner is the operator itself,
    # so every harmonic converges in a single outer iteration
    assert set(series.iterations) == {1}
    assert series.binv_applications == DESK_PARAMS.n_terms
    assert series.operator_checksum == harmonic_operator(
        grid, model, DESK_PARAMS).checksum()
    assert series.source_coeffs.shape == (DESK_PARAMS.n_terms,)
    assert series.tail_energy_ratio() < 0.01
    energies = series.harmonic_energies()
    flat = series.harmonics.reshape(DESK_PARAMS.n_terms, -1)
    assert np.allclose(energies, (flat * flat).sum(axis=1), rtol=1e-14)


def test_solver_choice_does_not_change_the_field(desk_half):
    grid, model, series = desk_half
    cheb = solve_all_harmonics(grid, model, DESK_PARAMS, DESK_WAVELET,
                               source=(0.0, 0.0), method="chebyshev")
    scale = np.abs(series.harmonics).max()
    assert np.abs(series.harmonics - cheb.harmonics).max() <= 1e-10 * scale


def test_unknown_method_rejected(desk_half):
    grid, model, _ = desk_half
    with pytest.raises(DomainError):
        solve_all_harmonics(grid, model, DESK_PARAMS, DESK_WAVELET,
                            method="jacobi")


def test_unknown_executor_rejected_at_one_rank():
    with pytest.raises(ConfigError):
        solve_all_harmonics(Grid2D(17, 16, 500.0, 500.0),
                            MediumModel.homogeneous(1000.0),
                            LaguerreParams(h=100.0, alpha=2, n_terms=4),
                            Wavelet(f0=8.0, t0=0.3), executor="bogus")


def test_zero_amplitude_source_yields_silence():
    grid = Grid2D(33, 32, 500.0, 500.0)
    model = MediumModel.homogeneous(1000.0)
    params = LaguerreParams(h=100.0, alpha=2, n_terms=16)
    series = solve_all_harmonics(
        grid, model, params, Wavelet(f0=8.0, t0=0.3, amplitude=0.0))
    assert np.all(series.harmonics == 0.0)
    assert series.binv_applications == 0
    assert set(series.iterations) == {0}
    times = np.linspace(0.0, 1.0, 11)
    assert np.all(reconstruct(series, times, [(100.0, 100.0)]) == 0.0)
    assert np.all(snapshot_field(series, 0.5) == 0.0)


def test_failure_carries_harmonic_index():
    grid = Grid2D(33, 32, 950.0, 950.0)
    model = MediumModel.fault(1800.0, 2200.0, interface_z=400.0)
    params = LaguerreParams(h=200.0, alpha=2, n_terms=8)
    with pytest.raises(HarmonicSolveFailure) as info:
        solve_all_harmonics(grid, model, params,
                            Wavelet(f0=8.0, t0=0.3), maxiter=1)
    assert info.value.harmonic == 0
    assert isinstance(info.value.cause, SolverError)
    assert "harmonic 0" in str(info.value)


def test_progress_callback_sees_every_harmonic():
    grid = Grid2D(17, 16, 400.0, 400.0)
    model = MediumModel.homogeneous(900.0)
    params = LaguerreParams(h=90.0, alpha=2, n_terms=12)
    seen = []
    solve_all_harmonics(grid, model, params, Wavelet(f0=6.0, t0=0.4),
                        progress=lambda m, rep: seen.append((m, rep.converged)))
    assert [m for m, _ in seen] == list(range(12))
    assert all(ok for _, ok in seen)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chain_scales_exactly_with_a_power_of_two_amplitude():
    # the chain runs on the coefficients scaled into [0.5, 1) by a power of
    # two and scales the harmonics back, so a source 2**600 times stronger,
    # whose squares overflow, gives the bits of the unit run times 2**600
    grid = Grid2D(33, 32, 950.0, 950.0)
    model = MediumModel.fault(1800.0, 2200.0, interface_z=400.0,
                              throw=120.0, fault_r=300.0)
    params = LaguerreParams(h=280.0, alpha=5, n_terms=12)
    unit, strong = (solve_all_harmonics(
        grid, model, params, Wavelet(f0=10.0, t0=0.4, amplitude=a))
        for a in (1.0, 2.0 ** 600))
    assert unit.binv_applications > unit.params.n_terms   # PCG iterated
    assert strong.iterations == unit.iterations
    assert strong.binv_applications == unit.binv_applications
    for mine, ref in ((strong.source_coeffs, unit.source_coeffs),
                      (strong.harmonics, unit.harmonics)):
        assert mine.tobytes() == np.ldexp(ref, 600).tobytes()
    assert strong.tail_energy_ratio() == unit.tail_energy_ratio()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_harmonics_beyond_the_float_range_raise_naming_the_amplitude():
    # on a 1e-100 m box the point source alone is about 1e200 times the
    # coefficient: the chain stays in range, its harmonics do not
    grid = Grid2D(17, 16, 1e-100, 1e-100)
    with pytest.raises(DomainError, match="amplitude 1e.300"):
        solve_all_harmonics(grid, MediumModel.homogeneous(2000.0),
                            LaguerreParams(h=280.0, alpha=5, n_terms=8),
                            Wavelet(f0=10.0, t0=0.4, amplitude=1e300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synthesis_beyond_the_float_range_raises_domain_error():
    # harmonics near 1e306 are in range, their weighted sums are not
    grid = Grid2D(17, 16, 1e-100, 1e-100)
    series = solve_all_harmonics(grid, MediumModel.homogeneous(2000.0),
                                 LaguerreParams(h=280.0, alpha=5, n_terms=8),
                                 Wavelet(f0=10.0, t0=0.4, amplitude=1e225))
    assert 1e300 < np.abs(series.harmonics).max() < math.inf
    with pytest.raises(DomainError, match="receiver trace values"):
        reconstruct(series, np.linspace(0.0, 1.2, 61), [(0.0, 0.0)])
    with pytest.raises(DomainError, match="snapshot values"):
        snapshot_field(series, 0.1)


def test_chain_hashes_the_operator_once(monkeypatch):
    grid = Grid2D(17, 16, 400.0, 400.0)
    model = MediumModel.homogeneous(900.0)
    params = LaguerreParams(h=90.0, alpha=2, n_terms=6)
    checksum = DiscreteOperator.checksum
    calls = []

    def counting_checksum(op):
        calls.append(op)
        return checksum(op)

    monkeypatch.setattr(DiscreteOperator, "checksum", counting_checksum)
    series = solve_all_harmonics(grid, model, params, Wavelet(f0=6.0, t0=0.4))
    assert len(calls) == 1
    assert series.operator_checksum == checksum(
        harmonic_operator(grid, model, params))


FAULT_SMALL = (Grid2D(65, 64, 950.0, 950.0),
               MediumModel.fault(1800.0, 2200.0, interface_z=500.0,
                                 throw=120.0, fault_r=400.0, dip=0.05),
               LaguerreParams(h=280.0, alpha=5, n_terms=32))


def test_galerkin_coefficients_project_onto_the_span_kept():
    rng = np.random.default_rng(5)
    A = np.diag(rng.uniform(1.0, 10.0, 40))
    Q = rng.standard_normal((6, 40))
    b = rng.standard_normal(40)
    c = _galerkin_coefficients(Q @ A @ Q.T, Q @ b)
    np.testing.assert_allclose(Q @ A @ Q.T @ c, Q @ b, rtol=1e-10)
    # a repeated and a scaled row add no direction: the projection onto the
    # span is the same, and a coefficient per dependent row stays zero
    dup = np.vstack([Q, Q[2], -3.0 * Q[4]])
    c_dup = _galerkin_coefficients(dup @ A @ dup.T, dup @ b)
    assert np.count_nonzero(c_dup) == 6
    np.testing.assert_allclose(c_dup @ dup, c @ Q, rtol=1e-10)
    assert _galerkin_coefficients(np.zeros((3, 3)), np.ones(3)) is None
    assert _galerkin_coefficients(-np.eye(2), np.ones(2)) is None


def test_projected_chain_matches_an_unprojected_oracle_loop():
    grid, model, params = FAULT_SMALL
    tol = 1e-10
    series = solve_all_harmonics(grid, model, params, DESK_WAVELET, tol=tol)
    op = harmonic_operator(grid, model, params)
    pc = SovPreconditioner.from_operator(op)
    node = grid.nearest_node(0.0, 0.0)
    oracle, chain = RunningSums(grid, params.alpha), RunningSums(grid,
                                                                 params.alpha)
    oracle_binv = 0
    for m, q_m in enumerate(series.harmonics):
        f_m = float(series.source_coeffs[m])
        rhs = harmonic_rhs(op, m, node, f_m, oracle)
        x, report = pcg_solve(op.apply_spd, pc.apply_inverse, rhs, tol=tol)
        oracle_binv += report.binv_applications
        q_ref = x.reshape(grid.unknown_shape)
        oracle.absorb(q_ref)
        assert np.linalg.norm(q_m - q_ref) <= 1e-8 * np.linalg.norm(q_ref), m
        # the chain's own residual, against the rhs its own harmonics build
        rhs = harmonic_rhs(op, m, node, f_m, chain)
        chain.absorb(q_m)
        assert np.linalg.norm(op.apply_spd(q_m) - rhs) \
            <= 2.0 * tol * np.linalg.norm(rhs), m
    assert series.binv_applications < oracle_binv
    # harmonic 0 starts from zero; every later one from its projection
    assert series.binv_applications == sum(series.iterations) \
        - (params.n_terms - 1)


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_chain_applies_and_inversions_match_its_reported_work(monkeypatch,
                                                              method):
    # what the benchmark's traced run checks: one operator apply per
    # reported iteration and one preconditioner inversion per reported
    # inversion, with no work outside the count for either method
    calls = {"apply": 0, "inverse": 0}

    def counted(fn, key):
        def wrapper(self, v):
            calls[key] += 1
            return fn(self, v)

        return wrapper

    monkeypatch.setattr(DiscreteOperator, "apply_spd",
                        counted(DiscreteOperator.apply_spd, "apply"))
    monkeypatch.setattr(SovPreconditioner, "apply_inverse",
                        counted(SovPreconditioner.apply_inverse, "inverse"))
    grid, model, params = FAULT_SMALL
    series = solve_all_harmonics(grid, model, params, DESK_WAVELET,
                                 method=method)
    assert calls["apply"] == sum(series.iterations)
    assert calls["inverse"] == series.binv_applications
    assert series.binv_applications < sum(series.iterations)   # projected
    assert (series.spectral_bounds is None) == (method == "pcg")


# ---------------------------------------------------------------------------
# synthesis back to time
# ---------------------------------------------------------------------------


def test_reconstruction_vanishes_at_time_zero(desk_half):
    _, _, series = desk_half
    times = np.array([0.0, 0.3])
    traces = reconstruct(series, times, [(200.0, 100.0), (500.0, 400.0)])
    assert traces.shape == (2, 2)
    assert np.all(traces[0] == 0.0)
    assert np.all(snapshot_field(series, 0.0) == 0.0)


def test_single_harmonic_series_synthesis():
    grid = Grid2D(5, 4, 1.0, 1.0)
    params = LaguerreParams(h=50.0, alpha=2, n_terms=3)
    rng = np.random.default_rng(9)
    harmonics = np.zeros((3,) + grid.unknown_shape)
    harmonics[1] = rng.standard_normal(grid.unknown_shape)
    series = LaguerreSeries(grid, params, harmonics,
                            np.zeros(3), 0, "x" * 64)

    times = np.array([0.0, 0.01, 0.05, 0.2])
    node = (2, 1)
    trace = reconstruct(series, times,
                        [(grid.r_nodes[node[1]], grid.z_nodes[node[0]])])[:, 0]

    taus = 50.0 * times
    table = laguerre_function_table(2, 2, taus, h=50.0)
    power = np.where(taus > 0.0, taus, 0.0)  # tau^(alpha/2) with alpha = 2
    expected = power * table[:, 1] * harmonics[1][node]
    assert np.allclose(trace, expected, rtol=1e-13, atol=1e-300)


def test_reconstruct_snaps_positions(desk_half):
    grid, _, series = desk_half
    times = np.linspace(0.0, 0.8, 9)
    on_node = reconstruct(series, times, [(grid.r_nodes[20], grid.z_nodes[7])])
    nudged = reconstruct(series, times, [(grid.r_nodes[20] + 0.3 * grid.dr,
                                          grid.z_nodes[7] - 0.4 * grid.dz)])
    assert np.array_equal(on_node, nudged)
    with pytest.raises(DomainError):
        reconstruct(series, times, [])


def test_source_node_trace_peaks_at_activation(desk_half):
    _, _, series = desk_half
    times = np.linspace(0.0, 1.2, 1201)
    trace = reconstruct(series, times, [(0.0, 0.0)])[:, 0]
    t_peak = times[int(np.argmax(np.abs(trace)))]
    assert abs(t_peak - DESK_WAVELET.t0) <= 0.06


# ---------------------------------------------------------------------------
# physical invariants of the wave runs
# ---------------------------------------------------------------------------


def test_wavefront_radius_half_scale(desk_half):
    grid, _, series = desk_half
    field = snapshot_field(series, DESK_SNAP_TIME)
    measured = front_radius_along_axis(grid, field)
    expected = DESK_SPEED * (DESK_SNAP_TIME - DESK_WAVELET.t0)
    assert abs(measured - expected) <= 2.0 * grid.dr


def test_receiver_causality_half_scale(desk_half):
    grid, _, series = desk_half
    times = np.linspace(0.0, 1.2, 601)
    positions = [(300.0, 4.0), (500.0, 4.0), (700.0, 4.0),
                 (500.0, 500.0), (200.0, 640.0), (900.0, 4.0)]
    traces = reconstruct(series, times, positions)
    k_src, i_src = grid.nearest_node(0.0, 0.0)
    src = np.array([grid.r_nodes[i_src], grid.z_nodes[k_src]])
    for j, (r, z) in enumerate(positions):
        k, i = grid.nearest_node(r, z)
        d = math.hypot(grid.r_nodes[i] - src[0], grid.z_nodes[k] - src[1])
        t_first = d / DESK_SPEED
        assert prearrival_ratio(times, traces[:, j], t_first) <= 1e-4, (r, z)


def test_snapshot_grid_refinement_is_second_order():
    model = MediumModel.homogeneous(DESK_SPEED)
    rng = np.random.default_rng(7)
    d = rng.uniform(100.0, 650.0, size=300)
    theta = rng.uniform(0.05, math.pi / 2.0 - 0.05, size=300)
    probe_r, probe_z = d * np.cos(theta), d * np.sin(theta)

    samples = []
    for n in (64, 128, 256):
        grid = Grid2D(n + 1, n, 950.0, 950.0)
        series = solve_all_harmonics(grid, model, DESK_PARAMS, DESK_WAVELET,
                                     source=(0.0, 0.0))
        inner = snapshot_field(series, DESK_SNAP_TIME)
        full = np.concatenate([inner, np.zeros((grid.nz, 1))], axis=1)
        samples.append(sampler_from_field(grid, full)(probe_r, probe_z))

    e_coarse = np.linalg.norm(samples[0] - samples[1])
    e_fine = np.linalg.norm(samples[1] - samples[2])
    ratio = e_coarse / e_fine
    assert 3.5 <= ratio <= 5.5, ratio


# relative L2 distance of the unfitted trace from the closed form, per
# receiver: the measured 14.5 / 24.0 / 32.6 % (129²) and 3.5 / 5.8 / 8.1 %
# (257²), about one tenth above each
CLOSED_FORM_RECEIVERS = [(300.0, 4.0), (500.0, 4.0), (700.0, 4.0)]
CLOSED_FORM_MISFIT = {129: (0.16, 0.27, 0.36), 257: (0.039, 0.064, 0.089)}


def test_desk_run_converges_at_second_order_to_the_closed_form(desk_half):
    # the homogeneous desk box is large enough that no wall but z = 0
    # reflects into the window; R is taken from the origin, where the
    # discrete source acts as a point.  With the amplitude fitted, the
    # misfit falls by at least 3.5 from 129² to 257² at each receiver
    # (second order gives 4); unfitted, it stays under the measured bound
    times = np.linspace(0.0, 1.2, 601)
    coarse, model, coarse_series = desk_half
    fine = Grid2D(257, 256, 2000.0, 2000.0)
    runs = [(coarse, coarse_series),
            (fine, solve_all_harmonics(fine, model, DESK_PARAMS,
                                       DESK_WAVELET, source=(0.0, 0.0)))]
    fitted = []
    for grid, series in runs:
        traces = reconstruct(series, times, CLOSED_FORM_RECEIVERS)
        row = []
        for j, (r, z) in enumerate(CLOSED_FORM_RECEIVERS):
            k, i = grid.nearest_node(r, z)
            exact = point_source_trace(DESK_WAVELET, DESK_SPEED,
                                       math.hypot(grid.r_nodes[i],
                                                  grid.z_nodes[k]), times)
            u = traces[:, j]
            unfitted = np.linalg.norm(u - exact) / np.linalg.norm(exact)
            assert unfitted <= CLOSED_FORM_MISFIT[grid.nr][j], (grid.nr, r)
            scale = (u @ exact) / (exact @ exact)
            row.append(np.linalg.norm(u - scale * exact) / np.linalg.norm(u))
        fitted.append(row)
    ratios = np.array(fitted[0]) / np.array(fitted[1])
    assert np.all(ratios >= 3.5), ratios


def test_fault_solve_cost_is_mesh_independent():
    params = LaguerreParams(h=280.0, alpha=5, n_terms=64)
    model = MediumModel.fault(1800.0, 2200.0, interface_z=500.0,
                              throw=120.0, fault_r=400.0, dip=0.05)
    costs = []
    for n in (64, 128):
        grid = Grid2D(n + 1, n, 950.0, 950.0)
        series = solve_all_harmonics(grid, model, params, DESK_WAVELET)
        costs.append(series.binv_applications)
    assert abs(costs[1] - costs[0]) <= 0.15 * costs[0], costs


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_seismogram_file_format_and_determinism(tmp_path):
    times = np.linspace(0.0, 0.5, 6)
    traces = np.arange(12.0).reshape(6, 2) / 7.0
    path = tmp_path / "rec.csv"
    write_seismogram(path, times, traces)

    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "t, u(x1), u(x2)"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], times)
    assert np.array_equal(data[:, 1:], traces)

    first = path.read_bytes()
    write_seismogram(path, times, traces)
    assert path.read_bytes() == first

    with pytest.raises(DomainError):
        write_seismogram(path, times, traces[:-1])


def test_snapshot_file_and_metadata(tmp_path, desk_half):
    grid, _, series = desk_half
    path = tmp_path / "snap.raw"
    field = write_snapshot(path, series, DESK_SNAP_TIME)
    assert field.shape == (grid.nz, grid.nr)
    assert np.all(field[:, -1] == 0.0)
    inner = snapshot_field(series, DESK_SNAP_TIME)
    assert np.array_equal(field[:, :-1], inner)

    back_grid, back = read_field_raw(path)
    assert back_grid == grid
    assert np.array_equal(back, field.astype("<f4").astype(np.float64))

    meta = (tmp_path / "snap.raw.meta").read_text(encoding="ascii")
    assert f"t = {DESK_SNAP_TIME!r}" in meta
    assert f"nr = {grid.nr} nz = {grid.nz}" in meta
    assert f"h = {DESK_PARAMS.h!r} alpha = {DESK_PARAMS.alpha}" in meta

    raw1 = path.read_bytes()
    meta1 = (tmp_path / "snap.raw.meta").read_bytes()
    write_snapshot(path, series, DESK_SNAP_TIME)
    assert path.read_bytes() == raw1
    assert (tmp_path / "snap.raw.meta").read_bytes() == meta1


# ---------------------------------------------------------------------------
# series container invariants
# ---------------------------------------------------------------------------


def test_series_validation_and_energy_accounting():
    grid = Grid2D(5, 4, 1.0, 1.0)
    params = LaguerreParams(h=10.0, alpha=2, n_terms=2)
    good = np.ones((2,) + grid.unknown_shape)
    with pytest.raises(DomainError):
        LaguerreSeries(grid, params, good[:1], np.zeros(2), 0, "c" * 64)
    bad = good.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(DomainError):
        LaguerreSeries(grid, params, bad, np.zeros(2), 0, "c" * 64)

    series = LaguerreSeries(grid, params, good, np.zeros(2), 0, "c" * 64)
    with pytest.raises(ValueError):
        series.harmonics[0, 0, 0] = 2.0
    assert np.allclose(series.harmonic_energies(),
                       np.full(2, good[0].size, dtype=float))

    silent = LaguerreSeries(grid, params, np.zeros_like(good),
                            np.zeros(2), 0, "c" * 64)
    assert silent.tail_energy_ratio() == 0.0
