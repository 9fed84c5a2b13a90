"""Tests for axisolver.iterative: conjugate gradients, the Chebyshev
semi-iteration, and Lanczos-based spectral-interval estimation.

Oracle policy: small systems are solved densely with numpy for comparison;
the Chebyshev error bound 2 c^k (c the asymptotic reduction factor) is
asserted on a diagonal problem where the error polynomial acts exactly;
frozen bounds values follow from the 5% widening applied to the exact
single-point spectrum of scaled-identity pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisolver.elliptic import (CoefficientFields, Grid2D, assemble,
                                weighted_source)
from axisolver.errors import (Breakdown, DomainError, InvalidBounds,
                              MaxIterExceeded)
from axisolver.iterative import (
    IterationReport,
    SpectralBounds,
    chebyshev_solve,
    estimate_bounds,
    pcg_solve,
)
from axisolver.sov import SovPreconditioner

IDENT = lambda v: v


def random_spd(rng, n, cond=50.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n)
    return (Q * lam) @ Q.T


# ---------------------------------------------------------------------------
# SpectralBounds
# ---------------------------------------------------------------------------


def test_bounds_validation():
    with pytest.raises(InvalidBounds):
        SpectralBounds(0.0, 1.0)
    with pytest.raises(InvalidBounds):
        SpectralBounds(2.0, 1.0)
    with pytest.raises(InvalidBounds):
        SpectralBounds(1.0, np.inf)
    with pytest.raises(InvalidBounds):
        SpectralBounds(-1.0, -0.5)


def test_bounds_derived_quantities():
    b = SpectralBounds(1.0, 4.0)
    assert b.ratio == 0.25
    assert b.condition == 4.0
    # (1 - 1/2) / (1 + 1/2) = 1/3
    assert b.convergence_factor == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert SpectralBounds(3.0, 3.0).convergence_factor == 0.0


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------


def test_pcg_zero_rhs_short_circuits():
    x, rep = pcg_solve(IDENT, IDENT, np.zeros(7))
    np.testing.assert_array_equal(x, np.zeros(7))
    assert rep == IterationReport(0, 0.0, True, 0, (), rep.solution)
    assert rep.binv_applications == 0


def test_pcg_perfect_preconditioner_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 12)
    Ainv = np.linalg.inv(A)
    f = rng.standard_normal(12)
    x, rep = pcg_solve(lambda v: A @ v, lambda v: Ainv @ v, f, tol=1e-12)
    assert rep.iterations == 1
    assert rep.binv_applications == 1
    np.testing.assert_allclose(x, np.linalg.solve(A, f), rtol=1e-10, atol=1e-12)


def test_pcg_finite_termination_on_small_spectrum():
    # unpreconditioned CG is exact after n steps; diag(1..10) needs exactly 10
    A = np.diag(np.arange(1.0, 11.0))
    rng = np.random.default_rng(1)
    f = rng.standard_normal(10)
    x, rep = pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-12)
    assert rep.iterations <= 10
    np.testing.assert_allclose(x, f / np.arange(1.0, 11.0), rtol=0, atol=1e-11)


def test_pcg_error_decreases_monotonically_in_energy_norm():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 30, cond=200.0)
    f = rng.standard_normal(30)
    x_exact = np.linalg.solve(A, f)
    energies = []

    def trace(it, x, relres):
        e = x - x_exact
        energies.append(float(e @ (A @ e)))

    pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-12, maxiter=100, trace=trace)
    assert len(energies) >= 5
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_pcg_reports_history_and_reaches_tolerance():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 25, cond=30.0)
    f = rng.standard_normal(25)
    x, rep = pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-9)
    assert rep.converged
    assert rep.final_relres <= 1e-9
    assert [it for it, _ in rep.history] == list(range(1, rep.iterations + 1))
    assert np.linalg.norm(f - A @ x) / np.linalg.norm(f) <= 1e-9


def test_pcg_breakdown_on_indefinite_operator():
    f = np.ones(5)
    with pytest.raises(Breakdown):
        pcg_solve(lambda v: -v, IDENT, f)
    with pytest.raises(Breakdown):
        pcg_solve(IDENT, lambda v: -v, f)


def test_pcg_maxiter_carries_partial_iterate():
    rng = np.random.default_rng(4)
    A = random_spd(rng, 40, cond=1e4)
    f = rng.standard_normal(40)
    with pytest.raises(MaxIterExceeded) as err:
        pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-14, maxiter=3)
    rep = err.value.report
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.binv_applications == 3    # no inversion after the last step
    assert rep.solution is not None
    # the energy-norm error (the quantity conjugate gradients reduces
    # monotonically) improved over the zero start
    x_exact = np.linalg.solve(A, f)
    e = rep.solution - x_exact
    assert float(e @ (A @ e)) < float(x_exact @ (A @ x_exact))


DIAG10 = np.arange(1.0, 11.0)


@pytest.mark.parametrize("solve", [
    lambda f, trace: pcg_solve(lambda v: DIAG10 * v, IDENT, f, trace=trace),
    lambda f, trace: chebyshev_solve(lambda v: DIAG10 * v, IDENT, f,
                                     SpectralBounds(1.0, 10.0), trace=trace),
], ids=["pcg", "chebyshev"])
def test_trace_sees_a_read_only_view_of_the_live_iterate(solve):
    f = np.random.default_rng(8).standard_normal(10)
    views = []

    def trace(it, x, relres):
        with pytest.raises(ValueError):
            x[0] = 0.0
        views.append(x)

    x, rep = solve(f, trace)
    assert len(views) == len(rep.history) > 1
    assert all(np.shares_memory(v, x) for v in views)     # no copy per trace
    np.testing.assert_array_equal(views[-1], x)


# ---------------------------------------------------------------------------
# Chebyshev semi-iteration
# ---------------------------------------------------------------------------


def test_chebyshev_zero_rhs_short_circuits():
    x, rep = chebyshev_solve(IDENT, IDENT, np.zeros(5), SpectralBounds(1, 2))
    np.testing.assert_array_equal(x, np.zeros(5))
    assert rep.iterations == 0 and rep.converged


def test_chebyshev_scalar_spectrum_converges_in_one_step():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(9)
    x, rep = chebyshev_solve(lambda v: 3.0 * v, IDENT, f,
                             SpectralBounds(3.0, 3.0), tol=1e-13)
    assert rep.iterations == 1
    assert rep.final_relres <= 1e-15
    np.testing.assert_allclose(x, f / 3.0, rtol=0, atol=1e-15)


def test_chebyshev_converges_on_diagonal_problem():
    A = np.diag(np.arange(1.0, 11.0))
    rng = np.random.default_rng(6)
    f = rng.standard_normal(10)
    x, rep = chebyshev_solve(lambda v: A @ v, IDENT, f,
                             SpectralBounds(1.0, 10.0), tol=1e-10,
                             check_every=8)
    assert rep.converged
    np.testing.assert_allclose(x, f / np.arange(1.0, 11.0), rtol=1e-8,
                               atol=1e-10)
    # checkpoints: first after one step, then every eighth step
    its = [it for it, _ in rep.history]
    assert its[0] == 1
    assert all(it % 8 == 0 for it in its[1:])


def test_chebyshev_norm_called_only_at_checkpoints(monkeypatch):
    A = np.diag(np.arange(1.0, 11.0))
    rng = np.random.default_rng(7)
    f = rng.standard_normal(10)
    calls = []
    real_norm = np.linalg.norm

    def counting_norm(v):
        calls.append(1)
        return real_norm(v)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    x, rep = chebyshev_solve(lambda v: A @ v, IDENT, f,
                             SpectralBounds(1.0, 10.0), tol=1e-10,
                             check_every=8)
    # one evaluation for |f|, then exactly one per recorded checkpoint
    assert len(calls) == 1 + len(rep.history)


def test_chebyshev_error_bound_two_c_to_the_k():
    lam = np.linspace(1.0, 25.0, 40)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(40)
    x_exact = f / lam
    bounds = SpectralBounds(1.0, 25.0)
    c = bounds.convergence_factor
    e0 = np.linalg.norm(x_exact)
    for k in (1, 4, 8, 16, 24):
        try:    # a tolerance no residual reaches: every run takes k steps
            xk, _ = chebyshev_solve(lambda v: lam * v, IDENT, f, bounds,
                                    tol=1e-300, maxiter=k,
                                    check_every=10 ** 9)
        except MaxIterExceeded as exc:
            xk = exc.report.solution
        assert np.linalg.norm(xk - x_exact) <= 2.0 * c ** k * e0


def test_chebyshev_rejects_bad_check_interval():
    # nan would never check the residual again, 2.5 would check it at random
    for check_every in (0, -3, np.nan, np.inf, 2.5, "8"):
        with pytest.raises(InvalidBounds):
            chebyshev_solve(IDENT, IDENT, np.ones(3), SpectralBounds(1, 2),
                            check_every=check_every)


# ---------------------------------------------------------------------------
# spectral bounds estimation
# ---------------------------------------------------------------------------


def test_estimate_bounds_scaled_identity_frozen():
    # A = 2 B has the single-point spectrum {2}; widened by 5% -> (1.9, 2.1)
    b = estimate_bounds(lambda v: 2.0 * v, IDENT, 30)
    assert b.lower == pytest.approx(1.9, rel=1e-12)
    assert b.upper == pytest.approx(2.1, rel=1e-12)


def test_estimate_bounds_recovers_diagonal_spectrum():
    A = np.diag(np.arange(1.0, 11.0))
    b = estimate_bounds(lambda v: A @ v, IDENT, 10, steps=50)
    assert b.lower == pytest.approx(0.95, rel=1e-9)
    assert b.upper == pytest.approx(10.5, rel=1e-9)


def test_estimate_bounds_encloses_spectrum_of_random_spd():
    rng = np.random.default_rng(9)
    A = random_spd(rng, 35, cond=80.0)
    b = estimate_bounds(lambda v: A @ v, IDENT, 35, steps=40)
    lam = np.linalg.eigvalsh(A)
    assert b.lower <= lam.min() * 1.001
    assert b.upper >= lam.max() * 0.999


def test_estimate_bounds_breakdown_on_indefinite():
    with pytest.raises(Breakdown):
        estimate_bounds(lambda v: -v, IDENT, 8)


def test_estimate_bounds_pays_one_inversion_per_step():
    calls = []

    def counting_pc(v):
        calls.append(1)
        return v

    A = np.diag(np.arange(1.0, 11.0))
    estimate_bounds(lambda v: A @ v, counting_pc, 10, steps=4)
    assert len(calls) == 4


@pytest.mark.parametrize("solve", [
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=0),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=-1),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter=0),
    lambda f: estimate_bounds(IDENT, IDENT, f.size, steps=0),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=2.5),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter=2.5),
    lambda f: estimate_bounds(IDENT, IDENT, f.size, steps=2.5),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=np.nan),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=np.inf),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter="5"),
    lambda f: estimate_bounds(IDENT, IDENT, f.size, steps=0.0),
    lambda f: estimate_bounds(IDENT, IDENT, f.size, steps=np.nan),
], ids=["pcg-0", "pcg-negative", "chebyshev-0", "probe-0", "pcg-fraction",
        "chebyshev-fraction", "probe-fraction", "pcg-nan", "pcg-inf",
        "chebyshev-string", "probe-float-0", "probe-nan"])
def test_iteration_counts_below_one_raise_domain_error(solve):
    with pytest.raises(DomainError):
        solve(np.ones(6))


def test_whole_number_counts_of_any_type_are_accepted():
    A = np.diag(np.arange(1.0, 11.0))
    f = np.linspace(1.0, 2.0, 10)
    x, rep = pcg_solve(IDENT, IDENT, np.ones(3), maxiter=5.0)
    assert rep.converged and rep.iterations == 1
    x_int, rep_int = pcg_solve(lambda v: A @ v, IDENT, f, maxiter=20)
    x_float, rep_float = pcg_solve(lambda v: A @ v, IDENT, f,
                                   maxiter=np.float64(20.0))
    np.testing.assert_array_equal(x_float, x_int)
    assert rep_float.history == rep_int.history
    with pytest.raises(MaxIterExceeded) as exc:
        chebyshev_solve(lambda v: A @ v, IDENT, f, SpectralBounds(1.0, 10.0),
                        tol=1e-14, maxiter=3.0)
    assert exc.value.report.iterations == 3
    assert type(exc.value.report.iterations) is int
    assert estimate_bounds(lambda v: A @ v, IDENT, 10, steps=4.0) \
        == estimate_bounds(lambda v: A @ v, IDENT, 10, steps=4)


def _counting_identity(calls):
    def apply(v):
        calls.append(1)
        return v

    return apply


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
@pytest.mark.parametrize("tol, entry", [
    (np.nan, 1.0), (0.0, 1.0), (-1e-8, 1.0), (np.inf, 1.0),
    (1e-10, np.nan), (1e-10, np.inf), (1e-10, -np.inf),
], ids=["tol-nan", "tol-0", "tol-negative", "tol-inf", "rhs-nan", "rhs-inf",
        "rhs-minus-inf"])
def test_bad_tolerance_or_rhs_raises_before_any_application(method, tol,
                                                             entry):
    calls = []
    f = np.ones(6)
    f[2] = entry
    count = _counting_identity(calls)
    with pytest.raises(DomainError):
        if method == "pcg":
            pcg_solve(count, count, f, tol=tol)
        else:
            chebyshev_solve(count, count, f, SpectralBounds(0.5, 2.0),
                            tol=tol)
    assert calls == []


def test_nan_inner_products_are_a_breakdown():
    # NaN fails every comparison, so a NaN from the operator or the
    # preconditioner ends the solve in its first step
    f = np.ones(5)
    nan = lambda v: np.full_like(v, np.nan)
    with pytest.raises(Breakdown):
        pcg_solve(nan, IDENT, f)
    with pytest.raises(Breakdown):
        pcg_solve(IDENT, nan, f)


@settings(max_examples=15, deadline=None)
@given(st.integers(5, 25), st.integers(0, 2 ** 31 - 1))
def test_pcg_solves_random_spd_property(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, cond=100.0)
    f = rng.standard_normal(n)
    x, rep = pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-10, maxiter=10 * n)
    assert rep.converged
    assert np.linalg.norm(f - A @ x) <= 1e-9 * np.linalg.norm(f)


# ---------------------------------------------------------------------------
# the report contract of the shared convergence loop
# ---------------------------------------------------------------------------

LAM50 = np.linspace(1.0, 4.0, 50)


def chebyshev_on_lam50(maxiter, pc=IDENT, check_every=8):
    # checked at every step, this solve first meets tol = 1e-8 at step 18
    return chebyshev_solve(lambda v: LAM50 * v, pc, np.ones(50),
                           SpectralBounds(1.0, 4.0), tol=1e-8,
                           maxiter=maxiter, check_every=check_every)


def test_chebyshev_lam50_first_meets_tol_at_step_18():
    _, rep = chebyshev_on_lam50(100, check_every=1)
    assert rep.iterations == 18
    assert [it for it, _ in rep.history] == list(range(1, 19))


def test_chebyshev_checks_after_its_last_allowed_step():
    # step 18 is no multiple of check_every = 8, but it is the last allowed
    x, rep = chebyshev_on_lam50(18)
    assert rep.converged and rep.iterations == 18
    assert rep.final_relres <= 1e-8
    assert [it for it, _ in rep.history] == [1, 8, 16, 18]
    assert np.linalg.norm(np.ones(50) - LAM50 * x) <= 1e-8 * np.sqrt(50)


def test_chebyshev_pays_no_inversion_after_its_last_step():
    calls = []
    with pytest.raises(MaxIterExceeded) as exc:
        chebyshev_on_lam50(17, _counting_identity(calls))
    assert exc.value.report.iterations == 17
    assert exc.value.report.binv_applications == 17 == len(calls)


def test_chebyshev_history_has_one_row_per_residual_read():
    # step 16 is both a checkpoint and the last allowed step: one row
    with pytest.raises(MaxIterExceeded) as exc:
        chebyshev_on_lam50(16)
    assert [it for it, _ in exc.value.report.history] == [1, 8, 16]


@settings(max_examples=80, deadline=None)
@given(method=st.sampled_from(["pcg", "chebyshev"]),
       lam=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=8),
       tol_exponent=st.floats(-12.0, -1.0), maxiter=st.integers(1, 30),
       check_every=st.integers(1, 10), seed=st.integers(0, 2 ** 31 - 1))
def test_report_contract_property(method, lam, tol_exponent, maxiter,
                                  check_every, seed):
    lam = np.array(lam)
    f = np.random.default_rng(seed).standard_normal(lam.size)
    tol = 10.0 ** tol_exponent
    calls = []
    pc = _counting_identity(calls)
    try:
        if method == "pcg":
            _, rep = pcg_solve(lambda v: lam * v, pc, f, tol=tol,
                               maxiter=maxiter)
        else:
            _, rep = chebyshev_solve(lambda v: lam * v, pc, f,
                                     SpectralBounds(lam.min(), lam.max()),
                                     tol=tol, maxiter=maxiter,
                                     check_every=check_every)
    except MaxIterExceeded as exc:
        rep = exc.report
        assert rep.iterations == maxiter
    assert rep.converged == (rep.final_relres <= tol)
    assert rep.binv_applications == rep.iterations == len(calls)
    its = [it for it, _ in rep.history]
    assert all(a < b for a, b in zip(its, its[1:]))
    assert its[-1] == rep.iterations
    assert rep.history[-1][1] == rep.final_relres


# ---------------------------------------------------------------------------
# integration with the discretization and preconditioner
# ---------------------------------------------------------------------------


def elliptic_problem(n):
    g = Grid2D(n + 1, n, 1.0, 1.0)
    fields = CoefficientFields(
        lambda r, z: 1.5 + 0.5 * np.sin(np.pi * r) * np.cos(0.5 * np.pi * z),
        lambda r, z: 0.3 + 0.3 * r * z)
    op = assemble(g, fields)
    f = weighted_source(g, lambda r, z: np.exp(-10 * ((r - 0.3) ** 2
                                                      + (z - 0.5) ** 2)))
    return op, SovPreconditioner.from_operator(op), f.ravel()


def test_preconditioned_counts_are_mesh_independent():
    counts = []
    for n in (32, 64, 128):
        op, M, f = elliptic_problem(n)
        x, rep = pcg_solve(op.apply_spd, M.apply_inverse, f, tol=1e-10)
        assert rep.converged
        counts.append(rep.binv_applications)
    assert max(counts) - min(counts) <= 2, counts


def test_chebyshev_and_pcg_work_within_thirty_percent():
    op, M, f = elliptic_problem(64)
    _, rep_cg = pcg_solve(op.apply_spd, M.apply_inverse, f, tol=1e-8)
    bounds = estimate_bounds(op.apply_spd, M.apply_inverse,
                             op.grid.n_unknowns, steps=40)
    _, rep_ch = chebyshev_solve(op.apply_spd, M.apply_inverse, f, bounds,
                                tol=1e-8, check_every=2)
    assert rep_ch.converged
    assert rep_ch.binv_applications <= 1.3 * rep_cg.binv_applications + 2


def test_constant_coefficients_need_at_most_two_iterations():
    # when the coefficients are constant the preconditioner reproduces the
    # operator exactly, so conjugate gradients converge immediately
    g = Grid2D(33, 32, 1.0, 1.0)
    op = assemble(g, CoefficientFields.constant(2.0, 0.5))
    f = weighted_source(g, lambda r, z: np.cos(np.pi * z) * (1 - r ** 2))
    M = SovPreconditioner.from_operator(op)
    x, rep = pcg_solve(op.apply_spd, M.apply_inverse, f.ravel(), tol=1e-10)
    assert rep.iterations <= 2
    res = f.ravel() - op.apply_spd(x)
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(f)
