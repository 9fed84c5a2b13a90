"""Tests for axisolver.iterative: conjugate gradients and the Chebyshev
semi-iteration.

Oracle policy: small systems are solved densely with numpy for comparison;
the Chebyshev error bound 2 c^k (c the asymptotic reduction factor) is
asserted on a diagonal problem where the error polynomial acts exactly;
Chebyshev runs on generic operators take their known spectrum as the
interval.
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
    s = np.sqrt(bounds.lower / bounds.upper)
    c = (1.0 - s) / (1.0 + s)
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


@pytest.mark.parametrize("solve", [
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=0),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=-1),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter=0),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=2.5),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter=2.5),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=np.nan),
    lambda f: pcg_solve(IDENT, IDENT, f, maxiter=np.inf),
    lambda f: chebyshev_solve(IDENT, IDENT, f, SpectralBounds(0.5, 2.0),
                              maxiter="5"),
], ids=["pcg-0", "pcg-negative", "chebyshev-0", "pcg-fraction",
        "chebyshev-fraction", "pcg-nan", "pcg-inf", "chebyshev-string"])
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
    _, rep_ch = chebyshev_solve(op.apply_spd, M.apply_inverse, f,
                                M.bounds_for(op),
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


# ---------------------------------------------------------------------------
# starting from a guess
# ---------------------------------------------------------------------------


def _guess_solve(method, A, f, calls, **kwargs):
    """Solve with an operator and an identity preconditioner that count
    their calls in ``calls``, and for Chebyshev the exact interval."""
    def op(v):
        calls["op"] += 1
        return A @ v

    def pc(v):
        calls["pc"] += 1
        return v

    if method == "pcg":
        return pcg_solve(op, pc, f, **kwargs)
    lam = np.abs(np.linalg.eigvalsh(A))
    return chebyshev_solve(op, pc, f, SpectralBounds(lam.min(), lam.max()),
                           **kwargs)


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_exact_guess_takes_one_iteration_and_no_inversion(method):
    rng = np.random.default_rng(11)
    A = random_spd(rng, 20, cond=40.0)
    f = rng.standard_normal(20)
    exact = np.linalg.solve(A, f)
    calls = {"op": 0, "pc": 0}
    x, rep = _guess_solve(method, A, f, calls, tol=1e-10, guess=exact.copy())
    assert (rep.iterations, rep.binv_applications) == (1, 0)
    assert calls == {"op": 1, "pc": 0}
    assert rep.converged and [it for it, _ in rep.history] == [1]
    np.testing.assert_allclose(x, exact, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_guess_step_counts_as_an_iteration_without_an_inversion(method):
    rng = np.random.default_rng(12)
    A = random_spd(rng, 30, cond=100.0)
    f = rng.standard_normal(30)
    guess = np.linalg.solve(A, f) + 0.1 * rng.standard_normal(30)
    d = guess.copy()
    calls = {"op": 0, "pc": 0}
    seen = []
    x, rep = _guess_solve(method, A, f, calls, tol=1e-9, maxiter=400,
                          trace=lambda it, x, rr: seen.append(it), guess=d)
    assert rep.converged
    assert np.shares_memory(x, d)              # the guess became the iterate
    assert calls == {"op": rep.iterations, "pc": rep.iterations - 1}
    assert rep.binv_applications == rep.iterations - 1
    assert seen[0] == 1 and rep.history[0][0] == 1
    # step 1 is the line search: x = alpha d with alpha = d.f / d.Ad
    alpha = (guess @ f) / (guess @ (A @ guess))
    assert rep.history[0][1] == pytest.approx(
        np.linalg.norm(f - alpha * (A @ guess)) / np.linalg.norm(f),
        rel=1e-12)
    assert np.linalg.norm(f - A @ x) <= 1e-8 * np.linalg.norm(f)


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
@pytest.mark.parametrize("maxiter", [1, 3])
def test_maxiter_counts_the_guess_step(method, maxiter):
    rng = np.random.default_rng(13)
    A = random_spd(rng, 30, cond=1e4)
    f = rng.standard_normal(30)
    guess = np.linalg.solve(A, f) + rng.standard_normal(30)
    with pytest.raises(MaxIterExceeded) as err:
        _guess_solve(method, A, f, {"op": 0, "pc": 0}, tol=1e-14,
                     maxiter=maxiter, guess=guess)
    rep = err.value.report
    assert rep.iterations == maxiter
    assert rep.binv_applications == maxiter - 1


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
@pytest.mark.parametrize("sign, guess, error, applies", [
    (1.0, np.ones(5), DomainError, 0),
    (1.0, np.ones(7), DomainError, 0),
    (1.0, np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), DomainError, 0),
    (1.0, np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0]), DomainError, 0),
    (1.0, np.zeros(6), Breakdown, 1),
    (-1.0, np.ones(6), Breakdown, 1),
], ids=["short", "long", "nan", "inf", "zero-curvature",
        "negative-curvature"])
def test_bad_guess_raises_before_any_inversion(method, sign, guess, error,
                                               applies):
    calls = {"op": 0, "pc": 0}
    with pytest.raises(error):
        _guess_solve(method, sign * np.eye(6), np.ones(6), calls,
                     guess=guess)
    assert calls == {"op": applies, "pc": 0}


def test_guess_may_be_read_only_or_the_rhs_itself():
    A = np.diag(np.arange(1.0, 9.0))
    f = np.linspace(1.0, 2.0, 8)
    guess = f / np.arange(1.0, 9.0) + 0.01
    guess.setflags(write=False)
    x, rep = pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-12, guess=guess)
    assert rep.converged and not np.shares_memory(x, guess)
    np.testing.assert_array_equal(guess, f / np.arange(1.0, 9.0) + 0.01)
    f_before = f.copy()
    x, rep = pcg_solve(lambda v: A @ v, IDENT, f, tol=1e-12, guess=f)
    assert rep.converged and not np.shares_memory(x, f)
    np.testing.assert_array_equal(f, f_before)
    np.testing.assert_allclose(A @ x, f, rtol=1e-11)
