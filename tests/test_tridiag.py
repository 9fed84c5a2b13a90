"""Tests for axisolver.tridiag: Thomas solves, slicing, residuals.

Oracle policy: expected numbers were produced by dense linear algebra
(numpy.linalg) run separately and are frozen as literals where small enough;
randomized checks compare against a dense solve computed inside the test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisolver.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ZeroPivot,
    ZeroRhs,
)
from axisolver.kernels import multi_apply, multi_factor
from axisolver.tridiag import (
    TridiagonalFamily,
    TridiagonalMatrix,
    residual_relnorm,
    submatrix,
    thomas_solve,
)


def random_dominant(rng, n):
    """Random strictly diagonally dominant matrix of order n."""
    upper = rng.uniform(-1.0, 1.0, size=n - 1)
    lower = rng.uniform(-1.0, 1.0, size=n - 1)
    mag = np.zeros(n)
    if n > 1:
        mag[:-1] += np.abs(upper)
        mag[1:] += np.abs(lower)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    diag = sign * (mag + rng.uniform(0.1, 1.0, size=n))
    return TridiagonalMatrix(diag, upper, lower)


# ---------------------------------------------------------------------------
# thomas_solve
# ---------------------------------------------------------------------------


def test_identity_solve_returns_rhs():
    A = TridiagonalMatrix(np.ones(3), np.zeros(2), np.zeros(2))
    f = np.array([3.0, -1.0, 7.0])
    assert np.array_equal(thomas_solve(A, f), f)


def test_laplacian3_frozen_solution():
    # dense-LU oracle on tridiag(-1, 2, -1), order 3, f = e_1
    A = TridiagonalMatrix.constant(3, -1.0, 2.0, -1.0)
    x = thomas_solve(A, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(x, [0.75, 0.5, 0.25], rtol=0, atol=1e-15)


def test_spectral_mode_matrix_matches_dense():
    # 1-D radial Laplacian stencil plus the l=2 cosine-mode shift for four
    # axial cells of unit spacing: lam = 4 sin^2(pi/8)
    n2, mode = 4, 2
    lam = 4.0 * np.sin(np.pi * (mode - 1) / (2 * n2)) ** 2
    n = 9
    A = TridiagonalMatrix.constant(n, -1.0, 2.0 + lam, -1.0)
    rng = np.random.default_rng(42)
    f = rng.normal(size=n)
    x = thomas_solve(A, f)
    x_dense = np.linalg.solve(A.to_dense(), f)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) <= 1e-12


def test_batch_solve_matches_per_column():
    rng = np.random.default_rng(7)
    A = random_dominant(rng, 40)
    F = rng.normal(size=(40, 5))
    X = thomas_solve(A, F)
    for j in range(5):
        assert np.array_equal(X[:, j], thomas_solve(A, F[:, j]))


def test_zero_pivot_raises():
    A = TridiagonalMatrix(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ZeroPivot) as exc:
        thomas_solve(A, np.array([1.0, 1.0]))
    assert exc.value.row == 0


def test_interior_zero_pivot_raises():
    # elimination hits a zero pivot at row 2 even though diag is nonzero there
    A = TridiagonalMatrix(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0]),
                          np.array([1.0, 1.0]))
    with pytest.raises(ZeroPivot) as exc:
        thomas_solve(A, np.ones(3))
    assert (exc.value.row, exc.value.value) == (1, 0.0)


def test_zero_pivot_reports_the_failing_pivot():
    # the second pivot is 5e-301 - 0 * (1 / 1): below the floor, not zero
    A = TridiagonalMatrix(np.array([1.0, 5e-301]), np.array([1.0]),
                          np.array([0.0]))
    with pytest.raises(ZeroPivot) as exc:
        thomas_solve(A, np.ones(2))
    assert (exc.value.row, exc.value.value) == (1, 5e-301)


def test_dimension_mismatch_raises():
    A = TridiagonalMatrix.constant(4, -1.0, 2.0, -1.0)
    with pytest.raises(DimensionMismatch):
        thomas_solve(A, np.ones(5))
    with pytest.raises(DimensionMismatch):
        TridiagonalMatrix(np.ones(4), np.ones(4), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_dominant_solve_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    A = random_dominant(rng, n)
    f = rng.normal(size=n)
    x = thomas_solve(A, f)
    x_dense = np.linalg.solve(A.to_dense(), f)
    denom = max(np.linalg.norm(x_dense), 1e-30)
    assert np.linalg.norm(x - x_dense) / denom <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_solve_residual_postcondition(n, seed):
    rng = np.random.default_rng(seed)
    A = random_dominant(rng, n)
    f = rng.normal(size=n)
    x = thomas_solve(A, f)
    err = np.max(np.abs(A.matvec(x) - f)) / (np.max(np.abs(f)) + 1.0)
    assert err <= 100 * np.finfo(np.float64).eps * n


# ---------------------------------------------------------------------------
# multi-system kernels: a family of L independent matrices, bands (n, L)
# ---------------------------------------------------------------------------


def random_family(rng, n, nsys):
    mats = [random_dominant(rng, n) for _ in range(nsys)]
    lower = np.stack([A.lower for A in mats], axis=1)
    diag = np.stack([A.diag for A in mats], axis=1)
    upper = np.stack([A.upper for A in mats], axis=1)
    return lower, diag, upper


@pytest.mark.parametrize("n,nsys", [(1, 3), (2, 1), (17, 6), (64, 9)])
def test_multi_solve_equals_per_member_thomas_bitwise(n, nsys):
    rng = np.random.default_rng(n * 100 + nsys)
    lower, diag, upper = random_family(rng, n, nsys)
    F = rng.normal(size=(n, nsys))
    X = multi_apply(multi_factor(lower, diag, upper), F)
    for l in range(nsys):
        fact = multi_factor(lower[:, l], diag[:, l], upper[:, l])
        np.testing.assert_array_equal(X[:, l], multi_apply(fact, F[:, l]))


def test_multi_factor_first_pivot_zero_raises():
    lower, diag, upper = random_family(np.random.default_rng(11), 5, 4)
    diag[0, 2] = 0.0
    with pytest.raises(ZeroPivot) as exc:
        multi_factor(lower, diag, upper)
    assert exc.value.row == 0
    diag[0, 2], diag[0, 3] = 1e-301, 2e-301
    with pytest.raises(ZeroPivot) as exc:
        multi_factor(lower, diag, upper)
    assert (exc.value.row, exc.value.value) == (0, 1e-301)


def test_multi_factor_interior_pivot_zero_raises():
    # member 1 is tridiag(1, 1, 1) of order 3: its second pivot is 1 - 1 = 0
    lower, diag, upper = random_family(np.random.default_rng(12), 3, 4)
    lower[:, 1] = upper[:, 1] = diag[:, 1] = 1.0
    with pytest.raises(ZeroPivot) as exc:
        multi_factor(lower, diag, upper)
    assert exc.value.row == 1
    # members 1 and 3 fall below the floor at row 1; the first one is named
    lower[0, 1], diag[1, 1] = 0.0, 5e-301
    lower[0, 3], diag[1, 3] = 0.0, 7e-301
    with pytest.raises(ZeroPivot) as exc:
        multi_factor(lower, diag, upper)
    assert (exc.value.row, exc.value.value) == (1, 5e-301)


def test_one_member_family_solves_a_batch_like_thomas_bitwise():
    rng = np.random.default_rng(13)
    A = random_dominant(rng, 12)
    F = rng.normal(size=(12, 5))
    fact = multi_factor(A.lower[:, None], A.diag[:, None], A.upper[:, None])
    np.testing.assert_array_equal(multi_apply(fact, F), thomas_solve(A, F))
    with pytest.raises(DimensionMismatch):
        multi_apply(multi_factor(*random_family(rng, 12, 3)), F)


def test_family_bands_and_dominance():
    rng = np.random.default_rng(14)
    lower, diag, upper = random_family(rng, 6, 3)
    family = TridiagonalFamily(diag, upper, lower)
    assert (family.n, family.nsys) == (6, 3)
    assert family.is_diagonally_dominant()
    A = TridiagonalMatrix(diag[:, 1], upper[:, 1], lower[:, 1])
    one = TridiagonalFamily.of(A)
    assert (one.n, one.nsys) == (6, 1)
    np.testing.assert_array_equal(one.diag[:, 0], A.diag)
    diag[:, 2] = 0.0          # one non-dominant member spoils the family
    assert not TridiagonalFamily(diag, upper, lower).is_diagonally_dominant()
    with pytest.raises(DimensionMismatch):
        TridiagonalFamily(diag, upper[:-1], lower)
    with pytest.raises(DimensionMismatch):
        TridiagonalFamily(diag[:, 0], upper[:, 0], lower[:, 0])


def test_matrix_and_family_store_copies_of_the_callers_bands():
    lower, diag, upper = random_family(np.random.default_rng(15), 5, 2)
    for stored, bands in [
            (TridiagonalMatrix(diag[:, 0], upper[:, 0], lower[:, 0]),
             (diag[:, 0], upper[:, 0], lower[:, 0])),
            (TridiagonalFamily(diag, upper, lower), (diag, upper, lower))]:
        for mine, theirs in zip((stored.diag, stored.upper, stored.lower),
                                bands):
            assert not mine.flags.writeable and theirs.flags.writeable
            assert not np.shares_memory(mine, theirs)
    before = stored.diag.copy()
    diag[...] = 0.0           # the caller's later writes change no stored band
    np.testing.assert_array_equal(stored.diag, before)


# ---------------------------------------------------------------------------
# submatrix
# ---------------------------------------------------------------------------


def test_submatrix_full_range_is_identity_slice():
    rng = np.random.default_rng(1)
    A = random_dominant(rng, 6)
    S = submatrix(A, 1, A.n)
    assert np.array_equal(S.diag, A.diag)
    assert np.array_equal(S.upper, A.upper)
    assert np.array_equal(S.lower, A.lower)


def test_submatrix_constant_bands_translation_invariant():
    A = TridiagonalMatrix.constant(5, -1.0, 2.0, -1.0)
    S = submatrix(A, 2, 4)
    E = TridiagonalMatrix.constant(3, -1.0, 2.0, -1.0)
    assert np.array_equal(S.diag, E.diag)
    assert np.array_equal(S.upper, E.upper)
    assert np.array_equal(S.lower, E.lower)


def test_submatrix_single_row():
    A = TridiagonalMatrix(np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
                          np.arange(1.0, 5.0), np.arange(5.0, 9.0))
    S = submatrix(A, 3, 3)
    assert S.n == 1 and S.diag[0] == 30.0 and S.upper.size == 0


def test_submatrix_range_checks():
    A = TridiagonalMatrix.constant(4, -1.0, 2.0, -1.0)
    for low, top in [(0, 2), (3, 2), (1, 5)]:
        with pytest.raises(IndexOutOfRange):
            submatrix(A, low, top)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_submatrix_composition_law(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    A = random_dominant(rng, n)
    low = data.draw(st.integers(1, n))
    top = data.draw(st.integers(low, n))
    m = top - low + 1
    low2 = data.draw(st.integers(1, m))
    top2 = data.draw(st.integers(low2, m))
    twice = submatrix(submatrix(A, low, top), low2, top2)
    once = submatrix(A, low + low2 - 1, low + top2 - 1)
    assert np.array_equal(twice.diag, once.diag)
    assert np.array_equal(twice.upper, once.upper)
    assert np.array_equal(twice.lower, once.lower)


# ---------------------------------------------------------------------------
# residual_relnorm
# ---------------------------------------------------------------------------


def test_residual_of_exact_solution_is_tiny():
    rng = np.random.default_rng(3)
    A = random_dominant(rng, 50)
    f = rng.normal(size=50)
    x = thomas_solve(A, f)
    assert residual_relnorm(A, x, f) <= 1e-12


def test_residual_of_zero_guess_is_one():
    rng = np.random.default_rng(4)
    A = random_dominant(rng, 12)
    f = rng.normal(size=12)
    assert residual_relnorm(A, np.zeros(12), f) == pytest.approx(1.0, abs=1e-15)


def test_residual_growth_slope_matches_dense_spectral_norm():
    # perturb the exact solution along the top right-singular direction; the
    # relative-residual growth per unit perturbation equals ||A||_2 / ||f||_2
    rng = np.random.default_rng(5)
    A = random_dominant(rng, 30)
    f = rng.normal(size=30)
    x = thomas_solve(A, f)
    _, svals, vt = np.linalg.svd(A.to_dense())
    direction = vt[0]
    slope_expected = svals[0] / np.linalg.norm(f)
    eps_sizes = np.array([1e-6, 1e-5, 1e-4])
    values = np.array([residual_relnorm(A, x + e * direction, f) for e in eps_sizes])
    slopes = values / eps_sizes
    np.testing.assert_allclose(slopes, slope_expected, rtol=1e-6)


def test_residual_zero_rhs_raises():
    A = TridiagonalMatrix.constant(3, -1.0, 2.0, -1.0)
    with pytest.raises(ZeroRhs):
        residual_relnorm(A, np.ones(3), np.zeros(3))


def test_dominance_flag():
    assert TridiagonalMatrix.constant(5, -1.0, 2.5, -1.0).is_diagonally_dominant()
    assert TridiagonalMatrix.constant(5, -1.0, 2.0, -1.0).is_diagonally_dominant()
    assert not TridiagonalMatrix.constant(5, -1.0, 1.5, -1.0).is_diagonally_dominant()
    # equality in every row (no strict row) is not dominant
    A = TridiagonalMatrix(np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0]),
                          np.array([1.0, 1.0]))
    assert not A.is_diagonally_dominant()
