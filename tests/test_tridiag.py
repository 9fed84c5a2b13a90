"""Tests for axisolver.tridiag: storage, Thomas solves, dominance checks.

Oracle policy: expected numbers were produced by dense linear algebra
(numpy.linalg) run separately and are frozen as literals where small enough;
randomized checks compare against a dense solve computed inside the test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisolver.errors import DimensionMismatch, DomainError, ZeroPivot
from axisolver import kernels
from axisolver.kernels import multi_apply, multi_factor
from axisolver.tridiag import TridiagonalMatrix, thomas_solve

from oracles import scalar_thomas, tridiagonal_dense, tridiagonal_matvec


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
    x_dense = np.linalg.solve(tridiagonal_dense(A), f)
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
    for f in (np.ones(5), np.ones((5, 2)), np.ones((4, 2, 2))):
        with pytest.raises(DimensionMismatch):
            thomas_solve(A, f)
    with pytest.raises(DimensionMismatch):
        TridiagonalMatrix(np.ones(4), np.ones(4), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_dominant_solve_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    A = random_dominant(rng, n)
    f = rng.normal(size=n)
    x = thomas_solve(A, f)
    x_dense = np.linalg.solve(tridiagonal_dense(A), f)
    denom = max(np.linalg.norm(x_dense), 1e-30)
    assert np.linalg.norm(x - x_dense) / denom <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_solve_residual_postcondition(n, seed):
    rng = np.random.default_rng(seed)
    A = random_dominant(rng, n)
    f = rng.normal(size=n)
    x = thomas_solve(A, f)
    err = np.max(np.abs(tridiagonal_matvec(A, x) - f)) / (np.max(np.abs(f))
                                                           + 1.0)
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


def assert_matches_scalar_thomas(lower, diag, upper, F, X, cp=None, dn=None):
    """Every member's column of X (and of cp and dn, when given) is bitwise
    the scalar Thomas loop of that member."""
    for l in range(diag.shape[1]):
        cp1, dn1, x1 = scalar_thomas(lower[:, l], diag[:, l], upper[:, l],
                                     F[:, l])
        np.testing.assert_array_equal(X[:, l], x1)
        if cp is not None:
            np.testing.assert_array_equal(cp[:, l], cp1)
            np.testing.assert_array_equal(dn[:, l], dn1)


@pytest.mark.parametrize("n,nsys", [(1, 3), (2, 1), (17, 6), (64, 9)])
def test_multi_solve_equals_per_member_thomas_bitwise(n, nsys):
    # each member's column is its own scalar Thomas loop, and the one-matrix
    # thomas_solve of that member
    rng = np.random.default_rng(n * 100 + nsys)
    lower, diag, upper = random_family(rng, n, nsys)
    F = rng.normal(size=(n, nsys))
    X = multi_apply(multi_factor(lower, diag, upper), F)
    assert_matches_scalar_thomas(lower, diag, upper, F, X)
    for l in range(nsys):
        A = TridiagonalMatrix(diag[:, l], upper[:, l], lower[:, l])
        np.testing.assert_array_equal(thomas_solve(A, F[:, l]), X[:, l])


@pytest.mark.parametrize("nsys", [1, 4])
def test_multi_solve_of_m_columns_per_member_is_bitwise_per_column(nsys):
    # an (n, L, M) rhs: member l solves its M columns F[:, l], each bitwise
    # as its own one-column solve, the rhs itself allowed as out
    rng = np.random.default_rng(16 + nsys)
    fact = multi_factor(*random_family(rng, 9, nsys))
    F = rng.normal(size=(9, nsys, 3))
    X = multi_apply(fact, F)
    for j in range(3):
        assert X[:, :, j].tobytes() == multi_apply(
            fact, np.ascontiguousarray(F[:, :, j])).tobytes()
    assert multi_apply(fact, F, out=F) is F and F.tobytes() == X.tobytes()
    with pytest.raises(DimensionMismatch):
        multi_apply(fact, np.ones((9, nsys + 1, 3)))


def test_kernels_take_only_families_and_their_batches():
    # bands are (n, L) and a rhs (n, L) or (n, L, M); one matrix is the
    # caller's to reshape into its one-member family
    rng = np.random.default_rng(18)
    lower, diag, upper = random_family(rng, 7, 3)
    with pytest.raises(DimensionMismatch):
        multi_factor(lower[:, 0], diag[:, 0], upper[:, 0])
    with pytest.raises(DimensionMismatch,
                       match=r"lower has shape \(6, 2\), expected \(6, 3\)"):
        multi_factor(lower[:, :2], diag, upper)
    with pytest.raises(DimensionMismatch, match=r"upper has shape \(5, 3\)"):
        multi_factor(lower, diag, upper[1:])
    for nsys in (1, 3):
        fact = multi_factor(lower[:, :nsys], diag[:, :nsys], upper[:, :nsys])
        for F in (np.ones(7), np.ones((7, 5)), np.ones((7, nsys, 2, 2))):
            with pytest.raises(DimensionMismatch):
                multi_apply(fact, F)


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
    # one matrix's (n, M) batch is the (n, 1, M) rhs of its one-member
    # family: thomas_solve reshapes it so, and every column is the scalar
    # Thomas loop
    rng = np.random.default_rng(13)
    A = random_dominant(rng, 12)
    F = rng.normal(size=(12, 5))
    bands = (A.lower[:, None], A.diag[:, None], A.upper[:, None])
    X = multi_apply(multi_factor(*bands), F[:, None])[:, 0]
    np.testing.assert_array_equal(thomas_solve(A, F), X)
    for j in range(5):
        np.testing.assert_array_equal(
            X[:, j], scalar_thomas(A.lower, A.diag, A.upper, F[:, j])[2])
    with pytest.raises(DimensionMismatch):
        multi_apply(multi_factor(*random_family(rng, 12, 3)), F)


@pytest.mark.parametrize("shape", [(12,), (12, 5)])
@pytest.mark.parametrize("nsys", [1, 3])
def test_solve_into_the_rhs_itself_is_bitwise_the_fresh_solve(nsys, shape):
    # out=F: the elimination reads each row of F before writing it; the
    # member axis goes after the first, so F is (12, L) or (12, L, 5)
    rng = np.random.default_rng(14)
    fact = multi_factor(*random_family(rng, 12, nsys))
    F = rng.normal(size=shape[:1] + (nsys,) + shape[1:])
    expected = multi_apply(fact, F)
    assert multi_apply(fact, F, out=F) is F
    assert F.tobytes() == expected.tobytes()


def test_solve_refuses_an_out_it_could_not_write_in_place():
    rng = np.random.default_rng(15)
    fact = multi_factor(*random_family(rng, 12, 3))
    F = rng.normal(size=(12, 3))
    for out in (np.empty((12, 4)), np.empty((3, 12)).T,
                np.empty((12, 3), dtype=np.float32)):
        with pytest.raises(DimensionMismatch):
            multi_apply(fact, F, out=out)


# ---------------------------------------------------------------------------
# kernel bodies: the compiled loops and the numpy fallback agree bitwise,
# and with the scalar Thomas loop of every member
# ---------------------------------------------------------------------------


def python_body(kernel):
    """The Python source of a kernel: numba keeps it as ``py_func``, and
    without numba the decorator returns the function itself."""
    return getattr(kernel, "py_func", kernel)


def factor_both(lower, diag, upper):
    """(row, cp, dn) from the numpy fallback and from the compiled body."""
    out = []
    for factor in (kernels._factor_multi_np,
                   python_body(kernels._factor_multi_jit)):
        cp = np.zeros((diag.shape[0] - 1, diag.shape[1]))
        dn = np.zeros_like(diag)
        out.append((factor(lower, diag, upper, cp, dn), cp, dn))
    return out


def solve_both(lower, cp, dn, F):
    """X from the numpy solve body and from the compiled one."""
    X, X_jit = np.empty_like(F), np.empty_like(F)
    kernels._solve(lower, cp, dn, F, X)
    python_body(kernels._solve_multi_jit)(lower, cp, dn, F, X_jit)
    return X, X_jit


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_kernel_bodies_agree_bitwise_on_a_dominant_family(n):
    # on the family of 5 and on each member alone, the family of L = 1:
    # both backends' bodies give the scalar Thomas loop's cp, dn and x
    rng = np.random.default_rng(40 + n)
    lower, diag, upper = random_family(rng, n, 5)
    F = rng.normal(size=(n, 5))
    for cols in [slice(None)] + [slice(l, l + 1) for l in range(5)]:
        bands = (lower[:, cols], diag[:, cols], upper[:, cols])
        for row, cp, dn in factor_both(*bands):
            assert row == -1
            for X in solve_both(bands[0], cp, dn, F[:, cols]):
                assert_matches_scalar_thomas(*bands, F[:, cols], X, cp, dn)


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_batch_kernel_body_agrees_bitwise_on_shared_bands(n):
    # an (n, L, M) rhs runs the numpy body with each member's bands shared
    # by its M columns, on either backend: bitwise the compiled body on the
    # family of L * M members that repeats each band M times, and the
    # scalar Thomas loop of every column
    rng = np.random.default_rng(50 + n)
    lower, diag, upper = random_family(rng, n, 2)
    fact = multi_factor(lower, diag, upper)
    F = rng.normal(size=(n, 2, 6))
    X = multi_apply(fact, F)
    wide = [np.repeat(band, 6, axis=1) for band in (lower, diag, upper)]
    _, cp, dn = factor_both(*wide)[1]
    X_jit = np.empty((n, 12))
    python_body(kernels._solve_multi_jit)(wide[0], cp, dn,
                                          F.reshape(n, 12), X_jit)
    np.testing.assert_array_equal(X_jit.reshape(n, 2, 6), X)
    assert_matches_scalar_thomas(*wide, F.reshape(n, 12), X.reshape(n, 12))


@pytest.mark.parametrize("row", [0, 2, 5])
def test_kernel_bodies_return_the_same_zero_pivot_row(row):
    # the first or the last member (3) of a family of order 6 loses its
    # pivot at ``row``: a zero leading entry, or unit off-diagonals over the
    # diagonal (1, 2, ..., 2, 1) on rows 0..row, whose pivots run
    # 1, 1, ..., 1, 0; at row 2 later rows divide by that exact zero.  Below
    # the last row, the other of the two loses a later pivot too.
    for member in (0, 3):
        lower, diag, upper = random_family(np.random.default_rng(60), 6, 4)
        if row < 5:
            lower[4, 3 - member] = diag[5, 3 - member] = 0.0
        if row == 0:
            diag[0, member] = 0.0
        else:
            lower[:row, member] = upper[:row, member] = 1.0
            diag[:row + 1, member] = [1.0] + [2.0] * (row - 1) + [1.0]
        both = factor_both(lower, diag, upper)
        assert [r for r, _, _ in both] == [row] * 2
        # every row before the failing one is complete and bitwise equal,
        # the scalar loop's over those rows alone, and so is the failing
        # member's ratio on the failing row
        (_, cp, dn), (_, cp_jit, dn_jit) = both
        done = max(row - 1, 0)
        np.testing.assert_array_equal(cp[:done], cp_jit[:done])
        np.testing.assert_array_equal(dn[:row], dn_jit[:row])
        np.testing.assert_array_equal(cp[:row, member], cp_jit[:row, member])
        if row:
            cp1, dn1, _ = scalar_thomas(lower[:row - 1, member],
                                        diag[:row, member],
                                        upper[:row - 1, member], np.ones(row))
            np.testing.assert_array_equal(cp1, cp_jit[:row - 1, member])
            np.testing.assert_array_equal(dn1, dn_jit[:row, member])
        # the pivot the compiled body stopped at, which the scalar loop and
        # multi_factor name
        value = diag[0, member] if row == 0 else (
            diag[row, member] - lower[row - 1, member] * cp_jit[row - 1, member])
        assert value == 0.0
        with pytest.raises(ZeroPivot) as oracle:
            scalar_thomas(lower[:, member], diag[:, member], upper[:, member],
                          np.ones(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroPivot) as exc:
                multi_factor(lower, diag, upper)
        assert (exc.value.row, exc.value.value) == (row, value) \
            == (oracle.value.row, oracle.value.value)


def test_family_bands_and_dominance():
    rng = np.random.default_rng(14)
    lower, diag, upper = random_family(rng, 6, 3)
    family = TridiagonalMatrix(diag, upper, lower)
    assert (family.n, family.nsys) == (6, 3)
    assert family.is_diagonally_dominant()
    A = TridiagonalMatrix(diag[:, 1], upper[:, 1], lower[:, 1])
    assert (A.n, A.nsys) == (6, 1)
    one = TridiagonalMatrix(diag[:, 1:2], upper[:, 1:2], lower[:, 1:2])
    assert (one.n, one.nsys) == (6, 1)
    np.testing.assert_array_equal(one.diag[:, 0], A.diag)
    diag[:, 2] = 0.0          # one non-dominant member spoils the family
    assert not TridiagonalMatrix(diag, upper, lower).is_diagonally_dominant()
    with pytest.raises(DimensionMismatch):
        TridiagonalMatrix(diag, upper[:-1], lower)
    with pytest.raises(DimensionMismatch):
        TridiagonalMatrix(diag, upper[:, 0], lower[:, 0])
    with pytest.raises(DimensionMismatch):     # 3-D bands
        TridiagonalMatrix(diag[..., None], upper[..., None], lower[..., None])
    with pytest.raises(DimensionMismatch):     # an empty member axis
        TridiagonalMatrix(diag[:, :0], upper[:, :0], lower[:, :0])


def test_non_finite_bands_are_rejected():
    # a NaN pivot would otherwise give an all-NaN solution without a word
    for bad in (np.nan, np.inf, -np.inf):
        for band in range(3):
            bands = [np.full(4, 4.0), -np.ones(3), -np.ones(3)]
            bands[band][1] = bad
            with pytest.raises(DomainError):
                TridiagonalMatrix(*bands)
    with pytest.raises(DomainError):
        TridiagonalMatrix([[4.0, np.nan], [4.0, 4.0]], [[-1.0, -1.0]],
                          [[-1.0, -1.0]])


@pytest.mark.parametrize("family, shape", [
    (False, (9,)), (False, (9, 5)), (True, (9, 3))])
def test_thomas_solve_inverts_matvec(family, shape):
    # (n,) and (n, M) against one matrix, (n, L) against a family of L = 3
    rng = np.random.default_rng(17)
    lower, diag, upper = random_family(rng, 9, 3)
    A = (TridiagonalMatrix(diag, upper, lower) if family
         else TridiagonalMatrix(diag[:, 0], upper[:, 0], lower[:, 0]))
    X = rng.normal(size=shape)
    np.testing.assert_allclose(thomas_solve(A, tridiagonal_matvec(A, X)), X,
                               rtol=0, atol=1e-12)


def test_matrix_and_family_store_copies_of_the_callers_bands():
    lower, diag, upper = random_family(np.random.default_rng(15), 5, 2)
    for stored, bands in [
            (TridiagonalMatrix(diag[:, 0], upper[:, 0], lower[:, 0]),
             (diag[:, 0], upper[:, 0], lower[:, 0])),
            (TridiagonalMatrix(diag, upper, lower), (diag, upper, lower))]:
        for mine, theirs in zip((stored.diag, stored.upper, stored.lower),
                                bands):
            assert not mine.flags.writeable and theirs.flags.writeable
            assert not np.shares_memory(mine, theirs)
    before = stored.diag.copy()
    diag[...] = 0.0           # the caller's later writes change no stored band
    np.testing.assert_array_equal(stored.diag, before)


# ---------------------------------------------------------------------------
# solve residual
# ---------------------------------------------------------------------------


def test_residual_of_exact_solution_is_tiny():
    rng = np.random.default_rng(3)
    A = random_dominant(rng, 50)
    f = rng.normal(size=50)
    x = thomas_solve(A, f)
    assert np.linalg.norm(tridiagonal_matvec(A, x) - f) \
        <= 1e-12 * np.linalg.norm(f)


def test_dominance_flag():
    assert TridiagonalMatrix.constant(5, -1.0, 2.5, -1.0).is_diagonally_dominant()
    assert TridiagonalMatrix.constant(5, -1.0, 2.0, -1.0).is_diagonally_dominant()
    assert not TridiagonalMatrix.constant(5, -1.0, 1.5, -1.0).is_diagonally_dominant()
    # equality in every row (no strict row) is not dominant
    A = TridiagonalMatrix(np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0]),
                          np.array([1.0, 1.0]))
    assert not A.is_diagonally_dominant()
