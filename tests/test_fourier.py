"""Tests for axisolver.fourier: the half-sample cosine pair on numpy's real
FFT.

Oracle policy: the fast cosine transforms, at power-of-two and other
lengths, are checked against scipy's unnormalized DCT-II and DCT-III scaled
by 1/sqrt(2N) (themselves checked against hand-built cosine sums), and
frozen single-mode coefficients follow from the closed-form column norms
sum_k cos^2(pi (k+1/2) l / N) = N/2 for l >= 1 (and N for l = 0).  The fast
pair keeps its coefficients in the real FFT's slot layout and the oracles
in natural mode order; :func:`slots` below maps the one onto the other,
written from the layout's definition, not from ``spectral_modes``.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct

from axisolver.errors import DimensionMismatch
from axisolver.fourier import dct_forward, dct_inverse, spectral_modes


def dct_forward_direct(x, axis=-1):
    """The analysis in natural mode order: scipy's DCT-II over sqrt(2N)."""
    return dct(x, type=2, axis=axis) / np.sqrt(2.0 * np.shape(x)[axis])


def dct_inverse_direct(X, axis=-1):
    """The synthesis from natural mode order: scipy's DCT-III over
    sqrt(2N)."""
    return dct(X, type=3, axis=axis) / np.sqrt(2.0 * np.shape(X)[axis])


def slots(X, axis=-1):
    """Natural-order coefficients X[0..N-1] along ``axis`` in the slot
    layout of ``dct_forward``: slot 2k holds X[k], slot 2k + 1 holds
    -X[N-k] with X[N] = 0, for k = 0..N//2."""
    Xm = np.moveaxis(np.asarray(X, dtype=np.float64), axis, -1)
    n = Xm.shape[-1]
    padded = np.concatenate([Xm, np.zeros(Xm.shape[:-1] + (1,))], axis=-1)
    out = np.empty(Xm.shape[:-1] + (2 * (n // 2 + 1),))
    for k in range(n // 2 + 1):
        out[..., 2 * k] = padded[..., k]
        out[..., 2 * k + 1] = -padded[..., n - k]
    return np.moveaxis(out, -1, axis)


def test_direct_forward_matches_hand_sum():
    rng = np.random.default_rng(3)
    n = 7
    x = rng.standard_normal(n)
    k = np.arange(n)
    expect = np.array([
        np.sqrt(2.0 / n) * np.sum(x * np.cos(np.pi * (k + 0.5) * l / n))
        for l in range(n)])
    np.testing.assert_allclose(dct_forward_direct(x, axis=-1), expect,
                               rtol=1e-13, atol=1e-14)


def test_direct_inverse_matches_hand_sum():
    rng = np.random.default_rng(4)
    n = 6
    X = rng.standard_normal(n)
    k = np.arange(n)
    expect = np.array([
        np.sqrt(2.0 / n) * (0.5 * X[0] + np.sum(
            X[1:] * np.cos(np.pi * (kk + 0.5) * np.arange(1, n) / n)))
        for kk in k])
    np.testing.assert_allclose(dct_inverse_direct(X, axis=-1), expect,
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 16, 63, 128, 255, 256])
def test_fast_forward_matches_direct(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((5, n))
    np.testing.assert_allclose(dct_forward(x, axis=-1),
                               slots(dct_forward_direct(x, axis=-1)),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 16, 63, 128, 255, 256])
def test_fast_inverse_matches_direct(n):
    rng = np.random.default_rng(n + 1)
    X = rng.standard_normal((5, n))
    np.testing.assert_allclose(dct_inverse(slots(X), n, axis=-1),
                               dct_inverse_direct(X, axis=-1),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [4, 16, 256, 12, 20])
def test_round_trip_identity(n):
    rng = np.random.default_rng(n + 2)
    x = rng.standard_normal((3, n))
    back = dct_inverse(dct_forward(x, axis=-1), n, axis=-1)
    assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def test_single_mode_analysis_frozen_coefficients():
    # analytic column norms: the constant mode carries sqrt(2 N), every
    # higher mode sqrt(N/2); off-mode coefficients vanish by orthogonality
    n = 32
    k = np.arange(n)
    X0 = dct_forward(np.ones(n), axis=-1)
    assert X0[0] == pytest.approx(np.sqrt(2.0 * n), rel=1e-14)
    assert np.abs(X0[1:]).max() <= 1e-13
    x3 = np.cos(np.pi * (k + 0.5) * 3 / n)
    X3 = dct_forward(x3, axis=-1)
    mode3 = slots(np.eye(n)[3]) != 0.0
    assert X3[mode3].item() == pytest.approx(np.sqrt(n / 2.0), rel=1e-14)
    assert np.abs(X3[~mode3]).max() <= 1e-13


def test_transform_along_axis_zero_matches_transpose():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((16, 7))
    np.testing.assert_allclose(dct_forward(x, axis=0),
                               dct_forward(x.T, axis=-1).T,
                               rtol=0, atol=1e-13)
    X = slots(rng.standard_normal((16, 7)), axis=0)
    np.testing.assert_allclose(dct_inverse(X, 16, axis=0),
                               dct_inverse(X.T, 16, axis=-1).T,
                               rtol=0, atol=1e-13)


def _layouts(a):
    """``a`` as a C-contiguous array, an F-contiguous one (the transposed
    mode solve the preconditioner feeds back) and a strided view."""
    padded = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    padded[::2, ::3] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": padded[::2, ::3]}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 255, 256])
def test_axis_zero_matches_direct_in_every_layout(n, layout):
    rng = np.random.default_rng(10 * n + len(layout))
    x = _layouts(rng.standard_normal((n, 7)))[layout]
    np.testing.assert_allclose(dct_forward(x, axis=0),
                               slots(dct_forward_direct(x, axis=0), axis=0),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        dct_inverse(_layouts(slots(x, axis=0))[layout], n, axis=0),
        dct_inverse_direct(x, axis=0), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64])
def test_three_dimensional_batch_along_middle_axis(n):
    rng = np.random.default_rng(n + 20)
    x = rng.standard_normal((3, n, 8))
    np.testing.assert_allclose(dct_forward(x, axis=1),
                               slots(dct_forward_direct(x, axis=1), axis=1),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dct_inverse(slots(x, axis=1), n, axis=1),
                               dct_inverse_direct(x, axis=1),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1, 2, -2])
@pytest.mark.parametrize("n", [7, 8])
def test_axis_handling_is_layout_only(n, axis):
    # along any axis both transforms are, bit for bit, the last-axis
    # transforms of the array with that axis moved last; the coefficients
    # come back with ``axis`` innermost in memory, the samples C-ordered
    rng = np.random.default_rng(40 + n)
    shape = [3, 5, 4]
    shape[axis] = n
    x = rng.standard_normal(shape)
    c = dct_forward(x, axis=axis)
    last = dct_forward(np.moveaxis(x, axis, -1), axis=-1)
    assert np.moveaxis(c, axis, -1).tobytes() == last.tobytes()
    assert c.strides[axis] == c.itemsize
    y = dct_inverse(c, n, axis=axis)
    assert np.moveaxis(y, axis, -1).tobytes() == \
        dct_inverse(last, n, axis=-1).tobytes()
    assert y.flags.c_contiguous


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_transforms_leave_their_input_unchanged(axis):
    # 16 and 10 slots serve n = 14, 15 and n = 8, 9; in one of the two
    # orders the slots are contiguous and the inverse reads them in place
    rng = np.random.default_rng(11)
    for order in ("C", "F"):
        x = np.asarray(rng.standard_normal((16, 10)), order=order)
        kept = x.copy()
        dct_forward(x, axis=axis)
        np.testing.assert_array_equal(x, kept)
        for n in (x.shape[axis] - 2, x.shape[axis] - 1):
            dct_inverse(x, n, axis=axis)
            np.testing.assert_array_equal(x, kept)


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 255, 256])
def test_slot_layout_contract(n):
    rng = np.random.default_rng(n + 30)
    x = rng.standard_normal((5, n))
    c = dct_forward(x, axis=-1)
    assert c.shape == (5, 2 * (n // 2 + 1))
    assert np.all(c[:, 1] == 0.0)
    if n % 2 == 0:
        np.testing.assert_array_equal(c[:, n + 1], -c[:, n])
    modes = spectral_modes(n)
    assert modes.shape == (2 * (n // 2 + 1),) and modes[1] == n
    assert sorted(set(modes[modes < n].tolist())) == list(range(n))
    # slot j carries mode modes[j]: + on even slots, - on odd ones
    direct = np.concatenate([dct_forward_direct(x, axis=-1),
                             np.zeros((5, 1))], axis=-1)
    sign = np.where(np.arange(modes.size) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(c, sign * direct[:, modes],
                               rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        dct_inverse(c[:, :-2], n, axis=-1)
    with pytest.raises(DimensionMismatch):
        dct_inverse(np.zeros((5, c.shape[1] + 1)), n, axis=-1)
    with pytest.raises(DimensionMismatch):
        dct_inverse(c, n + 2, axis=-1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(0, 2 ** 31 - 1))
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=n)
    back = dct_inverse(dct_forward(x, axis=-1), n, axis=-1)
    assert np.abs(back - x).max() <= 1e-11 * max(1.0, np.abs(x).max())


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([4, 8, 16, 32]), st.integers(0, 2 ** 31 - 1))
def test_forward_is_linear(n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n))
    a, b = rng.uniform(-3, 3, size=2)
    lhs = dct_forward(a * x + b * y, axis=-1)
    rhs = a * dct_forward(x, axis=-1) + b * dct_forward(y, axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_fast_path_overhead_bounded():
    # the cosine analysis is one real FFT plus O(N) bookkeeping; its cost
    # must stay within 2.5x of the raw transform it wraps
    n = 2 ** 16
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    dct_forward(x, axis=-1)          # warm caches
    np.fft.rfft(x)

    def best(fn, repeats=7):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_dct = best(lambda: dct_forward(x, axis=-1))
    t_fft = best(lambda: np.fft.rfft(x))
    assert t_dct <= 2.5 * t_fft, f"dct {t_dct:.4f}s vs fft {t_fft:.4f}s"
