"""Acceptance suite: one test per shipping criterion, each run at its stated
tolerance.  The ``pytest -v`` row of every test is the per-criterion
pass/fail line; each test also prints its measured figure of merit.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from axisolver.acoustic import (LaguerreParams, MediumModel, Wavelet,
                                reconstruct, snapshot_field,
                                solve_all_harmonics)
from axisolver.cli import main as cli_main
from axisolver.comm import CommWorld, reduce_schedule
from axisolver.dichotomy import (Partition, build_plan, predict_time_cyclic,
                                 predict_time_dichotomy, solve_many)
from axisolver.elliptic import (CoefficientFields, Grid2D, assemble,
                                manufactured_problem, weighted_source)
from axisolver.fourier import dct_forward, dct_inverse
from axisolver.iterative import pcg_solve
from axisolver.laguerre import (laguerre_function_table, project_source,
                                reconstruct_signal)
from axisolver.sov import SovPreconditioner
from axisolver.tridiag import TridiagonalMatrix

from recorded_traffic import record_sends, split_levels
from wavefront_utils import front_radius_along_axis, prearrival_ratio


def random_dominant(rng, n):
    upper = rng.uniform(-1.0, 1.0, size=n - 1)
    lower = rng.uniform(-1.0, 1.0, size=n - 1)
    mag = np.zeros(n)
    mag[:-1] += np.abs(upper)
    mag[1:] += np.abs(lower)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    diag = sign * (mag + rng.uniform(0.1, 1.0, size=n))
    return TridiagonalMatrix(diag, upper, lower)


# ---------------------------------------------------------------------------
# 1. distributed tridiagonal solves match dense solves
# ---------------------------------------------------------------------------


def test_criterion_01_dichotomy_oracle_200_random_systems():
    rng = np.random.default_rng(2026)
    choices = (1, 2, 4, 7, 8, 16)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 513))
        p = int(rng.choice([q for q in choices if q <= n // 2]))
        A = random_dominant(rng, n)
        plan = build_plan(A, Partition.balanced(n, p), CommWorld(p))
        f = rng.normal(size=n)
        x = solve_many(plan, f, executor="sim")
        x_dense = np.linalg.solve(A.to_dense(), f)
        rel = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
        worst = max(worst, rel)
        assert rel <= 1e-10, (n, p, rel)
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(f"criterion 1: worst relative error {worst:.3e} over 200 systems "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. seven-rank splitting protocol structure
# ---------------------------------------------------------------------------


def test_criterion_02_p7_protocol_structure(monkeypatch):
    rng = np.random.default_rng(7)
    n = 28
    A = random_dominant(rng, n)
    plan = build_plan(A, Partition.balanced(n, 7), CommWorld(7))
    sent = record_sends(monkeypatch)
    f = rng.normal(size=n)
    x = solve_many(plan, f, executor="sim")
    assert np.linalg.norm(x - np.linalg.solve(A.to_dense(), f)) <= 1e-10 * \
        np.linalg.norm(x)

    # with one rhs a middle corrects each neighbour with 1 scalar and every
    # reduce contribution carries the weighted boundary pair, 2 scalars
    assert {size for _, _, size in sent} == {1, 2}
    level_of = split_levels(sent, 7, size=1)
    levels = sorted(set(level_of.values()))
    assert levels == [1, 2, 3]
    middles = {s: sorted(r for r in level_of if level_of[r] == s)
               for s in levels}
    assert middles == {1: [4], 2: [2, 6], 3: [1, 3, 5, 7]}
    corrections = sorted((r, d) for r, d, size in sent if size == 1)
    assert corrections == [(m, m + side) for m in (2, 4, 6) for side in (-1, 1)]
    # at level 1 the ranks beside the pivot send their boundary pairs into it
    assert sorted(m for m in sent if m[0] in (3, 5) and m[1] == 4) == \
        [(3, 4, 2), (5, 4, 2)]
    print("criterion 2: recorded messages show levels [1,2,3], middles "
          "{1:[4], 2:[2,6], 3:[1,3,5,7]} and boundary pairs into the pivot")


# ---------------------------------------------------------------------------
# 3. communication cost models
# ---------------------------------------------------------------------------


def test_criterion_03_cost_model_arithmetic():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        p = int(2 ** rng.integers(1, 11))
        l = float(rng.uniform(1.0, 4096.0))
        a, b, g = rng.uniform(1e-7, 1e-3, size=3)
        lg = math.log2(p)
        dich = a * (lg + 1) * lg + 2 * l * (lg - (p - 1) / p) * (g + b / 2)
        cyc = 2 * lg * (a + l * b + l * g)
        rel1 = abs(predict_time_dichotomy(p, l, a, b, g) - dich) / dich
        rel2 = abs(predict_time_cyclic(p, l, a, b, g) - cyc) / cyc
        worst = max(worst, rel1, rel2)
        assert rel1 <= 1e-12 and rel2 <= 1e-12

    for p in (2, 4, 8, 16):
        n = 8 * p
        plan = build_plan(TridiagonalMatrix.constant(n, -1.0, 4.0, -1.0),
                          Partition.balanced(n, p), CommWorld(p))
        assert plan.depth == int(math.log2(p))
        assert len(reduce_schedule(list(range(1, p + 1)), 1)) == \
            int(math.log2(p))
    print(f"criterion 3: model mismatch {worst:.2e} (<= 1e-12); "
          "reduce levels equal log2(p) for p in {2,4,8,16}")


# ---------------------------------------------------------------------------
# 4. separable preconditioner exactness
# ---------------------------------------------------------------------------


def test_criterion_04_sov_exactness():
    rng = np.random.default_rng(4)
    worst = 0.0
    for nr, nz in ((17, 16), (65, 64), (129, 128), (257, 256)):
        grid = Grid2D(nr, nz, 1.8, 1.3)
        pre = SovPreconditioner(grid, 1.37, 0.52)
        f = rng.standard_normal(grid.unknown_shape)
        back = pre.apply(pre.apply_inverse(f))
        rel = np.linalg.norm(back - f) / np.linalg.norm(f)
        worst = max(worst, rel)
        assert rel <= 1e-10, (nr, nz, rel)

    grid = Grid2D(13, 12, 1.0, 1.0)
    pre = SovPreconditioner(grid, 0.9, 0.3)
    size = grid.unknown_shape[0] * grid.unknown_shape[1]
    dense = np.empty((size, size))
    eye = np.eye(size)
    for j in range(size):
        dense[:, j] = pre.apply(eye[:, j].reshape(grid.unknown_shape)).ravel()
    f = rng.standard_normal(size)
    x_direct = pre.apply_inverse(f.reshape(grid.unknown_shape)).ravel()
    x_dense = np.linalg.solve(dense, f)
    rel_dense = np.linalg.norm(x_direct - x_dense) / np.linalg.norm(x_dense)
    assert rel_dense <= 1e-10

    worst_dct = 0.0
    for nz in (8, 64, 100, 256):
        x = rng.standard_normal((nz, 7))
        rel = np.linalg.norm(dct_inverse(dct_forward(x), nz) - x) / \
            np.linalg.norm(x)
        worst_dct = max(worst_dct, rel)
        assert rel <= 1e-12
    print(f"criterion 4: inverse round trip {worst:.2e} up to 256x256, "
          f"dense 12x12 agreement {rel_dense:.2e}, "
          f"transform round trip {worst_dct:.2e}")


# ---------------------------------------------------------------------------
# 5. manufactured-solution convergence order
# ---------------------------------------------------------------------------


def _variable_fields(grid):
    return CoefficientFields(
        lambda r, z: 1.0 + 0.5 * np.sin(np.pi * r / 1.8)
        * np.cos(np.pi * z / 1.3),
        lambda r, z: 0.4 * (1.0 + 0.0 * r) + 0.3 * np.cos(np.pi * z / 1.3))


def test_criterion_05_manufactured_convergence_order():
    exact = (lambda r, z: np.cos(0.5 * np.pi * r / 1.8)
             * np.cos(np.pi * z / 1.3))
    started = time.perf_counter()
    errors = []
    for n in (64, 128, 256):
        grid = Grid2D(n + 1, n, 1.8, 1.3)
        op, rhs, exact_nodes = manufactured_problem(grid, exact,
                                                    _variable_fields(grid))
        pre = SovPreconditioner.from_operator(op)
        x, _ = pcg_solve(op.apply_spd, pre.apply_inverse, rhs, tol=1e-12)
        diff = x.reshape(grid.unknown_shape) - exact_nodes
        errors.append(float(np.sqrt(np.mean(diff ** 2))))
    elapsed = time.perf_counter() - started
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    assert 3.5 <= r1 <= 5.5 and 3.5 <= r2 <= 5.5, errors
    assert elapsed <= 120.0
    print(f"criterion 5: error ratios {r1:.2f}, {r2:.2f} "
          f"(target [3.5, 5.5]) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. mesh-independent preconditioner work
# ---------------------------------------------------------------------------


def test_criterion_06_mesh_independent_inversion_count():
    counts = []
    for n in (64, 128, 256):
        grid = Grid2D(n + 1, n, 950.0, 950.0)
        fields = CoefficientFields(
            lambda r, z: 1.5 + 0.45 * np.sin(np.pi * r / 950.0)
            * np.cos(np.pi * z / 950.0),
            lambda r, z: np.zeros(np.shape(r)))
        op = assemble(grid, fields)
        rhs = weighted_source(grid, lambda r, z: np.ones(np.shape(r)))
        pre = SovPreconditioner.from_operator(op)
        _, report = pcg_solve(op.apply_spd, pre.apply_inverse, rhs,
                              tol=1e-10)
        counts.append(report.binv_applications)
    spread = (max(counts) - min(counts)) / min(counts)
    assert spread <= 0.15, counts
    print(f"criterion 6: inversion counts {counts}, spread {spread:.1%} "
          "(<= 15%)")


# ---------------------------------------------------------------------------
# 7. spectral-time machinery
# ---------------------------------------------------------------------------


def test_criterion_07_laguerre_machinery():
    x, w = np.polynomial.legendre.leggauss(2000)
    pts = 210.0 * (x + 1.0)
    wts = 210.0 * w
    table = laguerre_function_table(50, 5.0, pts)
    gram = (table * wts[:, None]).T @ table
    gram_err = float(np.abs(gram - np.eye(51)).max())
    assert gram_err <= 1e-8

    h, alpha, n_terms = 300.0, 5, 2000
    wav = Wavelet(f0=30.0, t0=0.2, gamma=4.0)
    assert wav.is_quiescent
    coeffs = project_source(wav, n_terms - 1, alpha, h,
                            t_upper=wav.support_end)
    times = np.linspace(0.0, wav.support_end, 1201)
    back = reconstruct_signal(coeffs, alpha, h, times)
    scale = float(np.abs(wav(times)).max())
    rec_err = float(np.abs(back - wav(times)).max()) / scale
    assert rec_err <= 1e-6

    assert reconstruct_signal(coeffs, alpha, h, np.array([0.0]))[0] == 0.0
    print(f"criterion 7: orthonormality {gram_err:.2e} (<= 1e-8), "
          f"round-trip error {rec_err:.2e} (<= 1e-6), start is exactly zero")


# ---------------------------------------------------------------------------
# 8. acoustic desk run
# ---------------------------------------------------------------------------


def test_criterion_08_acoustic_desk_run():
    speed = 2000.0
    grid = Grid2D(257, 256, 2000.0, 2000.0)
    params = LaguerreParams(h=280.0, alpha=5, n_terms=128)
    wavelet = Wavelet(f0=10.0, t0=0.4, gamma=4.0)
    started = time.perf_counter()
    series = solve_all_harmonics(grid, MediumModel.homogeneous(speed),
                                 params, wavelet, source=(0.0, 0.0))

    t_snap = 0.5
    field = snapshot_field(series, t_snap)
    measured = front_radius_along_axis(grid, field)
    expected = speed * (t_snap - wavelet.t0)
    radius_cells = (measured - expected) / grid.dr
    assert abs(measured - expected) <= 2.0 * grid.dr

    times = np.linspace(0.0, 1.2, 601)
    positions = [(300.0, 4.0), (500.0, 4.0), (700.0, 4.0),
                 (500.0, 500.0), (200.0, 640.0), (900.0, 4.0)]
    traces = reconstruct(series, times, positions)
    k0, i0 = grid.nearest_node(0.0, 0.0)
    src = (grid.r_nodes[i0], grid.z_nodes[k0])
    worst = 0.0
    for j, (r, z) in enumerate(positions):
        k, i = grid.nearest_node(r, z)
        d = math.hypot(grid.r_nodes[i] - src[0], grid.z_nodes[k] - src[1])
        ratio = prearrival_ratio(times, traces[:, j], d / speed)
        worst = max(worst, ratio)
        assert ratio <= 1e-4, (r, z, ratio)
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0
    print(f"criterion 8: front offset {radius_cells:+.2f} cells (|.| <= 2), "
          f"worst pre-arrival ratio {worst:.2e} (<= 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_09_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""\
[grid]
nr = 65
nz = 64
rmax = 2000.0
zmax = 2000.0
[laguerre]
n_terms = 32
[receivers]
times = 0.0, 1.0, 101
[snapshot]
t = 0.5
""", encoding="ascii")
    out = tmp_path / "out"
    assert cli_main(["acoustic", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    first = {name: (out / name).read_bytes() for name in names}
    assert cli_main(["acoustic", "--config", str(cfg), "--out", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name

    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(8, 513))
        p = int(rng.choice([q for q in (2, 4, 7, 8) if q <= n // 2]))
        A = random_dominant(rng, n)
        B = rng.normal(size=(n, 3))
        plan = build_plan(A, Partition.balanced(n, p), CommWorld(p))
        x_sim = solve_many(plan, B, executor="sim")
        x_thr = solve_many(plan, B, executor="threads")
        assert np.array_equal(x_sim, x_thr), (n, p)
    print("criterion 9: repeated sim run byte-identical; sim and threaded "
          "solves bit-for-bit equal on 10 random systems")


# ---------------------------------------------------------------------------
# 10. threaded speedup (needs real cores)
# ---------------------------------------------------------------------------


def test_criterion_10_threaded_speedup(tmp_path):
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"criterion 10 needs a 4-core host, found {cores} "
                    "core(s); the threaded path itself is exercised by "
                    "criterion 9")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[bench]\nranks = 1, 4\nn = 1048576\nbatch = 32\n"
                   "repeats = 3\n", encoding="ascii")
    out = tmp_path / "out"
    assert cli_main(["bench", "--config", str(cfg), "--out", str(out),
                     "--executor", "threads"]) == 0
    rows = (out / "bench.csv").read_text().splitlines()[1:]
    table = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert table[4] >= 2.0, table
    print(f"criterion 10: speedup at 4 ranks {table[4]:.2f} (>= 2.0)")
