"""Command-line interface tests: exit codes, artifact formats, determinism.

Each test drives :func:`axisolver.cli.main` in-process with a temporary
output directory; one test exercises the ``python -m`` entry point end to
end in a subprocess.
"""

import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axisolver
from axisolver import acoustic, cli, config
from axisolver.cli import main
from axisolver.elliptic import Grid2D, read_field_raw, write_field_text
from axisolver.errors import DomainError
from axisolver.sov import SovPreconditioner


def run_cli(*argv):
    return main(list(argv))


def write_cfg(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def report_value(outdir, key):
    for line in (outdir / "report.txt").read_text().splitlines():
        k, _, v = line.partition(" = ")
        if k == key:
            return v
    raise KeyError(key)


SMALL_GRID = "[grid]\nnr = 33\nnz = 32\nrmax = 950.0\nzmax = 950.0\n"


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------


def test_poisson_manufactured_residual(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID)
    out = tmp_path / "out"
    assert run_cli("poisson", "--config", cfg, "--out", str(out)) == 0
    assert float(report_value(out, "relative_residual")) <= 1e-10
    grid, field = read_field_raw(out / "solution.raw")
    assert (grid.nr, grid.nz) == (33, 32)
    assert np.all(field[:, -1] == 0.0)  # wall column
    assert np.abs(field).max() > 0.0


def test_poisson_zero_rhs_zero_field(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + "[rhs]\nkind = zero\n")
    out = tmp_path / "out"
    assert run_cli("poisson", "--config", cfg, "--out", str(out)) == 0
    _, field = read_field_raw(out / "solution.raw")
    assert np.all(field == 0.0)
    assert float(report_value(out, "relative_residual")) == 0.0


def test_poisson_rhs_file_grid_mismatch_exits_2(tmp_path, capsys):
    other = Grid2D(17, 16, 950.0, 950.0)
    write_field_text(tmp_path / "rhs.txt", other,
                     np.ones((other.nz, other.nr)))
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID
                    + f"[rhs]\nkind = file\npath = {tmp_path / 'rhs.txt'}\n")
    assert run_cli("poisson", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert "does not match" in capsys.readouterr().err


def test_poisson_rhs_file_on_the_run_grid(tmp_path):
    # a panel of ones read from a file samples to ones, so it poses the
    # uniform source of 1, and the run solves the same system
    grid = Grid2D(33, 32, 950.0, 950.0)
    write_field_text(tmp_path / "rhs.txt", grid, np.ones((grid.nz, grid.nr)))
    fields = []
    for rhs in (f"kind = file\npath = {tmp_path / 'rhs.txt'}\n",
                "kind = uniform\nvalue = 1.0\n"):
        cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + "[rhs]\n" + rhs)
        out = tmp_path / f"out{len(fields)}"
        assert run_cli("poisson", "--config", cfg, "--out", str(out)) == 0
        assert float(report_value(out, "relative_residual")) <= 1e-10
        fields.append(read_field_raw(out / "solution.raw")[1])
    from_file, uniform = fields
    assert np.abs(uniform).max() > 0.0
    assert from_file.tobytes() == uniform.tobytes()


def test_poisson_distributed_ranks(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID)
    out = tmp_path / "out"
    assert run_cli("poisson", "--config", cfg, "--out", str(out),
                   "--ranks", "4") == 0
    assert float(report_value(out, "relative_residual")) <= 1e-10


def test_worker_thread_that_cannot_start_exits_3(tmp_path, capsys,
                                                 monkeypatch):
    def start(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", start)
    out = tmp_path / "out"
    assert run_cli("elliptic", "--out", str(out), "--ranks", "4",
                   "--executor", "threads") == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert "can't start new thread" in err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_key_and_section_exit_2(tmp_path, capsys):
    bad_key = write_cfg(tmp_path / "a.cfg", "[solver]\ntoll = 1e-8\n")
    assert run_cli("poisson", "--config", bad_key,
                   "--out", str(tmp_path / "o1")) == 2
    assert "unknown key" in capsys.readouterr().err

    bad_sec = write_cfg(tmp_path / "b.cfg", "[turbo]\nx = 1\n")
    assert run_cli("poisson", "--config", bad_sec,
                   "--out", str(tmp_path / "o2")) == 2

    bad_val = write_cfg(tmp_path / "c.cfg", "[solver]\nmethod = gauss\n")
    assert run_cli("elliptic", "--config", bad_val,
                   "--out", str(tmp_path / "o3")) == 2

    bad_num = write_cfg(tmp_path / "d.cfg", "[grid]\nnr = many\n")
    assert run_cli("poisson", "--config", bad_num,
                   "--out", str(tmp_path / "o4")) == 2


def test_unparsable_config_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg", "nr = 33\n")     # no section
    assert run_cli("poisson", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: File contains no "
                          f"section headers")


@pytest.mark.parametrize("receivers, message", [
    ("times = 0.0, 1.2, many", "[receivers] times: bad entry"),
    ("times = 0.0, 1.2, 0", "[receivers] times: empty span"),
    ("points = 300:4, r:4", "receiver point 'r:4' is not numeric")])
def test_bad_receiver_entry_exits_2(tmp_path, capsys, receivers, message):
    cfg = write_cfg(tmp_path / "run.cfg", f"[receivers]\n{receivers}\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, message)


def test_missing_model_file_exits_4(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID
                    + "[model]\nkind = files\nkappa_file = /nonexistent.txt\n")
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 4


def test_solver_failure_exits_3(tmp_path, smooth_kappa_file):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + f"""\
[model]
kind = files
kappa_file = {smooth_kappa_file}
[rhs]
kind = uniform
[solver]
maxiter = 2
""")
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 3


COEFFICIENT_GRID = Grid2D(9, 7, 1.0, 1.0)


def coefficient_cfg(tmp_path, model):
    return write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = {COEFFICIENT_GRID.nr}
nz = {COEFFICIENT_GRID.nz}
rmax = {COEFFICIENT_GRID.rmax}
zmax = {COEFFICIENT_GRID.zmax}
[model]
{model}
[rhs]
kind = uniform
""")


def assert_one_line_config_error(capsys, key=""):
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert key in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["poisson", "elliptic"])
@pytest.mark.parametrize("model", [
    "kappa0 = nan", "kappa0 = 0", "kappa0 = -1", "q0 = nan", "q0 = -1"])
def test_bad_constant_coefficient_exits_2(tmp_path, capsys, command, model):
    cfg = coefficient_cfg(tmp_path, model)
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys)


@pytest.mark.parametrize("command", ["poisson", "elliptic"])
def test_huge_coefficient_gives_a_finite_relative_residual(tmp_path,
                                                           command):
    # |f| near 1e200: its plain sum of squares overflows, its norm does not
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    "rmax = 1.0\nzmax = 1.0\n[model]\nkind = constant\n"
                    "kappa0 = 1e200\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
    assert float(report_value(out, "relative_residual")) <= 1e-10
    if command == "elliptic":
        assert report_value(out, "converged") == "True"
        assert int(report_value(out, "iterations")) >= 1


@pytest.mark.parametrize("model, where", [
    ("kappa0 = 1e300", "kappa at radial faces"), ("q0 = 1e300", "reaction")])
def test_weighted_coefficient_beyond_the_float_range_exits_2(
        tmp_path, capsys, model, where):
    # r * kappa or r * q near the wall of a 1e150-wide grid overflows,
    # while dr**2 stays in range
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 9
nz = 8
rmax = 1e150
zmax = 1.0
[model]
{model}
[rhs]
kind = uniform
""")
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, where)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["poisson", "elliptic"])
@pytest.mark.parametrize("extents, spacing", [
    ("rmax = 1e200\nzmax = 1.0", "dr"), ("rmax = 1.0\nzmax = 1e-170", "dz")])
def test_grid_spacing_squared_beyond_the_float_range_exits_2(
        tmp_path, capsys, command, extents, spacing):
    # dr**2 overflows on a 1e200-wide grid, dz**2 underflows to 0 on a
    # 1e-170-deep one, with coefficients that stay in range
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 9
nz = 8
{extents}
[model]
kappa0 = 1
[rhs]
kind = uniform
""")
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, f"grid spacing {spacing} = ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extent, spacing", [
    ("rmax = 5e-324", "dr"), ("zmax = 1e308", "dz"), ("zmax = 5e-324", "dz")])
def test_grid_refuses_its_spacing_before_the_manufactured_solution(
        tmp_path, capsys, extent, spacing):
    # the default elliptic run samples a manufactured solution on the grid:
    # a zero dr (subnormal rmax) would fail its boundary check as a solver
    # error, and a dz of 1.25e307 or 0 would warn while sampling
    cfg = write_cfg(tmp_path / "run.cfg",
                    f"[grid]\nnr = 9\nnz = 8\n{extent}\n")
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, f"grid spacing {spacing} = ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nr, nz", [(9, 8), (17, 16), (33, 32)])
@pytest.mark.parametrize("shape", ["wide", "shallow"])
def test_spacing_ratio_beyond_the_preconditioner_bound_exits_2(
        tmp_path, capsys, nr, nz, shape):
    # with no reaction, the rounding the preconditioner leaves in mode 0
    # can outweigh its answer (SovPreconditioner.rounding_ratio > 1) once
    # dr/dz passes 1/(2 eps sqrt(nu (nu + 1/2))): at 10 times that PCG
    # stalled (exit 3) on every one of these grids, at 0.9 times it
    # converges, the direct poisson solve keeps its residual either way,
    # and a reaction stiffens mode 0 enough to lift the bound
    nu = nr - 1
    limit = 0.5 / np.finfo(np.float64).eps / math.sqrt(nu * (nu + 0.5))
    grid = Grid2D(nr, nz, 950.0, 950.0)
    outcomes = []
    for share, q0 in ((0.9, 0.0), (1.1, 0.0), (10.0, 0.0), (10.0, 1.0)):
        ratio = share * limit
        extents = ((ratio * grid.dz * (nr - 0.5), 950.0) if shape == "wide"
                   else (950.0, grid.dr / ratio * nz))
        cfg = write_cfg(tmp_path / "run.cfg", f"[grid]\nnr = {nr}\nnz = {nz}"
                        f"\nrmax = {float(extents[0])!r}\nzmax = "
                        f"{float(extents[1])!r}\n[model]\nq0 = {q0!r}\n")
        out = tmp_path / f"out{share}_{q0}"
        code = run_cli("elliptic", "--config", cfg, "--out", str(out))
        if code == 0:
            outcomes.append(report_value(out, "converged"))
            continue
        outcomes.append(code)
        assert_one_line_config_error(capsys, "[grid] rmax = ")
        assert run_cli("poisson", "--config", cfg, "--out", str(out)) == 0
        assert float(report_value(out, "relative_residual")) <= 1e-12
    assert outcomes == ["True", 2, 2, "True"]


@pytest.mark.parametrize("nr, nz", [(9, 8), (17, 16), (33, 32)])
def test_tall_grids_stay_inside_the_spacing_ratio_bound(tmp_path, nr, nz):
    # on a tall grid mode 0 is no softer than the others: a 1e20 m depth
    # keeps dr/dz far inside the bound and the constant-coefficient
    # solve takes one iteration
    cfg = write_cfg(tmp_path / "run.cfg", f"[grid]\nnr = {nr}\nnz = {nz}\n"
                    "rmax = 950.0\nzmax = 1e20\n")
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
    assert report_value(out, "iterations") == "1"


@pytest.mark.parametrize("key, entry", [
    ("kappa_file", 0.0), ("kappa_file", -1.0), ("kappa_file", np.nan),
    ("reaction_file", -1.0)])
def test_bad_coefficient_panel_exits_2(tmp_path, capsys, key, entry):
    g = COEFFICIENT_GRID
    panels = {"kappa_file": np.ones((g.nz, g.nr)),
              "reaction_file": np.zeros((g.nz, g.nr))}
    panels[key][3, 4] = entry            # an interior node of the run grid
    lines = ["kind = files"]
    for name, values in panels.items():
        write_field_text(tmp_path / f"{name}.txt", g, values)
        lines.append(f"{name} = {tmp_path / f'{name}.txt'}")
    cfg = coefficient_cfg(tmp_path, "\n".join(lines))
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys)


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smooth_kappa_file(tmp_path_factory):
    """Smooth diffusion panel in [1, 2] on a coarse master grid; resampled
    by the CLI so every resolution solves the same physical problem."""
    grid = Grid2D(33, 32, 950.0, 950.0)
    r = np.broadcast_to(grid.r_nodes[None, :], (grid.nz, grid.nr))
    z = np.broadcast_to(grid.z_nodes[:, None], (grid.nz, grid.nr))
    kappa = (1.5 + 0.45 * np.sin(np.pi * r / grid.rmax)
             * np.cos(np.pi * z / grid.zmax))
    path = tmp_path_factory.mktemp("model") / "kappa.txt"
    write_field_text(path, grid, kappa)
    return str(path)


def elliptic_cfg(kappa_file, n):
    return f"""\
[grid]
nr = {n + 1}
nz = {n}
rmax = 950.0
zmax = 950.0
[model]
kind = files
kappa_file = {kappa_file}
[rhs]
kind = uniform
"""


def test_elliptic_iteration_count_is_mesh_independent(tmp_path,
                                                      smooth_kappa_file):
    counts = []
    for n in (64, 128):
        cfg = write_cfg(tmp_path / f"run{n}.cfg",
                        elliptic_cfg(smooth_kappa_file, n))
        out = tmp_path / f"out{n}"
        assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
        assert report_value(out, "converged") == "True"
        counts.append(int(report_value(out, "iterations")))
    assert abs(counts[1] - counts[0]) <= 0.15 * counts[0], counts


def test_elliptic_constant_coefficients_converge_fast(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + """\
[model]
kind = constant
kappa0 = 1.7
[rhs]
kind = uniform
""")
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
    assert int(report_value(out, "iterations")) <= 2
    assert float(report_value(out, "relative_residual")) <= 1e-10


def test_elliptic_tolerance_honored(tmp_path, smooth_kappa_file):
    cfg = write_cfg(tmp_path / "run.cfg", elliptic_cfg(smooth_kappa_file, 32))
    tight, loose = tmp_path / "tight", tmp_path / "loose"
    assert run_cli("elliptic", "--config", cfg, "--out", str(tight)) == 0
    assert run_cli("elliptic", "--config", cfg, "--out", str(loose),
                   "--tol", "1e-6") == 0
    assert float(report_value(tight, "relative_residual")) <= 1e-10
    assert float(report_value(loose, "relative_residual")) <= 1e-6
    assert (int(report_value(loose, "iterations"))
            < int(report_value(tight, "iterations")))


TINY_CONSTANT = """\
[grid]
nr = 9
nz = 4
[model]
kind = constant
[solver]
maxiter = 3
"""


@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
def test_tol_that_is_not_finite_and_positive_exits_2(tmp_path, capsys, tol):
    # from the config key and from --tol alike: a configuration error, not
    # a run to maxiter that ends in a solver failure
    for i, (text, flags) in enumerate([
            (TINY_CONSTANT + f"tol = {tol}\n", []),
            (TINY_CONSTANT, [f"--tol={tol}"])]):
        cfg = write_cfg(tmp_path / f"run{i}.cfg", text)
        assert run_cli("elliptic", "--config", cfg,
                       "--out", str(tmp_path / f"out{i}"), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "tol" in err
        assert err.count("\n") == 1


def test_elliptic_chebyshev_method(tmp_path, smooth_kappa_file):
    cfg = write_cfg(tmp_path / "run.cfg",
                    elliptic_cfg(smooth_kappa_file, 32)
                    + "[solver]\nmethod = chebyshev\n")
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
    assert report_value(out, "converged") == "True"
    assert float(report_value(out, "relative_residual")) <= 1e-10


@pytest.fixture(scope="module")
def layered_files(tmp_path_factory):
    """A 33x32 kappa panel with a smooth part and a jump below z = 500, and
    a reaction panel that is zero above z = 400."""
    grid = Grid2D(33, 32, 950.0, 950.0)
    r = np.broadcast_to(grid.r_nodes[None, :], (grid.nz, grid.nr))
    z = np.broadcast_to(grid.z_nodes[:, None], (grid.nz, grid.nr))
    kappa = (1.0 + 0.6 * np.cos(np.pi * r / 950.0)
             * np.cos(2.0 * np.pi * z / 950.0) + 0.8 * (z > 500.0))
    folder = tmp_path_factory.mktemp("layered")
    write_field_text(folder / "kappa.txt", grid, kappa)
    write_field_text(folder / "reaction.txt", grid, 2e-5 * (z > 400.0))
    return folder


@pytest.mark.parametrize("ranks", [1, 4])
def test_elliptic_chebyshev_reports_the_inversions_it_makes(
        tmp_path, layered_files, monkeypatch, ranks):
    calls = []
    real = SovPreconditioner.apply_inverse

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(SovPreconditioner, "apply_inverse", counted)
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 129
nz = 128
rmax = 950.0
zmax = 950.0
[model]
kind = files
kappa_file = {layered_files / "kappa.txt"}
reaction_file = {layered_files / "reaction.txt"}
[rhs]
kind = uniform
[solver]
method = chebyshev
""")
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out),
                   "--ranks", str(ranks)) == 0
    assert report_value(out, "converged") == "True"
    assert int(report_value(out, "binv_applications")) == len(calls)
    lower, upper = map(float, report_value(out, "spectral_bounds").split(", "))
    assert 0.0 < lower < 1.0 < upper


@pytest.mark.parametrize("maxiter, checks", [
    ("", [1, 8, 16]),
    # step 15 is the first to meet tol; as the last allowed step it is read
    ("maxiter = 15\n", [1, 8, 15]),
], ids=["default", "converges-at-maxiter"])
def test_elliptic_chebyshev_logs_one_row_per_history_entry(
        tmp_path, smooth_kappa_file, monkeypatch, maxiter, checks):
    reports = []
    real = cli.chebyshev_solve

    def recording(*args, **kwargs):
        x, report = real(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(cli, "chebyshev_solve", recording)
    cfg = write_cfg(tmp_path / "run.cfg",
                    elliptic_cfg(smooth_kappa_file, 32)
                    + "[solver]\nmethod = chebyshev\n" + maxiter)
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "iterations.csv").read_text(encoding="ascii").splitlines()
    rows = [line.split(", ") for line in lines[1:]]
    assert [(int(it), float(relres)) for it, relres, _ in rows] \
        == list(reports[0].history)
    assert [it for it, _ in reports[0].history] == checks
    assert report_value(out, "binv_applications") == str(checks[-1])


def test_iteration_log_format(tmp_path, smooth_kappa_file):
    cfg = write_cfg(tmp_path / "run.cfg", elliptic_cfg(smooth_kappa_file, 32))
    out = tmp_path / "out"
    assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "iterations.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "iter, relres, seconds"
    relres_prev = np.inf
    for i, line in enumerate(lines[1:], start=1):
        it, relres, seconds = [part.strip() for part in line.split(",")]
        assert int(it) == i
        assert seconds == "0.000000"  # sim executor: deterministic zero
        relres_prev = float(relres)
    assert relres_prev <= 1e-10


# ---------------------------------------------------------------------------
# acoustic
# ---------------------------------------------------------------------------

ACOUSTIC_SMALL = """\
[grid]
nr = 65
nz = 64
rmax = 2000.0
zmax = 2000.0
[laguerre]
n_terms = 64
[receivers]
points = 0:0, 300:4
times = 0.0, 1.2, 241
"""


def test_acoustic_zero_wavelet_writes_zero_seismograms(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    ACOUSTIC_SMALL + "[source]\namplitude = 0.0\n")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    data = np.loadtxt(out / "seismograms.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 1:] == 0.0)
    assert report_value(out, "binv_applications") == "0"


def test_acoustic_receiver_at_source_peaks_near_activation(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ACOUSTIC_SMALL)
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "seismograms.csv").read_text().splitlines()
    assert lines[0] == "t, u(x1), u(x2)"
    data = np.loadtxt(out / "seismograms.csv", delimiter=",", skiprows=1)
    t_peak = data[np.argmax(np.abs(data[:, 1])), 0]
    assert abs(t_peak - 0.4) <= 0.08  # wavelet is centered at t0 = 0.4


def test_acoustic_fault_model_with_snapshot(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ACOUSTIC_SMALL + """\
[model]
kind = fault
[snapshot]
t = 0.5
""")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    grid, field = read_field_raw(out / "snapshot.raw")
    assert (grid.nr, grid.nz) == (65, 64)
    assert np.abs(field).max() > 0.0
    meta = (out / "snapshot.raw.meta").read_text(encoding="ascii")
    assert "t = 0.5" in meta
    # heterogeneous medium: preconditioner no longer equals the operator
    assert int(report_value(out, "binv_applications")) > 64


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_acoustic_report_names_the_chebyshev_interval(tmp_path, method):
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 17
nz = 16
rmax = 2000.0
zmax = 2000.0
[laguerre]
n_terms = 8
[model]
kind = fault
[solver]
method = {method}
""")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    if method == "pcg":
        with pytest.raises(KeyError):
            report_value(out, "spectral_bounds")
    else:
        lower, upper = map(float,
                           report_value(out, "spectral_bounds").split(", "))
        assert 0.0 < lower < 1.0 < upper


def test_acoustic_determinism_and_config_echo_round_trip(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ACOUSTIC_SMALL + "[snapshot]\nt = 0.5\n")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    artifacts = ["effective.cfg", "report.txt", "seismograms.csv",
                 "snapshot.raw", "snapshot.raw.hdr", "snapshot.raw.meta"]
    first = {name: (out / name).read_bytes() for name in artifacts}

    # identical run into the same directory: byte-identical artifacts
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    for name in artifacts:
        assert (out / name).read_bytes() == first[name], name

    # re-run purely from the echoed effective config (no overrides at all):
    # it records the same output dir, so it must reproduce everything
    assert run_cli("acoustic", "--config", str(out / "effective.cfg")) == 0
    for name in artifacts:
        assert (out / name).read_bytes() == first[name], name


def test_acoustic_large_alpha_never_writes_nan(tmp_path, capsys):
    # alpha = 400 passes validation; (h t)^(alpha/2) alone overflows a double
    cfg = write_cfg(tmp_path / "run.cfg", """\
[grid]
nr = 17
nz = 16
[laguerre]
alpha = 400
n_terms = 16
[receivers]
times = 0.0, 1.2, 11
""")
    out = tmp_path / "out"
    code = run_cli("acoustic", "--config", cfg, "--out", str(out))
    assert code in (0, 3)
    if code == 0:
        data = np.loadtxt(out / "seismograms.csv", delimiter=",", skiprows=1)
        assert data.shape == (11, 4) and np.all(np.isfinite(data))
    else:
        assert capsys.readouterr().err.startswith("solver error:")
        assert not (out / "seismograms.csv").exists()


def test_acoustic_overflowing_weights_fail_before_any_solve(tmp_path, capsys,
                                                          monkeypatch):
    # the weights for receivers up to t = 1.2 at alpha = 400 leave the float
    # range; they depend on [laguerre] and [receivers] only, so the run must
    # stop before the first harmonic solve
    calls = []
    real = acoustic.pcg_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(acoustic, "pcg_solve", counting)
    cfg = write_cfg(tmp_path / "run.cfg", """\
[grid]
nr = 17
nz = 16
[laguerre]
alpha = 400
n_terms = 16
[receivers]
times = 0.0, 1.2, 11
""")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert calls == []
    assert not (out / "seismograms.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("receivers", ["", "times = 0.0, 1e-160, 2\n"])
def test_acoustic_overflowing_laguerre_recurrence_exits_3(tmp_path, capsys,
                                                          receivers):
    # at h = 1e155 the Laguerre recurrence overflows, in the synthesis
    # weights with the default receiver times and in the source projection
    # with these: a one-line solver error either way, with no numpy warning
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 9
nz = 8
[laguerre]
h = 1e155
n_terms = 4
[receivers]
{receivers}""")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert "recurrence magnitude" in err
    assert not (out / "seismograms.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("section, bad, key", [
    ("snapshot", "t = 1e308", "[snapshot] t"),
    ("receivers", "times = 0.0, 1e308, 3", "[receivers] times"),
    ("source", "t0 = 1e308", "[source] t0")])
def test_acoustic_time_beyond_the_float_range_at_h_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, section, bad, key):
    # each time is finite, but h t is not at the default h = 280: a
    # one-line configuration error naming the key, with no numpy warning
    # and no harmonic solve started
    calls = []
    monkeypatch.setattr(acoustic, "pcg_solve",
                        lambda *args, **kwargs: calls.append(1))
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 9
nz = 8
[laguerre]
n_terms = 4
[{section}]
{bad}
""")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, key)
    assert calls == []


# t0 = 0.1 is finite but leaves the wavelet active at t = 0 (README's rule)
@pytest.mark.parametrize("bad", ["f0 = inf", "amplitude = nan", "t0 = 0.1"])
def test_acoustic_non_finite_wavelet_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, bad):
    calls = []
    real = acoustic.pcg_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(acoustic, "pcg_solve", counting)
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
[grid]
nr = 9
nz = 7
[laguerre]
n_terms = 4
[source]
{bad}
""")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert bad.split()[0] in err
    assert calls == []


def _amplitude_run(tmp_path, amplitude, extra=""):
    cfg = write_cfg(tmp_path / f"{amplitude}.cfg", f"""\
[grid]
nr = 17
nz = 16
rmax = 950.0
zmax = 950.0
[laguerre]
n_terms = 8
[source]
amplitude = {amplitude}
{extra}""")
    out = tmp_path / f"out-{amplitude}"
    return run_cli("acoustic", "--config", cfg, "--out", str(out)), out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e200, 1e308])
def test_acoustic_amplitude_beyond_the_square_root_of_the_float_range(
        tmp_path, capsys, amplitude):
    # the squares of such a source overflow; the chain runs on its
    # coefficients scaled by a power of two and scales the harmonics back,
    # so the run writes the unit run's artifacts times the amplitude, with
    # no numpy warning and no solver breakdown
    code, out = _amplitude_run(tmp_path, repr(amplitude))
    assert code == 0 and capsys.readouterr().err == ""
    code, unit = _amplitude_run(tmp_path, "1.0")
    assert code == 0
    data = np.loadtxt(out / "seismograms.csv", delimiter=",", skiprows=1)
    ref = np.loadtxt(unit / "seismograms.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(data)) and np.abs(data[:, 1:]).max() > 0.0
    np.testing.assert_allclose(data[:, 1:] / amplitude, ref[:, 1:],
                               rtol=1e-9, atol=1e-9 * np.abs(ref).max())
    assert float(report_value(out, "tail_energy_ratio")) == pytest.approx(
        float(report_value(unit, "tail_energy_ratio")), rel=1e-9)
    for key in ("binv_applications", "iterations_total"):
        assert report_value(out, key) == report_value(unit, key)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_acoustic_snapshot_beyond_the_raw_float32_range_exits_2(tmp_path,
                                                                capsys):
    # the snapshot payload is float32: a finite field beyond its range is
    # a one-line configuration error, and no snapshot file is written
    code, out = _amplitude_run(tmp_path, "1e200", "[snapshot]\nt = 0.3\n")
    assert code == 2
    assert_one_line_config_error(capsys, "float32")
    assert not (out / "snapshot.raw").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, value", [
    ("poisson", "1e308"), ("elliptic", "1e308"), ("elliptic", "1e200")])
def test_rhs_beyond_the_float_range_exits_2_without_a_warning(
        tmp_path, capsys, command, value):
    # r * 1e308 overflowed in weighted_source; at 1e200 the solver's dots
    # overflowed and PCG broke down (exit 3).  The weighted source names
    # its key, and the solver runs on the rhs scaled by a power of two, so
    # only the float32 solution panel is out of range
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    f"[rhs]\nkind = uniform\nvalue = {value}\n")
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(
        capsys, "[rhs] value" if value == "1e308" else "float32")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_elliptic_solution_beyond_the_float_range_exits_2(tmp_path, capsys):
    # the solve runs on the rhs scaled into [0.5, 1); scaled back, a
    # solution near 1e200 / 1e-200 leaves the float range
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    "[model]\nkind = constant\nkappa0 = 1e-200\n"
                    "[rhs]\nkind = uniform\nvalue = 1e200\n")
    assert run_cli("elliptic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, "the solution leaves the float "
                                 "range")


@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_elliptic_solution_scales_exactly_with_a_power_of_two_rhs(tmp_path,
                                                                   method):
    # the solve runs on the rhs scaled to a largest magnitude in [0.5, 1)
    # and scales the solution back: a rhs 2**40 times larger gives the
    # solution 2**40 times larger, bit for bit, in the same iterations
    runs = []
    for value in ("1.0", repr(2.0 ** 40)):
        cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 17\nnz = 16\n"
                        f"[rhs]\nkind = uniform\nvalue = {value}\n"
                        f"[solver]\nmethod = {method}\n")
        out = tmp_path / f"out-{value}"
        assert run_cli("elliptic", "--config", cfg, "--out", str(out)) == 0
        runs.append((read_field_raw(out / "solution.raw")[1],
                     report_value(out, "iterations")))
    (unit, its), (big, big_its) = runs
    assert big.tobytes() == (unit * 2.0 ** 40).tobytes() and its == big_its


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, name", [
    ("speed = 1e-308", "speed"), ("rho = 1e200", "speed"),
    ("kind = fault\nv_bottom = 5e-324", "v_bottom")])
def test_medium_that_underflows_exits_2_naming_its_key(tmp_path, capsys,
                                                       model, name):
    # (speed / rho)^2 underflowed to 0: assemble refused the zero
    # diffusion as a solver error (exit 3)
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    "[laguerre]\nn_terms = 4\n[model]\n" + model + "\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", ["1e-308", "5e-324"])
def test_acoustic_h_too_small_to_project_the_source_exits_2(tmp_path, capsys,
                                                            h):
    # h t stayed below the float spacing at 1 over the wavelet's support,
    # and the projection failed to converge (exit 3)
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    f"[laguerre]\nn_terms = 4\nh = {h}\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, f"h = {float(h)!r}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", ["1e-4", "1e-10"])
def test_acoustic_small_h_projects_the_source_to_the_rounding_of_its_sums(
        tmp_path, capsys, h):
    # the coefficients are about 4e-7 of the largest sum of term
    # magnitudes, so 1e-10 of them lay below the sums' rounding and no
    # panel count met it (exit 3)
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    f"[laguerre]\nn_terms = 4\nh = {h}\n")
    out = tmp_path / "out"
    assert run_cli("acoustic", "--config", cfg, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert _non_finite_artifacts(out) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_acoustic_f0_beyond_the_float_range_exits_2(tmp_path, capsys):
    # 2 pi f0 overflowed, and the projection took sin(inf) with a warning
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    "[laguerre]\nn_terms = 4\n[source]\nf0 = 1e308\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, "f0")


@pytest.mark.parametrize("bench", ["alpha = 1e308", "beta = 1e308",
                                   "gamma = 1e308"])
def test_bench_model_time_beyond_the_float_range_exits_2(tmp_path, capsys,
                                                         bench):
    # the predicted times overflowed and bench.csv read inf
    cfg = write_cfg(tmp_path / "run.cfg",
                    f"[bench]\nranks = 2, 4\nn = 64\n{bench}\n")
    out = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out", str(out)) == 2
    assert_one_line_config_error(capsys, "[bench] alpha, beta and gamma")
    assert not (out / "bench.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, section, bad", [
    ("acoustic", "laguerre", "h = inf"),
    ("poisson", "grid", "rmax = inf"),
    ("poisson", "grid", "zmax = 1e400"),
    ("acoustic", "snapshot", "t = inf"),
    ("acoustic", "model", "interface_z = nan"),
    ("acoustic", "model", "throw = inf"),
    ("acoustic", "model", "fault_r = -inf"),
    ("acoustic", "model", "dip = nan"),
    ("acoustic", "model", "v_top = inf"),
    ("acoustic", "model", "rho = inf"),
])
def test_non_finite_config_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, section, bad):
    # a one-line configuration error, with no numpy warning on the way and
    # no harmonic solve started
    calls = []
    monkeypatch.setattr(acoustic, "pcg_solve",
                        lambda *args, **kwargs: calls.append(1))
    sections = {"grid": ["nr = 9", "nz = 7"], "laguerre": ["n_terms = 4"]}
    if section == "model":
        sections["model"] = ["kind = fault"]
    sections.setdefault(section, []).append(bad)
    cfg = write_cfg(tmp_path / "run.cfg", "".join(
        f"[{name}]\n" + "\n".join(lines) + "\n"
        for name, lines in sections.items()))
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert bad.split()[0] in err
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("section, bad", [
    ("receivers", "times = 0.0, inf, 11"),
    ("receivers", "times = nan, 1.0, 3"),
    ("receivers", "times = 0.0, nan, 3"),
    ("receivers", "times = -1.0, 1.0, 3"),
    ("snapshot", "t = inf"),
    ("snapshot", "t = nan"),
    ("snapshot", "t = -0.5"),
])
def test_bad_time_names_its_key(tmp_path, capsys, section, bad):
    # receiver and snapshot times must be finite and >= 0; the error names
    # the key, with no numpy warning from building the time axis
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 7\n"
                    f"[laguerre]\nn_terms = 4\n[{section}]\n{bad}\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"[{section}] {bad.split()[0]}" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, name", [
    ("speed = 1e200", "speed"),
    ("rho = 1e-200", "speed"),
    ("kind = fault\nv_top = 1e200", "v_top"),
    ("kind = fault\nv_bottom = 1e200", "v_bottom"),
])
def test_medium_beyond_the_float_range_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, model, name):
    # v_s = (speed / rho)^2 overflows although every value read is finite
    calls = []
    monkeypatch.setattr(acoustic, "pcg_solve",
                        lambda *args, **kwargs: calls.append(1))
    cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nnr = 9\nnz = 8\n"
                    "[laguerre]\nn_terms = 4\n[model]\n" + model + "\n")
    assert run_cli("acoustic", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert name in err
    assert calls == []


@pytest.mark.parametrize("command", ["poisson", "elliptic"])
def test_rhs_file_without_path_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + "[rhs]\nkind = file\n")
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "path" in err


@pytest.mark.parametrize("key, value", [
    ("method", "gauss"), ("tol", "-1"), ("tol", "nan"), ("maxiter", "0")])
def test_poisson_rejects_a_bad_solver_key(tmp_path, capsys, key, value):
    # the direct solve does not iterate, but a bad [solver] key is the same
    # configuration error it is for elliptic
    cfg = write_cfg(tmp_path / "run.cfg",
                    SMALL_GRID + f"[solver]\n{key} = {value}\n")
    assert run_cli("poisson", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, f"[solver] {key}")


@pytest.mark.parametrize("kind", ["nonsense", "fault", "files"])
def test_poisson_rejects_a_model_kind_it_cannot_solve(tmp_path, capsys, kind):
    # poisson solves constant coefficients only; files would be read as
    # kappa0/q0 with the panels ignored
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID + f"""\
[model]
kind = {kind}
kappa_file = {tmp_path / 'kappa.txt'}
""")
    assert run_cli("poisson", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, "[model] kind")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["poisson", "elliptic"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_non_finite_rhs_value_names_its_key(tmp_path, capsys, command, value):
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID
                    + f"[rhs]\nkind = uniform\nvalue = {value}\n")
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, "[rhs] value")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["poisson", "elliptic"])
def test_non_finite_rhs_panel_names_its_key(tmp_path, capsys, command):
    g = Grid2D(33, 32, 950.0, 950.0)
    panel = np.ones((g.nz, g.nr))
    panel[5, 7] = np.nan
    write_field_text(tmp_path / "rhs.txt", g, panel)
    cfg = write_cfg(tmp_path / "run.cfg", SMALL_GRID
                    + f"[rhs]\nkind = file\npath = {tmp_path / 'rhs.txt'}\n")
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "out")) == 2
    assert_one_line_config_error(capsys, "[rhs] path")


@pytest.mark.parametrize("command", ["poisson", "elliptic", "bench"])
def test_default_configuration_exits_0(tmp_path, command):
    # the shared default [model] kind = homogeneous is the constant medium
    # kappa0/q0 for poisson and elliptic
    assert run_cli(command, "--out", str(tmp_path / "out")) == 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def bench_rows(out):
    lines = (out / "bench.csv").read_text(encoding="ascii").splitlines()
    return lines[0], [[c.strip() for c in line.split(",")]
                      for line in lines[1:]]


def test_bench_sim_level_counts_and_models(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    "[bench]\nranks = 2, 4, 8\nn = 512\nbatch = 4\n")
    out = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out", str(out)) == 0
    header, rows = bench_rows(out)
    assert header == ("p, levels, messages, scalars, "
                      "t_model_dichotomy, t_model_cyclic")
    assert [(r[0], r[1]) for r in rows] == [("2", "1"), ("4", "2"), ("8", "3")]
    for r in rows:
        assert np.isfinite(float(r[4])) and np.isfinite(float(r[5]))
        assert (out / f"comm_p{r[0]}.csv").exists()


def test_bench_traffic_linear_in_batch(tmp_path):
    scalars = []
    for batch in (8, 16, 32):
        cfg = write_cfg(tmp_path / f"b{batch}.cfg",
                        f"[bench]\nranks = 4\nn = 256\nbatch = {batch}\n")
        out = tmp_path / f"out{batch}"
        assert run_cli("bench", "--config", cfg, "--out", str(out)) == 0
        _, rows = bench_rows(out)
        scalars.append(int(rows[0][3]))
    assert scalars[1] == 2 * scalars[0]
    assert scalars[2] == 2 * scalars[1]


def test_bench_threads_reports_speedup_column(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    "[bench]\nranks = 1, 2\nn = 4096\nbatch = 4\nrepeats = 1\n")
    out = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out", str(out),
                   "--executor", "threads") == 0
    header, rows = bench_rows(out)
    assert header == "p, seconds, speedup, t_model_dichotomy, t_model_cyclic"
    assert rows[0][0] == "1" and float(rows[0][2]) == 1.0
    assert float(rows[1][1]) > 0.0


def test_bench_threads_times_p1_baseline_first(tmp_path):
    # a sweep without p = 1 still gets a timed sequential baseline, and the
    # speedups are plain wall-time ratios against it
    cfg = write_cfg(tmp_path / "run.cfg",
                    "[bench]\nranks = 2\nn = 4096\nbatch = 2\nrepeats = 1\n")
    out = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out", str(out),
                   "--executor", "threads") == 0
    _, rows = bench_rows(out)
    assert [r[0] for r in rows] == ["1", "2"]
    assert rows[0][2] == "1.0000"
    assert float(rows[1][2]) == pytest.approx(
        float(rows[0][1]) / float(rows[1][1]), rel=1e-2)


def test_bench_ranks_flag_limits_sweep(tmp_path):
    out = tmp_path / "out"
    assert run_cli("bench", "--out", str(out), "--ranks", "4") == 0
    _, rows = bench_rows(out)
    assert [r[0] for r in rows] == ["4"]


@pytest.mark.parametrize("bench", [
    "ranks = 8\nn = 8",                 # 8 rows cannot be split over 8 ranks
    "ranks = 2\nalpha = nan",
    "ranks = 1, 3\nalpha = -1",         # no power-of-two p evaluates a model
    "ranks = 1\nbeta = inf",
    "ranks = 4\ngamma = -inf",
])
def test_bench_configuration_errors_exit_2(tmp_path, bench):
    cfg = write_cfg(tmp_path / "run.cfg", f"[bench]\n{bench}\n")
    assert run_cli("bench", "--config", cfg, "--out",
                   str(tmp_path / "out")) == 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    listing = capsys.readouterr().out
    for name in cli._COMMANDS:
        # "    poisson             Direct separable solve ..."
        assert any(line.split()[:1] == [name] and len(line.split()) > 1
                   for line in listing.splitlines()), name
        with pytest.raises(SystemExit) as exc:
            run_cli(name, "--help")
        assert exc.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())
        assert " ".join(cli._COMMANDS[name].__doc__.split()) in shown


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GRID, encoding="ascii")
    # the child imports the same package this process imported, whether it
    # came from PYTHONPATH, pytest's pythonpath setting or an install
    src = str(Path(axisolver.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "axisolver.cli", "poisson",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert (out / "solution.raw").exists()

    none = subprocess.run([sys.executable, "-m", "axisolver.cli"],
                          capture_output=True, text=True, env=env)
    assert none.returncode == 2  # argparse usage error


# ---------------------------------------------------------------------------
# documented exit codes under generated configurations
# ---------------------------------------------------------------------------


DOCUMENTED_EXITS = {0, 2, 3, 4}
# a valid small configuration per command and key; up to two keys are then
# corrupted
SOLVER_KEYS = {
    ("solver", "method"): ["pcg", "chebyshev"],
    ("solver", "tol"): ["1e-8", "0.5"],
    ("solver", "maxiter"): ["1", "3", "40"],
}
ELLIPTIC_KEYS = {
    ("grid", "nr"): ["9", "12", "17"],
    ("grid", "nz"): ["2", "4", "7"],
    ("grid", "rmax"): ["1.0", "950.0"],
    ("grid", "zmax"): ["1.0", "2.5"],
    ("model", "kind"): ["constant"],
    ("model", "kappa0"): ["1.0", "2.5"],
    ("model", "q0"): ["0.0", "0.4"],
    ("rhs", "kind"): ["manufactured", "zero", "uniform"],
    **SOLVER_KEYS,
}
VALID_KEYS = {
    "elliptic": ELLIPTIC_KEYS,
    "poisson": ELLIPTIC_KEYS,
    "acoustic": {
        ("grid", "nr"): ["9", "12", "17"],
        ("grid", "nz"): ["2", "7", "16"],
        ("grid", "rmax"): ["950.0", "2000.0"],
        ("grid", "zmax"): ["950.0", "2000.0"],
        ("model", "kind"): ["homogeneous", "fault"],
        ("laguerre", "h"): ["100.0", "280.0"],
        ("laguerre", "alpha"): ["2", "5"],
        ("laguerre", "n_terms"): ["1", "4", "8"],
        ("source", "amplitude"): ["0.0", "1.0"],
        ("source", "r"): ["0.0", "300.0"],
        ("receivers", "points"): ["0:0", "300:4, 500:4"],
        ("receivers", "times"): ["0.0, 1.2, 11", "0.1, 0.5, 3"],
        ("snapshot", "t"): ["", "0.5"],
        **SOLVER_KEYS,
    },
    "bench": {
        ("bench", "ranks"): ["1", "2, 4", "1, 3"],
        ("bench", "n"): ["64", "512", "4096"],
        ("bench", "batch"): ["1", "4"],
        ("bench", "repeats"): ["1", "2"],
        ("bench", "alpha"): ["5e-6", "0.0"],
        ("bench", "seed"): ["0", "3"],
    },
}
BAD_VALUES = ["-1", "0", "1", "2", "nan", "inf", "-inf", "1e400", "abc", ""]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(VALID_KEYS)),
       ranks=st.integers(1, 4),
       executor=st.sampled_from(["sim", "threads"]),
       data=st.data())
def test_generated_configs_end_in_documented_exit_codes(
        command, ranks, executor, data):
    keys = VALID_KEYS[command]
    values = data.draw(st.fixed_dictionaries(
        {key: st.sampled_from(choices) for key, choices in keys.items()}))
    broken = data.draw(st.dictionaries(st.sampled_from(sorted(keys)),
                                       st.sampled_from(BAD_VALUES),
                                       max_size=2))
    values = {**values, **broken}
    sections = {"solver": [f"ranks = {ranks}", f"executor = {executor}"]}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                   for name, lines in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp) / "run.cfg", text)
        code = run_cli(command, "--config", cfg, "--out",
                       str(Path(tmp) / "out"))
    # bench builds its own dominant system, so only its configuration fails
    assert code in ({0, 2} if command == "bench" else DOCUMENTED_EXITS)


# ---------------------------------------------------------------------------
# every configuration key under one list of generated values
# ---------------------------------------------------------------------------


GENERATED_VALUES = ["0", "-1", "-0.0", "nan", "inf", "-inf", "1e200",
                    "1e308", "1e400", "1e-308", "5e-324", "2.5", "", "x",
                    "100000000000000000000"]
# keys that size an allocation, a loop or a thread count: they take only
# the values that cannot become a huge integer, and their validators take
# the rest (test_library_validators_under_the_generated_values)
SIZE_KEYS = {("grid", "nr"), ("grid", "nz"), ("laguerre", "n_terms"),
             ("solver", "maxiter"), ("solver", "ranks"), ("bench", "n"),
             ("bench", "batch"), ("bench", "repeats"), ("bench", "ranks")}
HUGE_VALUES = {"1e200", "1e308", "1e400", "100000000000000000000"}
SECTIONS_READ = {
    "poisson": ("grid", "model", "rhs", "solver", "output"),
    "elliptic": ("grid", "model", "rhs", "solver", "output"),
    "acoustic": ("grid", "model", "solver", "laguerre", "source",
                 "receivers", "snapshot", "output"),
    "bench": ("solver", "bench", "output"),
}
# the small run every case starts from
GENERATED_BASE = {("grid", "nr"): "9", ("grid", "nz"): "8",
                  ("laguerre", "n_terms"): "4", ("solver", "maxiter"): "50",
                  ("bench", "n"): "64", ("bench", "ranks"): "2, 4",
                  ("bench", "repeats"): "1", ("output", "dir"): "out"}
FAULT_KEYS = {"v_top", "v_bottom", "interface_z", "throw", "fault_r", "dip"}
# cases whose exit is pinned, not just documented: a 1e20 m radius on the
# 950 m deep base grid is past the preconditioner's rounding bound, a
# configuration error, and the direct solve does not depend on that bound
GENERATED_EXITS = {
    ("elliptic", "grid", "rmax", "100000000000000000000"): 2,
    ("poisson", "grid", "rmax", "100000000000000000000"): 0,
}


def _reading_context(command, section, key, panel):
    """The base keys that make ``command`` read ``[section] key``."""
    if section == "model" and command == "acoustic" and key in FAULT_KEYS:
        return {("model", "kind"): "fault"}
    if section == "model" and command == "elliptic" and key == "kappa_file":
        return {("model", "kind"): "files"}
    if section == "model" and command == "elliptic" \
            and key == "reaction_file":
        return {("model", "kind"): "files", ("model", "kappa_file"): panel}
    if section == "rhs" and key in ("value", "path"):
        return {("rhs", "kind"): "uniform" if key == "value" else "file"}
    return {}


def _non_finite_artifacts(outdir):
    """Every number an exit-0 run wrote that is not finite, as
    (file, entry) pairs.  ``bench.csv``'s model columns read nan by design
    where p is not a power of two >= 2; ``effective.cfg`` echoes the input."""
    bad = []
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".raw":
            _, field = read_field_raw(path)
            bad += [(path.name, "raw")] if not np.isfinite(field).all() else []
            continue
        if path.suffix not in (".csv", ".txt"):
            continue
        for n, line in enumerate(path.read_text(encoding="ascii")
                                 .splitlines()):
            if path.name == "report.txt":
                key, _, line = line.partition(" = ")
                if key == "operator_checksum":
                    continue
            cells = [c.strip() for c in line.split(",")]
            if path.name == "bench.csv" and n and cells[0].isdigit():
                p = int(cells[0])
                if p < 2 or p & (p - 1):
                    cells = cells[:-2]
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append((path.name, line))
    return bad


@pytest.mark.parametrize("command", sorted(SECTIONS_READ))
def test_every_key_under_the_generated_values_ends_in_a_documented_exit(
        tmp_path, monkeypatch, capsys, command):
    # every key the command reads, one at a time, under the whole value
    # list: each run ends in exit 0, 2, 3 or 4 (the one GENERATED_EXITS
    # pins, where it pins one), warnings being errors here,
    # with no traceback; a failure prints one line, and an exit 0 leaves
    # only finite numbers in its artifacts
    monkeypatch.chdir(tmp_path)
    write_field_text("panel.txt", Grid2D(9, 8, 950.0, 950.0),
                     np.ones((8, 9)))
    panel = str(tmp_path / "panel.txt")
    outcomes = []
    for section in SECTIONS_READ[command]:
        for key in config.DEFAULTS[section]:
            for value in GENERATED_VALUES:
                if (section, key) in SIZE_KEYS and value in HUGE_VALUES:
                    continue
                values = {**GENERATED_BASE,
                          **_reading_context(command, section, key, panel),
                          (section, key): value}
                lines = {}
                for (s, k), v in values.items():
                    lines.setdefault(s, []).append(f"{k} = {v}")
                Path("run.cfg").write_text("".join(
                    f"[{s}]\n" + "\n".join(body) + "\n"
                    for s, body in lines.items()), encoding="ascii")
                case = f"{command} [{section}] {key} = {value!r}"
                try:
                    code = run_cli(command, "--config", "run.cfg")
                except BaseException as exc:  # a traceback or a warning
                    outcomes.append(f"{case}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                pinned = GENERATED_EXITS.get((command, section, key, value))
                if code not in DOCUMENTED_EXITS or pinned not in (None, code):
                    outcomes.append(f"{case}: exit {code}")
                elif code and err.count("\n") != 1:
                    outcomes.append(f"{case}: exit {code} printed {err!r}")
                elif code == 0 and value and key != "dir":
                    bad = _non_finite_artifacts(Path("out"))
                    if bad:
                        outcomes.append(f"{case}: exit 0 wrote {bad[:2]}")
    assert outcomes == []


LIBRARY_VALUES = [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, 1e200,
                  1e308, 1e-308, 5e-324, 2.5, 10 ** 20]


def _usable(built):
    """Whether what a library builder returned evaluates to finite
    numbers where the runs read it."""
    if isinstance(built, Grid2D):
        return all(0.0 < v < math.inf for v in (built.dr, built.dz,
                                                 *built.spacing_squares()))
    if isinstance(built, acoustic.MediumModel):
        r, z = np.array([[0.0], [1.0], [500.0], [950.0]]), \
            np.array([0.0, 475.0, 476.0, 950.0])
        return all(np.all((v > 0.0) & np.isfinite(v))
                   for v in (built.v_s(r, z), built.rho(r, z)))
    if isinstance(built, acoustic.Wavelet):
        t = np.array([0.0, built.onset, built.t0, built.support_end, 1.0,
                      1e300, -1e300])
        return bool(np.all(np.isfinite(built(t)))) and built.half_width >= 0
    return isinstance(built, acoustic.LaguerreParams)


@pytest.mark.parametrize("builder, base", [
    (Grid2D, dict(nr=9, nz=8, rmax=950.0, zmax=950.0)),
    (acoustic.MediumModel.homogeneous, dict(speed=2000.0, rho=1.0)),
    (acoustic.MediumModel.fault, dict(v_top=1800.0, v_bottom=2200.0,
                                      interface_z=475.0, throw=120.0,
                                      fault_r=400.0, dip=0.0, rho=1.0)),
    (acoustic.LaguerreParams, dict(h=280.0, alpha=5, n_terms=8)),
    (acoustic.Wavelet, dict(f0=10.0, t0=0.4, gamma=4.0, amplitude=1.0)),
], ids=["Grid2D", "homogeneous", "fault", "LaguerreParams", "Wavelet"])
def test_library_validators_under_the_generated_values(builder, base):
    # the builders the command line reaches only through its own checks,
    # each argument under the numeric values of the list (1e400 reads as
    # inf, and the sizes take 10**20 here, where nothing is allocated):
    # each raises DomainError or builds something that evaluates finite,
    # warnings being errors
    outcomes = []
    for name in base:
        for value in LIBRARY_VALUES:
            try:
                built = builder(**{**base, name: value})
            except DomainError:
                continue
            except Exception as exc:
                outcomes.append(f"{name} = {value!r}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            try:
                if not _usable(built):
                    outcomes.append(f"{name} = {value!r}: not finite")
            except Exception as exc:
                outcomes.append(f"{name} = {value!r}: evaluating: "
                                f"{type(exc).__name__}: {exc}")
    assert outcomes == []
