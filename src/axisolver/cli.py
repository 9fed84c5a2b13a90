"""Command-line front end.

Four subcommands sharing one configuration schema (see :mod:`.config`):

``poisson``
    Direct separable solve of the constant-coefficient operator; writes the
    solution panel and a residual report.
``elliptic``
    Preconditioned iterative solve with variable coefficients; writes the
    solution panel, a per-iteration log, and a summary report.
``acoustic``
    Spectral-time wave run; writes seismogram traces, an optional field
    snapshot, and a work/accounting report.
``bench``
    Distributed tridiagonal solves swept over rank counts; writes measured
    counters (sim) or wall times with speedups (threads) next to the
    closed-form cost-model predictions.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.

Under the ``sim`` executor every subcommand is deterministic: identical
configuration yields byte-identical artifacts (the per-iteration seconds
column is fixed at zero there; wall-clock numbers appear only under
``threads``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .acoustic import (LaguerreParams, MediumModel, Wavelet,
                       _synthesis_weights, solve_all_harmonics, reconstruct,
                       write_seismogram, write_snapshot)
from .comm import EXECUTORS, CommWorld
from .config import RunConfig, load_config
from .dichotomy import (Partition, build_plan, predict_time_cyclic,
                        predict_time_dichotomy, solve_many)
from .elliptic import (CoefficientFields, DiscreteOperator, Grid2D, assemble,
                       manufactured_problem, read_field_text,
                       sampler_from_field, weighted_source, write_field_raw)
from .errors import (ConfigError, DimensionMismatch, DomainError, SolverError)
from .iterative import SpectralBounds, chebyshev_solve, norm2, pcg_solve
from .laguerre import scaled_times
from .sov import SovPreconditioner
from .tridiag import TridiagonalMatrix

__all__ = ["main", "cmd_poisson", "cmd_elliptic", "cmd_acoustic", "cmd_bench"]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _open_outdir(cfg: RunConfig) -> str:
    """Create ``[output] dir`` and echo the configuration into it."""
    path = cfg.get("output", "dir")
    if not path:
        raise ConfigError("[output] dir must be non-empty")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "effective.cfg"), "w",
              encoding="ascii") as fh:
        fh.write(cfg.effective_text())
    return path


def _build_grid(cfg: RunConfig) -> Grid2D:
    return Grid2D(cfg.get_int("grid", "nr"), cfg.get_int("grid", "nz"),
                  cfg.get_float("grid", "rmax"), cfg.get_float("grid", "zmax"))


def _build_medium(cfg: RunConfig) -> MediumModel:
    kind = cfg.get_choice("model", "kind", {"homogeneous", "fault"})
    rho = cfg.get_float("model", "rho")
    if kind == "homogeneous":
        return MediumModel.homogeneous(cfg.get_float("model", "speed"),
                                       rho=rho)
    return MediumModel.fault(
        cfg.get_float("model", "v_top"), cfg.get_float("model", "v_bottom"),
        interface_z=cfg.get_float("model", "interface_z"),
        throw=cfg.get_float("model", "throw"),
        fault_r=cfg.get_float("model", "fault_r"),
        dip=cfg.get_float("model", "dip"), rho=rho)


def _coefficient_sampler(cfg: RunConfig, key: str, positive: bool
                         ) -> Callable:
    """Continuum sampler over the ``[model] key`` panel, resampled
    bilinearly so one coefficient file can serve a whole refinement sweep.

    Every entry must be finite and > 0 (``positive``) or >= 0; the bilinear
    sampler then keeps that sign everywhere.
    """
    path = cfg.get("model", key)
    file_grid, values = read_field_text(path)
    ok = np.isfinite(values) & (values > 0.0 if positive else values >= 0.0)
    if not ok.all():
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"[model] {key} = {path}: entries must be finite "
                          f"and {bound}, found {float(values[~ok][0])!r}")
    return sampler_from_field(file_grid, values)


_METHODS = ("pcg", "chebyshev")


def _stopping_rule(cfg: RunConfig) -> Tuple[float, int]:
    """``[solver] tol`` (also set by ``--tol``), a finite number > 0, and
    ``[solver] maxiter``, an integer >= 1."""
    tol = cfg.get_float("solver", "tol")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"[solver] tol = {cfg.get('solver', 'tol')!r} must "
                          f"be a finite number > 0")
    maxiter = cfg.get_int("solver", "maxiter")
    if maxiter < 1:
        raise ConfigError(f"[solver] maxiter = {maxiter} must be >= 1")
    return tol, maxiter


def _scaled_times(key: str, h: float, times) -> None:
    """Check that ``h t`` stays in the float range for the times of the
    config ``key``, as :func:`~axisolver.laguerre.scaled_times` does, the
    error naming the key."""
    try:
        scaled_times(h, times)
    except DomainError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _write_solution(outdir: str, grid: Grid2D, interior: np.ndarray) -> None:
    full = np.concatenate([interior, np.zeros((grid.nz, 1))], axis=1)
    write_field_raw(os.path.join(outdir, "solution.raw"), grid, full)


def _write_report(outdir: str, lines: List[str]) -> None:
    with open(os.path.join(outdir, "report.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _bounds_lines(bounds: Optional[SpectralBounds]) -> List[str]:
    """The report line of a Chebyshev run's interval; none for PCG."""
    if bounds is None:
        return []
    return [f"spectral_bounds = {bounds.lower!r}, {bounds.upper!r}"]


def _write_iteration_log(outdir: str, history, seconds: List[float]) -> None:
    rows = ["iter, relres, seconds"]
    for (it, relres), sec in zip(history, seconds):
        rows.append(f"{it}, {relres!r}, {sec:.6f}")
    with open(os.path.join(outdir, "iterations.csv"), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


def _relative_residual(op, x: np.ndarray, rhs: np.ndarray) -> float:
    norm = norm2(rhs)
    if norm == 0.0:
        return 0.0
    return norm2(op.apply_spd(x) - rhs) / norm


# ---------------------------------------------------------------------------
# poisson and elliptic: one way to pose the problem
# ---------------------------------------------------------------------------


def _fields(cfg: RunConfig, kinds) -> CoefficientFields:
    """Coefficients for ``[model] kind``, one of ``kinds``: ``files`` reads
    the ``kappa_file``/``reaction_file`` panels, ``homogeneous`` and
    ``constant`` take ``kappa0`` > 0 and ``q0`` >= 0, both finite."""
    if cfg.get_choice("model", "kind", kinds) == "files":
        if not cfg.get("model", "kappa_file"):
            raise ConfigError("[model] kind = files needs kappa_file")
        kappa = _coefficient_sampler(cfg, "kappa_file", positive=True)
        if cfg.get("model", "reaction_file"):
            reaction = _coefficient_sampler(cfg, "reaction_file",
                                            positive=False)
        else:
            reaction = lambda r, z: np.zeros(np.shape(r))
        return CoefficientFields(kappa, reaction)
    kappa0 = cfg.get_float("model", "kappa0")
    q0 = cfg.get_float("model", "q0")
    if not (0.0 < kappa0 < math.inf and 0.0 <= q0 < math.inf):
        raise ConfigError(f"[model] needs finite kappa0 > 0 and q0 >= 0, "
                          f"got {kappa0}/{q0}")
    return CoefficientFields.constant(kappa0, q0)


def _source_callable(cfg: RunConfig, grid: Grid2D, kind: str) -> Callable:
    """Continuum source for the ``zero``, ``uniform`` and ``file`` rhs
    kinds; a non-finite ``[rhs] value`` or ``[rhs] path`` entry is a
    configuration error that names its key."""
    if kind == "zero":
        return lambda r, z: np.zeros(np.shape(r))
    if kind == "uniform":
        value = cfg.get_float("rhs", "value")
        if not math.isfinite(value):
            raise ConfigError(f"[rhs] value = {cfg.get('rhs', 'value')!r} "
                              f"must be finite")
        return lambda r, z: np.full(np.shape(r), value)
    path = cfg.get("rhs", "path")
    if not path:
        raise ConfigError("[rhs] kind = file needs path")
    file_grid, values = read_field_text(path)
    if file_grid != grid:
        raise DimensionMismatch(
            f"{path}: file grid {file_grid.nr}x{file_grid.nz} does not match "
            f"run grid {grid.nr}x{grid.nz}")
    ok = np.isfinite(values)
    if not ok.all():
        raise ConfigError(f"[rhs] path = {path}: entries must be finite, "
                          f"found {float(values[~ok][0])!r}")
    return sampler_from_field(file_grid, values)


def _discrete_rhs(grid: Grid2D, fields: CoefficientFields,
                  target: Callable) -> Tuple[DiscreteOperator, np.ndarray]:
    """The operator and ``A t`` for ``t`` the target at the nodes, so the
    discrete solution is ``t`` itself."""
    op = assemble(grid, fields)
    return op, op.apply_spd(target(*grid.node_mesh()))


def _pose(cfg: RunConfig, kinds, manufactured: Callable):
    """``(grid, op, rhs, pre)`` for ``poisson`` and ``elliptic``: the
    coefficients of ``[model] kind`` in ``kinds``, the ``[rhs]`` source
    and the separable preconditioner.  For ``[rhs] kind = manufactured``,
    ``manufactured(grid, fields, target)`` gives the operator and rhs of a
    smooth target that meets the boundary conditions."""
    grid = _build_grid(cfg)
    fields = _fields(cfg, kinds)
    rhs_kind = cfg.get_choice("rhs", "kind",
                              {"manufactured", "zero", "uniform", "file"})
    if rhs_kind == "manufactured":
        target = (lambda r, z: np.cos(0.5 * np.pi * r / grid.rmax)
                  * np.cos(np.pi * z / grid.zmax))
        op, rhs = manufactured(grid, fields, target)
    else:
        source = _source_callable(cfg, grid, rhs_kind)
        op = assemble(grid, fields)
        try:
            rhs = weighted_source(grid, source)
        except DomainError as exc:
            key = "value" if rhs_kind == "uniform" else "path"
            raise ConfigError(f"[rhs] {key}: {exc}") from exc
    pre = SovPreconditioner.from_operator(
        op, ranks=cfg.get_int("solver", "ranks"),
        executor=cfg.get_choice("solver", "executor", EXECUTORS))
    return grid, op, rhs, pre


def cmd_poisson(cfg: RunConfig, outdir: str) -> int:
    """Direct separable solve of the constant-coefficient operator."""
    # the direct solve reads no [solver] method, tol or maxiter, but a bad
    # value is a configuration error here as it is for elliptic
    cfg.get_choice("solver", "method", _METHODS)
    _stopping_rule(cfg)
    grid, op, rhs, pre = _pose(cfg, {"homogeneous", "constant"},
                               _discrete_rhs)
    x = pre.apply_inverse(rhs)
    relres = _relative_residual(op, x, rhs)

    _write_solution(outdir, grid, x)
    _write_report(outdir, [
        "command = poisson",
        "method = separable-direct",
        f"relative_residual = {relres!r}",
        "binv_applications = 1",
        f"operator_checksum = {op.checksum()}",
    ])
    return 0


def cmd_elliptic(cfg: RunConfig, outdir: str) -> int:
    """Preconditioned iterative solve with variable coefficients."""
    # the continuum source of the target, which the solution approximates
    grid, op, rhs, pre = _pose(
        cfg, {"homogeneous", "constant", "files"},
        lambda grid, fields, target:
            manufactured_problem(grid, target, fields)[:2])
    if not pre.rounding_ratio <= 1.0:
        raise ConfigError(
            f"[grid] rmax = {grid.rmax!r} against zmax = {grid.zmax!r}: at "
            f"dr/dz = {grid.dr / grid.dz:.3g} the preconditioner's rounding "
            f"may outweigh its answer ({pre.rounding_ratio:.3g} in energy)")
    tol, maxiter = _stopping_rule(cfg)
    method = cfg.get_choice("solver", "method", _METHODS)

    seconds: List[float] = []
    started = time.perf_counter()
    timed = cfg.get("solver", "executor") == "threads"

    def trace(_it, _x, _relres):
        seconds.append(time.perf_counter() - started if timed else 0.0)

    # the solvers are linear in the rhs, and powers of two scale exactly:
    # they run on the rhs scaled by 2**-e to a largest magnitude in
    # [0.5, 1), so their inner products stay in the float range, and the
    # solution is scaled back; wherever the unscaled solve stays in range,
    # the solution is its bits
    e = math.frexp(float(np.abs(rhs).max()))[1]
    unit = np.ldexp(rhs, -e)
    bounds = None
    if method == "pcg":
        x, report = pcg_solve(op.apply_spd, pre.apply_inverse, unit,
                              tol=tol, maxiter=maxiter, trace=trace)
    else:
        bounds = pre.bounds_for(op)
        x, report = chebyshev_solve(op.apply_spd, pre.apply_inverse, unit,
                                    bounds, tol=tol, maxiter=maxiter,
                                    trace=trace)
    try:
        with np.errstate(over="raise"):
            x = np.ldexp(x.reshape(grid.unknown_shape), e)
    except FloatingPointError:
        raise DomainError("the solution leaves the float range") from None

    _write_solution(outdir, grid, x)
    _write_iteration_log(outdir, report.history, seconds)
    _write_report(outdir, [
        "command = elliptic",
        f"method = {method}",
        f"iterations = {report.iterations}",
        f"relative_residual = {report.final_relres!r}",
        f"binv_applications = {report.binv_applications}",
        f"converged = {report.converged}",
        *_bounds_lines(bounds),
        f"operator_checksum = {op.checksum()}",
    ])
    return 0


# ---------------------------------------------------------------------------
# acoustic: spectral-time wave run
# ---------------------------------------------------------------------------


def cmd_acoustic(cfg: RunConfig, outdir: str) -> int:
    """Spectral-time wave run: seismograms and an optional snapshot."""
    grid = _build_grid(cfg)
    model = _build_medium(cfg)
    params = LaguerreParams(h=cfg.get_float("laguerre", "h"),
                            alpha=cfg.get_int("laguerre", "alpha"),
                            n_terms=cfg.get_int("laguerre", "n_terms"))
    wavelet = Wavelet(f0=cfg.get_float("source", "f0"),
                      t0=cfg.get_float("source", "t0"),
                      gamma=cfg.get_float("source", "gamma"),
                      amplitude=cfg.get_float("source", "amplitude"))
    if not wavelet.is_quiescent:
        raise ConfigError(
            f"[source] t0 = {wavelet.t0!r} leaves the wavelet active at "
            f"t = 0; it must exceed {wavelet.half_width!r}")
    tol, maxiter = _stopping_rule(cfg)
    times = cfg.receiver_times()
    points = cfg.receiver_points()
    snap_raw = cfg.get("snapshot", "t")
    t_snap = None
    if snap_raw:
        try:
            t_snap = float(snap_raw)
        except ValueError as exc:
            raise ConfigError(f"[snapshot] t = {snap_raw!r} is not a number") \
                from exc
        if not 0.0 <= t_snap < math.inf:
            raise ConfigError(f"[snapshot] t = {snap_raw!r} must be a finite "
                              f"time >= 0")
    # the source projection scales times up to the wavelet's support end
    # by h, and the synthesis the requested times; the synthesis weights
    # depend on [laguerre] and those times only.  A time or a weight
    # beyond the float range fails here, before any harmonic solve
    _scaled_times("[source] t0", params.h, wavelet.support_end)
    _scaled_times("[receivers] times", params.h, times)
    if t_snap is not None:
        _scaled_times("[snapshot] t", params.h, t_snap)
    _synthesis_weights(params, times if t_snap is None
                       else np.append(times, t_snap))

    series = solve_all_harmonics(
        grid, model, params, wavelet,
        source=(cfg.get_float("source", "r"), cfg.get_float("source", "z")),
        method=cfg.get_choice("solver", "method", _METHODS),
        tol=tol, maxiter=maxiter,
        ranks=cfg.get_int("solver", "ranks"),
        executor=cfg.get_choice("solver", "executor", EXECUTORS))

    traces = reconstruct(series, times, points)
    write_seismogram(os.path.join(outdir, "seismograms.csv"), times, traces)
    if t_snap is not None:
        write_snapshot(os.path.join(outdir, "snapshot.raw"), series, t_snap)

    _write_report(outdir, [
        "command = acoustic",
        f"harmonics = {params.n_terms}",
        f"binv_applications = {series.binv_applications}",
        f"iterations_total = {sum(series.iterations)}",
        f"tail_energy_ratio = {series.tail_energy_ratio()!r}",
        *_bounds_lines(series.spectral_bounds),
        f"operator_checksum = {series.operator_checksum}",
    ])
    return 0


# ---------------------------------------------------------------------------
# bench: distributed tridiagonal sweep
# ---------------------------------------------------------------------------


def _bench_system(n: int, seed: int) -> TridiagonalMatrix:
    rng = np.random.default_rng(seed)
    lower = rng.uniform(0.2, 1.0, n - 1)
    upper = rng.uniform(0.2, 1.0, n - 1)
    row_sums = np.zeros(n)
    row_sums[1:] += lower
    row_sums[:-1] += upper
    diag = row_sums + rng.uniform(0.25, 1.0, n)
    return TridiagonalMatrix(diag, upper, lower)


def _bench_once(matrix: TridiagonalMatrix, batch: np.ndarray, p: int,
                executor: str):
    """One sweep entry: returns (tree_depth, stats, wall_seconds)."""
    world = CommWorld(p)
    plan = build_plan(matrix, Partition.balanced(matrix.n, p), world)
    t0 = time.perf_counter()
    solve_many(plan, batch, executor=executor)
    wall = time.perf_counter() - t0
    return plan.depth, world.stats_snapshot(), wall


def cmd_bench(cfg: RunConfig, outdir: str) -> int:
    """Distributed tridiagonal solves swept over rank counts."""
    executor = cfg.get_choice("solver", "executor", EXECUTORS)
    ranks = cfg.bench_ranks()
    n = cfg.get_int("bench", "n")
    batch = cfg.get_int("bench", "batch")
    repeats = cfg.get_int("bench", "repeats")
    seed = cfg.get_int("bench", "seed")
    if n < 8 or batch < 1 or repeats < 1 or seed < 0:
        raise ConfigError(f"[bench] needs n >= 8, batch >= 1, repeats >= 1, "
                          f"seed >= 0; got {n}/{batch}/{repeats}/{seed}")
    if n < 2 * max(ranks):
        raise ConfigError(f"[bench] n = {n} rows cannot be split over "
                          f"{max(ranks)} ranks: needs n >= 2 * ranks")
    alpha = cfg.get_float("bench", "alpha")
    beta = cfg.get_float("bench", "beta")
    gamma = cfg.get_float("bench", "gamma")
    if not all(0.0 <= v < math.inf for v in (alpha, beta, gamma)):
        raise ConfigError(f"[bench] alpha, beta and gamma must be finite and "
                          f">= 0; got {alpha}/{beta}/{gamma}")
    matrix = _bench_system(n, seed)
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((n, batch))

    def models(p: int):
        if p >= 2 and (p & (p - 1)) == 0:
            return (repr(predict_time_dichotomy(p, batch, alpha, beta, gamma)),
                    repr(predict_time_cyclic(p, batch, alpha, beta, gamma)))
        return "nan", "nan"

    try:
        predicted = {p: models(p) for p in [1] + ranks}
    except DomainError as exc:
        raise ConfigError(f"[bench] alpha, beta and gamma: {exc}") from exc
    rows = []
    if executor == "sim":
        rows.append("p, levels, messages, scalars, "
                    "t_model_dichotomy, t_model_cyclic")
        for p in ranks:
            depth, stats, _ = _bench_once(matrix, B, p, "sim")
            t_dich, t_cyc = predicted[p]
            rows.append(f"{p}, {depth}, {stats.total_msgs()}, "
                        f"{stats.total_scalars()}, {t_dich}, {t_cyc}")
            stats.write_csv(os.path.join(outdir, f"comm_p{p}.csv"))
    else:
        rows.append("p, seconds, speedup, t_model_dichotomy, t_model_cyclic")
        # speedups are plain ratios against p = 1, timed even if not listed
        ranks = [1] + [p for p in ranks if p != 1]
        walls: Dict[int, float] = {}
        for p in ranks:
            best = math.inf
            for _ in range(repeats):
                _, _, wall = _bench_once(matrix, B, p, "threads")
                best = min(best, wall)
            walls[p] = best
        for p in ranks:
            speedup = walls[1] / walls[p]
            t_dich, t_cyc = predicted[p]
            rows.append(f"{p}, {walls[p]:.6f}, {speedup:.4f}, "
                        f"{t_dich}, {t_cyc}")

    with open(os.path.join(outdir, "bench.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "poisson": cmd_poisson,
    "elliptic": cmd_elliptic,
    "acoustic": cmd_acoustic,
    "bench": cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axisolver",
        description="Axisymmetric elliptic and acoustic solver toolkit.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key = value configuration file")
        p.add_argument("--ranks", type=int, default=None, metavar="P",
                       help="rank count for the distributed solves")
        p.add_argument("--executor", choices=EXECUTORS, default=None,
                       help="communication backend")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory")
        p.add_argument("--tol", type=float, default=None, metavar="X",
                       help="outer solve tolerance")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "solver": {
            "ranks": None if args.ranks is None else str(args.ranks),
            "executor": args.executor,
            "tol": None if args.tol is None else repr(args.tol),
        },
        "output": {"dir": args.out},
    }
    if args.ranks is not None:
        overrides["bench"] = {"ranks": str(args.ranks)}
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.subcommand](cfg, _open_outdir(cfg))
    except (ConfigError, DomainError, DimensionMismatch) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
