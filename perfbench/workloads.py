"""The benchmark's three workloads.

Each workload turns a seed into fixed inputs in its constructor, then offers

* ``setup()``  -- build everything a unit reuses, returned as a state dict
  (``SETUP_IN_UNIT`` marks a workload whose unit rebuilds it itself);
* ``unit(state, mark)`` -- the timed unit of work, returning its outputs;
  it calls ``mark()`` (with any arguments) at the unit's natural step
  boundaries -- after each harmonic, after each PCG iteration -- so the
  runner can time the steps as well as the whole unit;
* ``check(state, out)`` -- raise :class:`CheckFailed` unless the outputs are
  correct (tolerances, never digests, so a legitimate rounding change still
  passes);
* ``counters(state, out)`` -- the work the unit did, which must repeat
  exactly from one repetition to the next.

The program is only ever called through module attributes
(``acoustic.solve_all_harmonics``, ``dichotomy.build_plan``, ...), so the
traced run sees these calls through its wrappers.  Why each workload was
chosen is written down in NOTES.md.
"""

from __future__ import annotations

import numpy as np

from axisolver import acoustic, dichotomy, elliptic, iterative, sov, tridiag
from axisolver.comm import CommWorld

from spans import array_bytes

RANKS = 4   # simulated ranks of the distributed workloads


class CheckFailed(Exception):
    """An output of the unit is wrong."""


def _relres(op, x, rhs) -> float:
    return float(np.linalg.norm(op.apply_spd(x) - rhs) / np.linalg.norm(rhs))


class AcousticFault:
    """The paper's headline run: the Laguerre harmonic chain in a faulted
    two-layer medium, with the receiver traces synthesized at the end."""

    name = "acoustic-fault"
    RESIDUAL_TOL = 1e-8
    SETUP_IN_UNIT = True

    def __init__(self, seed: int, nr: int = 257, nz: int = 256,
                 n_terms: int = 24, n_times: int = 601):
        rng = np.random.default_rng(seed)
        self.grid = elliptic.Grid2D(nr, nz, 950.0, 950.0)
        self.model = acoustic.MediumModel.fault(
            1800.0, 2200.0, interface_z=rng.uniform(465.0, 485.0),
            throw=rng.uniform(110.0, 130.0), fault_r=rng.uniform(380.0, 420.0))
        self.params = acoustic.LaguerreParams(h=280.0, alpha=5,
                                              n_terms=n_terms)
        self.wavelet = acoustic.Wavelet(f0=10.0, t0=0.4, gamma=4.0)
        self.source = (rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
        self.times = np.linspace(0.0, 1.2, n_times)
        self.points = [(300.0, 4.0), (500.0, 4.0), (700.0, 4.0)]

    def _operator_and_coeffs(self):
        p = self.params
        op = acoustic.harmonic_operator(self.grid, self.model, p)
        coeffs = acoustic.project_source(self.wavelet, p.n_terms - 1, p.alpha,
                                         p.h, t_upper=self.wavelet.support_end)
        return op, coeffs

    def setup(self):
        # solve_all_harmonics builds the operator, the preconditioner and the
        # source projection itself, so this times that same build on its own
        # (setup_s is a sub-part of solve_s here) and keeps nothing: the unit
        # never runs next to a second operator and preconditioner
        op, _ = self._operator_and_coeffs()
        sov.SovPreconditioner.from_operator(op, ranks=1)
        return {}

    def unit(self, state, mark):
        # mark every PCG iteration as well as every harmonic: a 20 ms step
        # lands in a quiet stretch of the host far more often than a 150 ms one
        solve = acoustic.pcg_solve

        def pcg_solve(*args, **kwargs):
            return solve(*args, trace=mark, **kwargs)

        acoustic.pcg_solve = pcg_solve
        try:
            series = acoustic.solve_all_harmonics(
                self.grid, self.model, self.params, self.wavelet,
                source=self.source, method="pcg", tol=1e-10, maxiter=500,
                ranks=1, executor="sim", progress=mark)
        finally:
            acoustic.pcg_solve = solve
        mark()
        traces = acoustic.reconstruct(series, self.times, self.points)
        return series, traces

    def check(self, state, out):
        series, traces = out
        op, coeffs = self._operator_and_coeffs()
        if series.operator_checksum != op.checksum():
            raise CheckFailed("solved operator differs from a fresh build")
        if not np.allclose(series.source_coeffs, coeffs, rtol=1e-12,
                           atol=1e-12 * np.abs(coeffs).max()):
            raise CheckFailed("source projection differs from a fresh one")
        node = self.grid.nearest_node(*self.source)
        sums = acoustic.RunningSums(self.grid, self.params.alpha)
        worst = 0.0
        for m, q_m in enumerate(series.harmonics):
            rhs = acoustic.harmonic_rhs(op, m, node, float(coeffs[m]), sums)
            worst = max(worst, _relres(op, q_m, rhs))
            sums.absorb(q_m)
        if not worst <= self.RESIDUAL_TOL:
            raise CheckFailed(f"harmonic residual {worst:.3e} > "
                              f"{self.RESIDUAL_TOL:g}")
        if (traces.shape != (self.times.size, len(self.points))
                or not np.all(np.isfinite(traces))
                or not np.any(traces != 0.0)):
            raise CheckFailed("receiver traces are malformed or all zero")

    def counters(self, state, out):
        series, _ = out
        return {"harmonics": len(series.iterations),
                "pcg_iterations": sum(series.iterations),
                "binv": series.binv_applications}


class EllipticP4:
    """Variable-coefficient PCG solve whose separable preconditioner runs
    the distributed splitting solver on 4 simulated ranks."""

    name = "elliptic-p4"
    RESIDUAL_TOL = 1e-8
    SETUP_IN_UNIT = False
    ERROR_TOL = 1e-6
    # scaled so the final PCG residual sits mid-way (in log scale) between
    # the tolerance and one iteration's reduction below it: seed jitter then
    # cannot flip the iteration count
    KAPPA_MODES = 0.985 * np.array([[0.0, 0.15, -0.05],
                                    [0.25, -0.1, 0.05],
                                    [-0.1, 0.05, 0.05]])

    def __init__(self, seed: int, nr: int = 65, nz: int = 63):
        rng = np.random.default_rng(seed)
        grid = elliptic.Grid2D(nr, nz, 1.8, 1.3)
        # kappa = 1 + a 3x3 cosine-mode field: fixed amplitudes with a small
        # seeded jitter, so every seed keeps the same contrast and PCG work;
        # the seed also scales the manufactured target
        amp = self.KAPPA_MODES * rng.uniform(0.995, 1.005, (3, 3))

        def kappa(r, z):
            out = np.ones(np.broadcast(r, z).shape)
            for i in range(3):
                for j in range(3):
                    out = out + amp[i, j] * np.cos(i * np.pi * r / grid.rmax) \
                        * np.cos(j * np.pi * z / grid.zmax)
            return out

        self.grid = grid
        self.fields = elliptic.CoefficientFields.from_samplers(
            kappa, lambda r, z: np.full(np.broadcast(r, z).shape, 0.4), grid)
        # discrete manufactured problem: rhs = A t for a smooth seeded t,
        # so the solution must reproduce t to solver accuracy
        R, Z = grid.node_mesh()
        self.target = rng.uniform(0.5, 2.0) * (
            np.cos(0.5 * np.pi * R / grid.rmax) * np.cos(np.pi * Z / grid.zmax)
            + 0.5 * np.sin(1.5 * np.pi * R / grid.rmax))
        self.rhs = elliptic.assemble(grid, self.fields).apply_spd(self.target)

    def setup(self):
        op = elliptic.assemble(self.grid, self.fields)
        pc = sov.SovPreconditioner.from_operator(op, ranks=RANKS,
                                                 executor="sim")
        return {"op": op, "pc": pc}

    def unit(self, state, mark):
        op, pc = state["op"], state["pc"]
        return iterative.pcg_solve(op.apply_spd, pc.apply_inverse, self.rhs,
                                   tol=1e-10, maxiter=500, trace=mark)

    def check(self, state, out):
        x, report = out
        x = x.reshape(self.grid.unknown_shape)
        relres = _relres(state["op"], x, self.rhs)
        err = float(np.linalg.norm(x - self.target)
                    / np.linalg.norm(self.target))
        if not (report.converged and relres <= self.RESIDUAL_TOL):
            raise CheckFailed(f"residual {relres:.3e} > {self.RESIDUAL_TOL:g}")
        if not err <= self.ERROR_TOL:
            raise CheckFailed(f"error against the manufactured target "
                              f"{err:.3e} > {self.ERROR_TOL:g}")

    def counters(self, state, out):
        _, report = out
        return {"pcg_iterations": report.iterations,
                "binv": report.binv_applications}


class TridiagBatch:
    """One large diagonally dominant system solved for a batch of
    right-hand sides by the distributed splitting solver."""

    name = "tridiag-batch"
    REL_TOL = 1e-10
    SETUP_IN_UNIT = False

    def __init__(self, seed: int, n: int = 2 ** 15, batch: int = 16):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(0.2, 1.0, n - 1)
        upper = rng.uniform(0.2, 1.0, n - 1)
        row_sums = np.zeros(n)
        row_sums[1:] += lower
        row_sums[:-1] += upper
        diag = row_sums + rng.uniform(0.25, 1.0, n)
        self.matrix = tridiag.TridiagonalMatrix(diag, upper, lower)
        self.B = rng.standard_normal((n, batch))
        self.reference = tridiag.thomas_solve(self.matrix, self.B)

    def setup(self):
        world = CommWorld(RANKS)
        part = dichotomy.Partition.balanced(self.matrix.n, RANKS)
        return {"plan": dichotomy.build_plan(self.matrix, part, world)}

    def unit(self, state, mark):
        return dichotomy.solve_many(state["plan"], self.B, executor="sim")

    def check(self, state, out):
        scale = float(np.abs(self.reference).max())
        err = float(np.abs(out - self.reference).max()) / scale
        if not (out.shape == self.reference.shape and err <= self.REL_TOL):
            raise CheckFailed(f"solution differs from the p = 1 Thomas solve "
                              f"by {err:.3e} > {self.REL_TOL:g}")

    def counters(self, state, out):
        return {"rhs": self.B.shape[1],
                "plan_bytes": array_bytes(state["plan"])}


WORKLOADS = {wl.name: wl for wl in (AcousticFault, EllipticP4, TridiagBatch)}
