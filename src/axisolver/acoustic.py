"""Spectral-in-time acoustic wave simulation on the axisymmetric grid.

The time axis is expanded in the orthonormal exponential-polynomial basis of
:mod:`axisolver.laguerre`.  That turns the wave equation into a chain of
elliptic problems that all share ONE discrete operator -- the expansion
parameter only enters the right-hand sides, which couple each harmonic to
every previous one through two running sums updated in O(1) per step.

Pipeline:

1. project the source wavelet onto the basis (``project_source``),
2. assemble the shared operator: diffusion slot takes the medium's ``v_s``
   field and the reaction slot takes ``h^2 / (4 rho^2)``,
3. for m = 0, 1, ...: build the rhs from the point source and the running
   sums; for m >= 1 project the solution onto the last 16 harmonics
   through their Gram matrix; solve with PCG or Chebyshev using the
   separable preconditioner, starting with a line search along that
   projection; absorb the new harmonic into the sums,
4. synthesize time-domain fields or receiver traces as weighted partial sums
   of the stored harmonics.

The half-space geometry (zero-flux planes at both z walls, symmetry axis at
r = 0) makes a source near the origin radiate a spherical front travelling
at ``rho * sqrt(v_s)``; the provided model builders take the desired wave
SPEED and store ``v_s = (speed / rho)^2`` so fronts move at the requested
speed.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .elliptic import (CoefficientFields, DiscreteOperator, Grid2D, assemble,
                       write_field_raw)
from .errors import DomainError, HarmonicSolveFailure, SolverError, as_integer
from .iterative import SpectralBounds, chebyshev_solve, pcg_solve
from .laguerre import (_in_range, laguerre_function_table, project_source,
                       scaled_times)
from .sov import SovPreconditioner

__all__ = [
    "LaguerreParams",
    "Wavelet",
    "MediumModel",
    "LaguerreSeries",
    "RunningSums",
    "harmonic_operator",
    "harmonic_rhs",
    "solve_all_harmonics",
    "reconstruct",
    "snapshot_field",
    "write_seismogram",
    "write_snapshot",
]

# the envelope threshold that defines "effectively zero" for time supports
_ENVELOPE_FLOOR = 1e-14
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # largest x with a finite x**2
# each harmonic starts from its Galerkin projection onto the last _WINDOW
# solved harmonics; a harmonic joins the projection while the squared
# A-norm of its part outside the harmonics already kept exceeds
# _GRAM_FLOOR times the largest squared A-norm in the window, i.e. while
# that part is above 1e-8 of the largest harmonic in the A-norm
_WINDOW = 16
_GRAM_FLOOR = 1e-16


@dataclass(frozen=True)
class LaguerreParams:
    """Transform parameters: time scale ``h`` (1/s), integer order ``alpha``
    of the basis, and the series length ``n_terms``."""

    h: float
    alpha: int
    n_terms: int

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"h must be positive and finite, got {self.h}")
        alpha = as_integer(self.alpha, DomainError, "alpha")
        if alpha < 2:
            raise DomainError(f"alpha must be an integer >= 2, got {alpha}")
        n_terms = as_integer(self.n_terms, DomainError, "n_terms")
        if n_terms < 1:
            raise DomainError(f"n_terms must be a positive integer, got {n_terms}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n_terms", n_terms)


@dataclass(frozen=True)
class Wavelet:
    """Modulated-Gaussian source pulse
    ``amplitude * exp(-(2 pi f0 (t - t0))^2 / gamma^2) * sin(2 pi f0 (t - t0))``.

    The transform pair assumes signals that are quiescent at t = 0, so pick
    ``t0`` large enough that the envelope at zero is negligible --
    ``t0 > gamma * sqrt(-ln(1e-14)) / (2 pi f0)`` guarantees it.
    """

    f0: float
    t0: float = 0.2
    gamma: float = 4.0
    amplitude: float = 1.0

    def __post_init__(self):
        for name in ("f0", "t0", "gamma", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < 2.0 * math.pi * self.f0 < math.inf:
            raise DomainError(f"f0 must be positive, and 2 pi f0 finite; "
                              f"got {self.f0!r}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.t0 < 0.0:
            raise DomainError(f"t0 must be >= 0, got {self.t0}")

    def __call__(self, t):
        # a phase or an envelope exponent beyond the float range is an
        # envelope of exactly 0, and so is the pulse there; arg / gamma,
        # not arg**2 / gamma**2, is 0 at t = t0
        with np.errstate(over="ignore", invalid="ignore"):
            arg = 2.0 * np.pi * self.f0 * (np.asarray(t, dtype=np.float64)
                                           - self.t0)
            envelope = np.exp(-((arg / self.gamma) ** 2))
            wave = np.sin(arg)
        return self.amplitude * envelope * np.where(np.isinf(arg), 0.0, wave)

    @property
    def half_width(self) -> float:
        """Half-duration beyond which the envelope is below 1e-14."""
        return self.gamma * math.sqrt(-math.log(_ENVELOPE_FLOOR)) \
            / (2.0 * np.pi * self.f0)

    @property
    def support_end(self) -> float:
        """End of the effective support ``[onset, support_end]``."""
        return self.t0 + self.half_width

    @property
    def onset(self) -> float:
        """First time the envelope exceeds 1e-14 (clipped at zero)."""
        return max(0.0, self.t0 - self.half_width)

    @property
    def is_quiescent(self) -> bool:
        """True when the envelope at t = 0 is below the 1e-14 floor, and
        always for a zero amplitude."""
        return self.amplitude == 0.0 or self.onset > 0.0


@dataclass(frozen=True)
class MediumModel:
    """Coefficient fields of the medium: ``v_s`` fills the diffusion slot of
    the elliptic operator and ``rho`` the density; the front speed is
    ``rho * sqrt(v_s)``."""

    v_s: Callable
    rho: Callable

    @classmethod
    def homogeneous(cls, speed: float, rho: float = 1.0) -> "MediumModel":
        """Uniform medium whose fronts travel at ``speed``."""
        if not (0.0 < rho < math.inf and 0.0 < speed / rho <= _SQRT_MAX
                and (speed / rho) ** 2 > 0.0):
            raise DomainError(f"speed and rho must be positive and finite, and "
                              f"(speed / rho)^2 too; got {speed}, {rho}")
        vs = (speed / rho) ** 2
        return cls(v_s=lambda r, z: np.full(np.broadcast(r, z).shape, vs),
                   rho=lambda r, z: np.full(np.broadcast(r, z).shape, rho,
                                            dtype=np.float64))

    @classmethod
    def fault(cls, v_top: float, v_bottom: float, interface_z: float,
              throw: float = 0.0, fault_r: float = 0.0, dip: float = 0.0,
              rho: float = 1.0) -> "MediumModel":
        """Two-layer medium with an optionally dipping interface and a
        vertical displacement (``throw``) of the interface at ``r > fault_r``.

        All numeric defaults are artifact choices for synthetic tests.
        """
        if not 0.0 < rho < math.inf:
            raise DomainError(f"rho must be positive and finite, got {rho!r}")
        for name, value in (("v_top", v_top), ("v_bottom", v_bottom)):
            if not (0.0 < value / rho <= _SQRT_MAX
                    and (value / rho) * (value / rho) > 0.0):
                raise DomainError(f"{name} must be positive, and ({name} / "
                                  f"rho)^2 finite and positive; got {value!r}")
        for name, value in (("interface_z", interface_z), ("throw", throw),
                            ("fault_r", fault_r), ("dip", dip)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")

        # v_s of each layer, squared as numpy squares an array
        top, bottom = v_top / rho, v_bottom / rho
        vs_top, vs_bottom = top * top, bottom * bottom

        def v_s(r, z):
            r = np.asarray(r, dtype=np.float64)
            # the interface depth on r's own shape; a dip too steep for the
            # float range puts it at +-inf: one layer fills the column
            with np.errstate(over="ignore"):
                boundary = interface_z + dip * r + np.where(r > fault_r,
                                                            throw, 0.0)
            return np.where(np.asarray(z, dtype=np.float64) < boundary,
                            vs_top, vs_bottom)

        return cls(v_s=v_s,
                   rho=lambda r, z: np.full(np.broadcast(r, z).shape, rho,
                                            dtype=np.float64))


@dataclass(frozen=True)
class LaguerreSeries:
    """Solved harmonic fields plus solver accounting.

    ``harmonics[m]`` is the grid field of expansion order ``m`` (shape
    ``grid.unknown_shape``); ``binv_applications`` totals the preconditioner
    inversions across all harmonics, the cost proxy used by the mesh
    independence checks; ``iterations`` holds the per-harmonic outer
    counts; ``spectral_bounds`` is the Chebyshev interval, None for PCG.
    """

    grid: Grid2D
    params: LaguerreParams
    harmonics: np.ndarray
    source_coeffs: np.ndarray
    binv_applications: int
    operator_checksum: str
    iterations: Tuple[int, ...] = field(default=(), repr=False)
    spectral_bounds: Optional[SpectralBounds] = field(default=None,
                                                      repr=False)

    def __post_init__(self):
        q = np.asarray(self.harmonics, dtype=np.float64)
        expect = (self.params.n_terms,) + self.grid.unknown_shape
        if q.shape != expect:
            raise DomainError(f"harmonics shape {q.shape} != {expect}")
        if not np.all(np.isfinite(q)):
            raise DomainError("harmonics contain non-finite entries")
        q.setflags(write=False)
        object.__setattr__(self, "harmonics", q)

    def harmonic_energies(self) -> np.ndarray:
        """Squared 2-norm of each harmonic field."""
        flat = self.harmonics.reshape(self.params.n_terms, -1)
        return np.einsum("ij,ij->i", flat, flat)

    def tail_energy_ratio(self) -> float:
        """Energy share of the last 5% of harmonics -- a truncation
        diagnostic; values near zero indicate a resolved series.  The share
        does not change with the harmonics' scale, so when their energies
        overflow or all underflow it is taken of the harmonics scaled by a
        power of two to a largest magnitude in [0.5, 1)."""
        e = self.harmonic_energies()
        total = float(e.sum())
        if not 0.0 < total < math.inf and self.harmonics.any():
            peak = float(np.abs(self.harmonics).max())
            flat = np.ldexp(self.harmonics, -math.frexp(peak)[1]) \
                .reshape(self.params.n_terms, -1)
            e = np.einsum("ij,ij->i", flat, flat)
            total = float(e.sum())
        if total == 0.0:
            return 0.0
        tail = max(1, math.ceil(0.05 * self.params.n_terms))
        return float(e[-tail:].sum()) / total


# ---------------------------------------------------------------------------
# harmonic coupling
# ---------------------------------------------------------------------------


class RunningSums:
    """O(1)-per-harmonic accumulators for the coupling sums.

    With ``eta_k = exp(0.5 * (lgamma(k+alpha+1) - lgamma(k+1)))`` and
    ``nu_m = 1 / eta_m``, harmonic ``m`` needs ``nu_m * (m * S1 - S2)`` where
    ``S1 = sum_k eta_k Q_k`` and ``S2 = sum_k k eta_k Q_k``.  The sums are
    kept already scaled by ``nu_m``: since ``nu_k eta_k = 1`` and
    ``nu_{k+1} / nu_k = sqrt((k+1) / (k+alpha+1)) <= 1``, absorbing ``Q_k``
    is ``s1 = r (s1 + Q_k)``, ``s2 = r (s2 + k Q_k)``.  Neither the huge
    ``eta`` nor the tiny ``nu`` is ever formed, so no order or ``alpha``
    overflows.
    """

    def __init__(self, grid: Grid2D, alpha: float):
        self.alpha = float(alpha)
        self.count = 0
        self.s1 = np.zeros(grid.unknown_shape)
        self.s2 = np.zeros(grid.unknown_shape)

    def absorb(self, q_k: np.ndarray) -> None:
        """Fold the most recently solved harmonic into the sums."""
        k = self.count
        r = math.sqrt((k + 1) / (k + self.alpha + 1))
        self.s1 += q_k
        self.s1 *= r
        self.s2 += k * q_k
        self.s2 *= r
        self.count += 1

    def weighted_combination(self, m: int) -> np.ndarray:
        """``nu_m * (m * S1 - S2)``, the coupling field for harmonic ``m``."""
        if m != self.count:
            raise DomainError(
                f"harmonic {m} requested but {self.count} harmonics absorbed")
        return m * self.s1 - self.s2


# ---------------------------------------------------------------------------
# per-harmonic elliptic problems
# ---------------------------------------------------------------------------


def harmonic_operator(grid: Grid2D, model: MediumModel,
                      params: LaguerreParams) -> DiscreteOperator:
    """The operator every harmonic shares: diffusion ``v_s``, reaction
    ``h^2 / (4 rho^2)`` (a DomainError naming ``h`` if that overflows)."""
    shift = 0.25 * params.h ** 2 if params.h <= _SQRT_MAX else math.inf

    def reaction(r, z):
        with np.errstate(over="ignore", divide="ignore"):
            q = np.square(np.asarray(model.rho(r, z), dtype=np.float64))
            np.divide(shift, q, out=q)
        if not q.max() < math.inf:
            raise DomainError(f"h = {params.h!r}: h^2 / (4 rho^2) overflows")
        return q

    return assemble(grid, CoefficientFields(model.v_s, reaction))


def harmonic_rhs(op: DiscreteOperator, m: int, source_node: Tuple[int, int],
                 f_m: float, sums: RunningSums) -> np.ndarray:
    """Right-hand side of harmonic ``m`` in the SPD orientation used by the
    iterative solvers (the radially weighted negative of the divergence-form
    equation): a point source at ``source_node = (k, i)`` scaled by
    ``f_m / (2 pi h1 h2)`` minus the coupling field from previous harmonics.

    The coupling carries ``r * h^2 / rho^2``, which equals four times the
    operator's stored reaction array, so no coefficient re-sampling happens
    here.
    """
    g = op.grid
    k0, i0 = source_node
    nz, nu = g.unknown_shape
    if not (0 <= k0 < nz and 0 <= i0 < nu):
        raise DomainError(f"source node {source_node} outside {g.unknown_shape}")
    rhs = -4.0 * op.reaction * sums.weighted_combination(m)
    rhs[k0, i0] += f_m / (2.0 * np.pi * g.dr * g.dz)
    return rhs


def _galerkin_coefficients(gram: np.ndarray, g: np.ndarray
                           ) -> Optional[np.ndarray]:
    """``c`` with ``gram c = g`` over the directions a pivoted Cholesky
    factorization of the symmetric part of ``gram`` keeps, zero on the
    rest; None when it keeps none.

    The factorization stops at the first pivot at or below ``_GRAM_FLOOR``
    times the largest diagonal entry, so nearly dependent directions drop
    out.  It runs in numpy without LAPACK: the system is at most
    ``_WINDOW`` square.
    """
    a = 0.5 * (gram + gram.T)
    n = g.size
    order = np.arange(n)
    floor = _GRAM_FLOOR * max(float(a.diagonal().max()), 0.0)
    kept = 0
    while kept < n:
        j = kept + int(np.argmax(a.diagonal()[kept:]))
        if not a[j, j] > floor:
            break
        a[[kept, j]] = a[[j, kept]]
        a[:, [kept, j]] = a[:, [j, kept]]
        order[[kept, j]] = order[[j, kept]]
        a[kept, kept] = math.sqrt(a[kept, kept])
        a[kept + 1:, kept] /= a[kept, kept]
        col = a[kept + 1:, kept]
        a[kept + 1:, kept + 1:] -= np.outer(col, col)
        kept += 1
    if kept == 0:
        return None
    low = a[:kept, :kept]            # lower-triangular factor, diagonal first
    y = g[order[:kept]]
    for i in range(kept):                            # low y' = g
        y[i] = (y[i] - low[i, :i] @ y[:i]) / low[i, i]
    for i in reversed(range(kept)):                  # low^T c = y'
        y[i] = (y[i] - low[i + 1:, i] @ y[i + 1:]) / low[i, i]
    c = np.zeros(n)
    c[order[:kept]] = y
    return c


def solve_all_harmonics(grid: Grid2D, model: MediumModel,
                        params: LaguerreParams, wavelet: Wavelet, *,
                        source: Tuple[float, float] = (0.0, 0.0),
                        method: str = "pcg", tol: float = 1e-10,
                        maxiter: int = 500, ranks: int = 1,
                        executor: str = "sim",
                        progress: Optional[Callable] = None) -> LaguerreSeries:
    """Solve the whole chain of elliptic problems for harmonics
    ``0 .. n_terms-1``.

    The operator and the separable preconditioner are built once; the solves
    change only the rhs, and the read-only operator is hashed once, for the
    series.  Each harmonic m >= 1 starts from the A-orthogonal (Galerkin)
    projection of its solution onto the last ``_WINDOW`` harmonics: the
    harmonics span a Krylov space of ``A^-1 R`` (R the coupling), so that
    combination holds all but the newest direction.  The window's Gram
    matrix ``G_ij = q_i . b_j`` (``A q_j = b_j``) costs one product of the
    window with each rhs plus ``q_m . b_m``; the solver's first step is a
    line search along the projection with the true operator.  When
    harmonic 0 converged in one inversion (an exact preconditioner, as in
    a homogeneous medium) every harmonic does, and none is projected.
    Chebyshev runs over the preconditioner's closed-form interval
    (:meth:`SovPreconditioner.bounds_for`), kept in the series.
    Solver failures are re-raised as
    :class:`HarmonicSolveFailure` carrying the harmonic index.
    ``progress(m, report)`` is invoked after each harmonic when given.

    The chain solves for the source coefficients scaled by a power of two
    2**-e to a largest magnitude in [0.5, 1) (the reports describe those
    solves) and scales the harmonics back by 2**e, so a source of any
    amplitude keeps the chain's inner products in range; harmonics beyond
    the float range raise :class:`DomainError` naming the amplitude.
    """
    if method not in ("pcg", "chebyshev"):
        raise DomainError(f"method must be 'pcg' or 'chebyshev', got {method!r}")
    coeffs = project_source(wavelet, params.n_terms - 1, params.alpha,
                            params.h, t_upper=wavelet.support_end)
    # the chain is linear in the source, and powers of two scale exactly:
    # wherever the unscaled chain stays in range, the harmonics are its bits
    e = math.frexp(float(np.abs(coeffs).max()))[1]
    unit = np.ldexp(coeffs, -e)
    op = harmonic_operator(grid, model, params)
    pc = SovPreconditioner.from_operator(op, ranks=ranks, executor=executor)
    bounds = pc.bounds_for(op) if method == "chebyshev" else None

    node = grid.nearest_node(*source)
    sums = RunningSums(grid, params.alpha)
    harmonics = np.zeros((params.n_terms,) + grid.unknown_shape)
    flat = harmonics.reshape(params.n_terms, -1)
    gram = np.zeros((_WINDOW, _WINDOW))   # q_i . b_j over the window
    project = False
    total_binv = 0
    iterations = []
    for m in range(params.n_terms):
        rhs = harmonic_rhs(op, m, node, float(unit[m]), sums)
        b = rhs.reshape(-1)
        guess = None
        if project:
            w = min(m, _WINDOW)
            window = flat[m - w:m]
            g = window @ b                      # q_j . b_m, j in the window
            c = _galerkin_coefficients(gram[:w, :w], g)
            if c is not None and c.any():
                guess = c @ window
        try:
            if method == "pcg":
                x, report = pcg_solve(op.apply_spd, pc.apply_inverse, rhs,
                                      tol=tol, maxiter=maxiter, guess=guess)
            else:
                x, report = chebyshev_solve(op.apply_spd, pc.apply_inverse,
                                            rhs, bounds, tol=tol,
                                            maxiter=maxiter, guess=guess)
        except SolverError as exc:
            raise HarmonicSolveFailure(m, exc) from exc
        if m == 0:
            project = report.binv_applications > 1
            g = np.zeros(0)
        if project:
            k = min(m, _WINDOW - 1)             # row of harmonic m
            if m >= _WINDOW:                    # the oldest harmonic leaves
                gram[:-1, :-1] = gram[1:, 1:]
                g = g[1:]
            gram[k, :k] = gram[:k, k] = g
            gram[k, k] = float(x @ b)
        q_m = x.reshape(grid.unknown_shape)
        harmonics[m] = q_m
        sums.absorb(q_m)
        total_binv += report.binv_applications
        iterations.append(report.iterations)
        if progress is not None:
            progress(m, report)
        del x, q_m, report                # not held through the next solve
    try:
        with np.errstate(over="raise"):
            np.ldexp(harmonics, e, out=harmonics)
    except FloatingPointError:
        raise DomainError(
            f"the harmonics of a wavelet of amplitude {wavelet.amplitude!r} "
            f"leave the float range") from None
    return LaguerreSeries(grid=grid, params=params, harmonics=harmonics,
                          source_coeffs=coeffs, binv_applications=total_binv,
                          operator_checksum=op.checksum(),
                          iterations=tuple(iterations),
                          spectral_bounds=bounds)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _synthesis_weights(params: LaguerreParams, times) -> np.ndarray:
    """Rows of ``(h t)^(alpha/2) l_m(h t)``, the Laguerre table at power
    alpha, for every requested time (:func:`~axisolver.laguerre.scaled_times`
    refuses a time, the table's :class:`OverflowGuard` a weight)."""
    return laguerre_function_table(params.n_terms - 1, params.alpha,
                                   scaled_times(params.h, times), h=params.h,
                                   power=params.alpha)


def reconstruct(series: LaguerreSeries, times,
                positions: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Receiver traces ``u(x_j, t_i)`` as an ``(n_times, n_positions)``
    array; each ``(r, z)`` position snaps to its nearest grid node."""
    weights = _synthesis_weights(series.params, times)
    nodes = [series.grid.nearest_node(r, z) for r, z in positions]
    if not nodes:
        raise DomainError("need at least one receiver position")
    q_sel = np.stack([series.harmonics[:, k, i] for k, i in nodes], axis=1)
    return _in_range(lambda: weights @ q_sel, "receiver trace values")


def snapshot_field(series: LaguerreSeries, t: float) -> np.ndarray:
    """The full wavefield at one instant (shape ``grid.unknown_shape``)."""
    weights = _synthesis_weights(series.params, [t])[0]
    return _in_range(lambda: np.tensordot(weights, series.harmonics,
                                          axes=(0, 0)), "snapshot values")


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_seismogram(path, times, traces) -> None:
    """CSV with header ``t, u(x1), u(x2), ...``; values as shortest
    round-trip decimals so reruns are byte-identical."""
    times = np.asarray(times, dtype=np.float64).ravel()
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[0] != times.size:
        raise DomainError(
            f"traces must be (n_times, n_receivers), got {traces.shape}")
    header = ", ".join(["t"] + [f"u(x{j + 1})" for j in
                                range(traces.shape[1])])
    lines = [header]
    for t, row in zip(times, traces):
        lines.append(", ".join([repr(float(t))]
                               + [repr(float(v)) for v in row]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot(path, series: LaguerreSeries, t: float) -> np.ndarray:
    """Raw-grid snapshot of the field at time ``t`` plus a ``.meta`` text
    sidecar recording the instant, the grid, and the transform parameters.
    Returns the synthesized field (full node grid: the zero-valued outer
    wall column is appended so the file is a complete (nz, nr) panel)."""
    inner = snapshot_field(series, t)
    fld = np.concatenate([inner, np.zeros((series.grid.nz, 1))], axis=1)
    write_field_raw(path, series.grid, fld)
    g, p = series.grid, series.params
    meta = "\n".join([
        f"t = {float(t)!r}",
        f"nr = {g.nr} nz = {g.nz} rmax = {g.rmax!r} zmax = {g.zmax!r}",
        f"h = {p.h!r} alpha = {p.alpha} n_terms = {p.n_terms}",
    ]) + "\n"
    with open(f"{path}.meta", "w", encoding="ascii") as fh:
        fh.write(meta)
    return fld
