"""Preconditioned iterative solvers for symmetric positive-definite systems.

Both solvers consume the operator and the preconditioner as callables
(``apply_op(v)``, ``apply_pc(v)`` for the inverse preconditioner action) so
they work with matrix-free discretizations.  They report work in terms of
preconditioner applications, the unit the mesh-independence diagnostics are
stated in.

``pcg_solve`` is the conjugate-gradient iteration with a symmetric positive
preconditioner.  ``chebyshev_solve`` is the two-term Chebyshev semi-iteration
over a given spectral interval of the preconditioned operator; it needs no
inner products, so the residual norm is evaluated only at sparse convergence
checkpoints (first after one step, then every ``check_every`` steps), making
the per-step cost communication-free in a distributed setting.
``estimate_bounds`` recovers a spectral interval for the Chebyshev method
from the tridiagonal (Lanczos) coefficients of a short conjugate-gradient
probe run.

Both solvers call an optional ``trace(it, x, relres)`` after each residual
check; ``x`` is a read-only view of the live iterate, valid during the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (Breakdown, DomainError, InvalidBounds, MaxIterExceeded,
                     as_integer)

__all__ = ["SpectralBounds", "IterationReport", "pcg_solve",
           "chebyshev_solve", "estimate_bounds"]


@dataclass(frozen=True)
class SpectralBounds:
    """A positive interval [lower, upper] enclosing the spectrum of the
    preconditioned operator."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InvalidBounds(f"bounds must be finite, got "
                                f"[{self.lower}, {self.upper}]")
        if not (0.0 < self.lower <= self.upper):
            raise InvalidBounds(
                f"need 0 < lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def ratio(self) -> float:
        """lower/upper in (0, 1]; the equivalence ratio of the pair."""
        return self.lower / self.upper

    @property
    def condition(self) -> float:
        return self.upper / self.lower

    @property
    def convergence_factor(self) -> float:
        """Asymptotic error reduction per step, (1 - sqrt(ratio))/(1 + sqrt(ratio))."""
        s = np.sqrt(self.ratio)
        return (1.0 - s) / (1.0 + s)


@dataclass(frozen=True)
class IterationReport:
    """Outcome of an iterative solve."""

    iterations: int
    final_relres: float
    converged: bool
    binv_applications: int
    history: Tuple[Tuple[int, float], ...] = ()
    solution: Optional[np.ndarray] = field(default=None, repr=False)


def _read_only(x: np.ndarray) -> np.ndarray:
    view = x.view()
    view.setflags(write=False)
    return view


def _flat(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(-1)


def _checked_problem(rhs, tol: float, maxiter) -> Tuple[np.ndarray, int]:
    """The flat rhs and ``maxiter`` as an int, once ``tol`` is finite and
    > 0, ``maxiter`` a whole number >= 1 and every rhs entry finite;
    otherwise :class:`DomainError`."""
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    maxiter = as_integer(maxiter, DomainError, "maxiter")
    if maxiter < 1:
        raise DomainError(f"maxiter must be >= 1, got {maxiter}")
    f = _flat(rhs)
    if not np.isfinite(f).all():
        raise DomainError("right-hand side has non-finite entries")
    return f, maxiter


def _pcg_steps(apply_op: Callable, apply_pc: Callable, f: np.ndarray):
    """The preconditioned conjugate-gradient recurrence from x = 0.

    Yields ``(x, r, alpha, beta)`` after each step, with the iterate and
    residual updated in place and ``beta`` the ratio that formed the step's
    direction (0.0 for the first).  Each step starts with one inversion, so
    a caller that stops after k steps has paid k.
    """
    x = np.zeros_like(f)
    r = f.copy()
    p = np.zeros_like(f)
    rz = np.inf                                   # so the first beta is 0.0
    while True:
        z = _flat(apply_pc(r))
        rz_new = float(r @ z)
        if not rz_new > 0.0:
            raise Breakdown(f"preconditioner lost positivity: "
                            f"r^T z = {rz_new!r}")
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
        Ap = _flat(apply_op(p))
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            raise Breakdown(f"direction lost positive curvature: "
                            f"p^T A p = {pAp!r}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        del z, Ap                     # not held through the next inversion
        yield x, r, alpha, beta


def pcg_solve(apply_op: Callable, apply_pc: Callable, rhs, *,
              tol: float = 1e-10, maxiter: int = 500,
              trace: Optional[Callable] = None
              ) -> Tuple[np.ndarray, IterationReport]:
    """Preconditioned conjugate gradients for SPD ``apply_op`` with SPD
    inverse-preconditioner action ``apply_pc``.

    Returns ``(x, report)`` once the 2-norm relative residual drops to
    ``tol``; raises :class:`MaxIterExceeded` (carrying the report with the
    last iterate) otherwise, and :class:`Breakdown` when a direction loses
    positive curvature, which signals a non-SPD pair.  ``trace`` (see the
    module docstring) runs after every iteration.  A ``tol`` that is not
    finite and positive, a ``maxiter`` that is not an integer >= 1 and a
    rhs with a non-finite entry raise :class:`DomainError` before any
    application.
    """
    f, maxiter = _checked_problem(rhs, tol, maxiter)
    norm_f = float(np.linalg.norm(f))
    if norm_f == 0.0:
        report = IterationReport(0, 0.0, True, 0, (), np.zeros_like(f))
        return np.zeros_like(f), report

    history = []
    steps = islice(_pcg_steps(apply_op, apply_pc, f), maxiter)
    for it, (x, r, _alpha, _beta) in enumerate(steps, 1):
        relres = float(np.linalg.norm(r)) / norm_f
        history.append((it, relres))
        if trace is not None:
            trace(it, _read_only(x), relres)
        if relres <= tol:
            report = IterationReport(it, relres, True, it,
                                     tuple(history), x)
            return x, report
    report = IterationReport(maxiter, relres, False, maxiter,
                             tuple(history), x)
    raise MaxIterExceeded(report)


def chebyshev_solve(apply_op: Callable, apply_pc: Callable, rhs,
                    bounds: SpectralBounds, *, tol: float = 1e-10,
                    maxiter: int = 1000, check_every: int = 8,
                    trace: Optional[Callable] = None
                    ) -> Tuple[np.ndarray, IterationReport]:
    """Two-term Chebyshev semi-iteration over ``bounds``.

    The residual 2-norm is evaluated only after the first step and then
    every ``check_every`` steps, so steps in between involve no reductions.
    Convergence semantics match :func:`pcg_solve`, and so do the
    :class:`DomainError` cases for ``tol``, ``maxiter`` and the rhs.
    """
    f, maxiter = _checked_problem(rhs, tol, maxiter)
    check_every = as_integer(check_every, InvalidBounds, "check_every")
    if check_every < 1:
        raise InvalidBounds(f"check_every must be >= 1, got {check_every}")
    norm_f = float(np.linalg.norm(f))
    if norm_f == 0.0:
        report = IterationReport(0, 0.0, True, 0, (), np.zeros_like(f))
        return np.zeros_like(f), report

    theta = 0.5 * (bounds.upper + bounds.lower)
    delta = 0.5 * (bounds.upper - bounds.lower)
    x = np.zeros_like(f)
    r = f.copy()
    d = _flat(apply_pc(r)) / theta
    binv = 1
    history = []
    scalar_spectrum = delta <= 1e-14 * theta
    sigma1 = None if scalar_spectrum else theta / delta
    rho = None if scalar_spectrum else 1.0 / sigma1
    for it in range(1, maxiter + 1):
        x += d
        r -= _flat(apply_op(d))
        if it == 1 or it % check_every == 0:
            relres = float(np.linalg.norm(r)) / norm_f
            history.append((it, relres))
            if trace is not None:
                trace(it, _read_only(x), relres)
            if relres <= tol:
                report = IterationReport(it, relres, True, binv,
                                         tuple(history), x)
                return x, report
        z = _flat(apply_pc(r))
        binv += 1
        if scalar_spectrum:
            d = z / theta
        else:
            rho_next = 1.0 / (2.0 * sigma1 - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / delta) * z
            rho = rho_next
        del z                         # not held through the next inversion
    final = float(np.linalg.norm(r)) / norm_f
    history.append((maxiter, final))
    report = IterationReport(maxiter, final, False, binv, tuple(history), x)
    raise MaxIterExceeded(report)


def estimate_bounds(apply_op: Callable, apply_pc: Callable, n: int, *,
                    steps: int = 50) -> SpectralBounds:
    """Spectral interval of the preconditioned operator from the Lanczos
    coefficients of one short conjugate-gradient run.

    The run on a seeded random right-hand side yields step sizes ``alpha_j``
    and direction ratios ``beta_j``; the associated Jacobi matrix has
    diagonal ``1/alpha_j + beta_{j-1}/alpha_{j-1}`` and off-diagonal
    ``sqrt(beta_j)/alpha_j``, and its eigenvalues approximate the extreme
    eigenvalues from inside, so the result is widened by 5 %.
    ``steps`` below 1 raises :class:`DomainError`.
    """
    if n < 1:
        raise InvalidBounds(f"need n >= 1, got {n}")
    steps = as_integer(steps, DomainError, "steps")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    f = np.random.default_rng(0).standard_normal(n)
    norm_f = float(np.linalg.norm(f))
    alphas, betas = [], []
    for _x, r, alpha, beta in islice(_pcg_steps(apply_op, apply_pc, f), steps):
        alphas.append(alpha)
        betas.append(beta)
        if float(np.linalg.norm(r)) <= 1e-14 * norm_f:
            break
    alphas = np.array(alphas)
    betas = np.array(betas[1:])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    theta = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    return SpectralBounds(0.95 * float(theta.min()), 1.05 * float(theta.max()))
