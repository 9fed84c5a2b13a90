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
checkpoints (after the first step, every ``check_every`` steps and the last
allowed step), making the per-step cost communication-free in a distributed
setting.  Each method is one step generator run by one convergence loop.
The Chebyshev interval comes from the caller; for the axisymmetric
operator under the separable preconditioner,
:meth:`axisolver.sov.SovPreconditioner.bounds_for` gives one in closed form
that encloses the whole spectrum.

Both solvers start from x = 0 unless given a ``guess`` d.  Then step 1 is
the line search x = alpha d with alpha = (d . b) / (d . A d): one operator
apply and no inversion, after which the method's own steps continue from x.
It counts as an iteration, is checked and traced like any step, and raises
:class:`Breakdown` when d . A d <= 0.  So ``iterations`` counts operator
applies and ``binv_applications`` the inversions actually made: one fewer
than the iterations with a guess, equal to them without.

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
           "chebyshev_solve"]


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


@dataclass(frozen=True)
class IterationReport:
    """Outcome of an iterative solve."""

    iterations: int
    final_relres: float
    converged: bool
    binv_applications: int
    history: Tuple[Tuple[int, float], ...] = ()
    solution: Optional[np.ndarray] = field(default=None, repr=False)


def _flat(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(-1)


def _checked_problem(rhs, tol: float, maxiter, guess=None
                     ) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """The flat rhs, ``maxiter`` as an int and the flat guess (or None),
    once ``tol`` is finite and > 0, ``maxiter`` a whole number >= 1 and
    every rhs and guess entry finite, the guess as long as the rhs;
    otherwise :class:`DomainError`."""
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    maxiter = as_integer(maxiter, DomainError, "maxiter")
    if maxiter < 1:
        raise DomainError(f"maxiter must be >= 1, got {maxiter}")
    f = _flat(rhs)
    if not np.isfinite(f).all():
        raise DomainError("right-hand side has non-finite entries")
    if guess is not None:
        guess = _flat(guess)
        if guess.size != f.size:
            raise DomainError(f"guess has {guess.size} entries, the "
                              f"right-hand side {f.size}")
        if not np.isfinite(guess).all():
            raise DomainError("guess has non-finite entries")
        if not guess.flags.writeable or np.may_share_memory(guess, f):
            guess = guess.copy()
    return f, maxiter, guess


def _steps_from(apply_op: Callable, f: np.ndarray, guess, method_steps):
    """``method_steps(x, r)`` from x = 0, r = f; with a ``guess`` d, first
    the line search x = alpha d, alpha = (d . f) / (d . A d), as step 1:
    one operator apply and no inversion.  ``d`` becomes the iterate."""
    if guess is None:
        yield from method_steps(np.zeros_like(f), f.copy())
        return
    r = _flat(apply_op(guess))
    dAd = float(guess @ r)
    if not dAd > 0.0:
        raise Breakdown(f"guess has no positive curvature: d^T A d = {dAd!r}")
    alpha = float(guess @ f) / dAd
    guess *= alpha
    r *= -alpha
    r += f
    yield guess, r
    yield from method_steps(guess, r)


def _pcg_steps(apply_op: Callable, apply_pc: Callable, x: np.ndarray,
               r: np.ndarray):
    """The preconditioned conjugate-gradient recurrence from the iterate
    ``x`` with residual ``r``.

    Yields ``(x, r)`` after each step, with the iterate and residual
    updated in place.  Each step starts with one inversion, so a caller
    that stops after k steps has paid k.
    """
    p = np.zeros_like(r)
    rz = np.inf                                   # so the first beta is 0.0
    while True:
        z = _flat(apply_pc(r))
        rz_new = float(r @ z)
        if not rz_new > 0.0:
            raise Breakdown(f"preconditioner lost positivity: "
                            f"r^T z = {rz_new!r}")
        p *= rz_new / rz
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
        yield x, r


def _chebyshev_steps(apply_op: Callable, apply_pc: Callable, x: np.ndarray,
                     r: np.ndarray, bounds: SpectralBounds):
    """The two-term Chebyshev recurrence over ``bounds`` from ``x`` with
    residual ``r`` (Saad, Iterative Methods for Sparse Linear Systems,
    Algorithm 12.1), written with ``w = delta * rho`` so nothing divides by
    the half-width ``delta``; yields ``(x, r)`` like :func:`_pcg_steps`."""
    theta = 0.5 * (bounds.upper + bounds.lower)
    delta = 0.5 * (bounds.upper - bounds.lower)
    z = _flat(apply_pc(r))
    d, w = z / theta, delta * delta / theta
    while True:
        del z                         # not held through the next inversion
        x += d
        r -= _flat(apply_op(d))
        yield x, r
        z = _flat(apply_pc(r))
        scale = 2.0 * theta - w
        d = (w * d + 2.0 * z) / scale
        w = delta * delta / scale


def _run_to_tol(apply_op: Callable, method_steps, f: np.ndarray, guess,
                tol: float, maxiter: int, check_every: int,
                trace: Optional[Callable]
                ) -> Tuple[np.ndarray, IterationReport]:
    """Run :func:`_steps_from` until the relative residual, read after step
    1, each ``check_every``-th step and step ``maxiter``, reaches ``tol``;
    each read adds a history row and calls ``trace``."""
    norm_f = float(np.linalg.norm(f))
    if norm_f == 0.0:
        x = np.zeros_like(f)
        return x, IterationReport(0, 0.0, True, 0, (), x)
    free = 0 if guess is None else 1              # steps with no inversion
    steps = _steps_from(apply_op, f, guess, method_steps)
    history = []
    for it, (x, r) in enumerate(islice(steps, maxiter), 1):
        if it % check_every and it != 1 and it != maxiter:
            continue
        relres = float(np.linalg.norm(r)) / norm_f
        history.append((it, relres))
        if trace is not None:
            view = x.view()
            view.setflags(write=False)
            trace(it, view, relres)
        if relres <= tol:
            return x, IterationReport(it, relres, True, it - free,
                                      tuple(history), x)
    raise MaxIterExceeded(IterationReport(maxiter, relres, False,
                                          maxiter - free, tuple(history), x))


def pcg_solve(apply_op: Callable, apply_pc: Callable, rhs, *,
              tol: float = 1e-10, maxiter: int = 500,
              trace: Optional[Callable] = None, guess=None
              ) -> Tuple[np.ndarray, IterationReport]:
    """Preconditioned conjugate gradients for SPD ``apply_op`` with SPD
    inverse-preconditioner action ``apply_pc``.

    Returns ``(x, report)`` once the 2-norm relative residual drops to
    ``tol``; raises :class:`MaxIterExceeded` (carrying the report with the
    last iterate) otherwise, and :class:`Breakdown` when a direction loses
    positive curvature, which signals a non-SPD pair.  ``trace`` (see the
    module docstring) runs after every iteration.  A ``guess`` starts the
    solve with the line search of the module docstring; the solver may
    overwrite a float64 guess and return it as ``x``.  A ``tol`` that is
    not finite and positive, a ``maxiter`` that is not an integer >= 1, a
    rhs or guess with a non-finite entry and a guess whose size is not the
    rhs's raise :class:`DomainError` before any application.
    """
    f, maxiter, guess = _checked_problem(rhs, tol, maxiter, guess)
    return _run_to_tol(
        apply_op, lambda x, r: _pcg_steps(apply_op, apply_pc, x, r), f,
        guess, tol, maxiter, 1, trace)


def chebyshev_solve(apply_op: Callable, apply_pc: Callable, rhs,
                    bounds: SpectralBounds, *, tol: float = 1e-10,
                    maxiter: int = 1000, check_every: int = 8,
                    trace: Optional[Callable] = None, guess=None
                    ) -> Tuple[np.ndarray, IterationReport]:
    """Two-term Chebyshev semi-iteration over ``bounds``.

    The residual 2-norm is read only at the checkpoints of the module
    docstring, so steps in between involve no reductions.  Everything
    else, ``guess`` and :class:`DomainError` cases included, matches
    :func:`pcg_solve`.
    """
    f, maxiter, guess = _checked_problem(rhs, tol, maxiter, guess)
    check_every = as_integer(check_every, InvalidBounds, "check_every")
    if check_every < 1:
        raise InvalidBounds(f"check_every must be >= 1, got {check_every}")
    return _run_to_tol(
        apply_op,
        lambda x, r: _chebyshev_steps(apply_op, apply_pc, x, r, bounds), f,
        guess, tol, maxiter, check_every, trace)
