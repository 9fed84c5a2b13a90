"""Exception types shared across the solver stack.

Every failure mode that callers are expected to handle gets its own class so
that CLI exit-code mapping and tests can discriminate without string matching.
"""


def as_integer(value, error: type, what: str) -> int:
    """``value`` as an int if it is a whole number, else raise ``error``."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be an integer, got {value!r}")


class SolverError(Exception):
    """Base class for all axisolver errors."""


class DimensionMismatch(SolverError):
    """Array shapes disagree with the documented contract."""


class ZeroPivot(SolverError):
    """Elimination hit a pivot with magnitude below the hard floor (1e-300)."""

    def __init__(self, row: int, value: float):
        self.row = row
        self.value = value
        super().__init__(f"pivot {value!r} at row {row} below 1e-300")


class InvalidPartition(SolverError):
    """Block partition violates its contract (sizes >= 2, sum == n)."""


class DomainError(SolverError):
    """An argument lies outside a closed-form model's domain of validity."""


class SingularPlan(SolverError):
    """A dichotomy plan ratio would divide by a vanishing boundary weight."""


class Deadlock(SolverError):
    """Simulated communication reached a state where no rank can progress."""

    def __init__(self, blocked: dict):
        self.blocked = dict(blocked)
        super().__init__(f"deadlock: blocked ranks {sorted(self.blocked)} "
                         f"waiting on {self.blocked}")


class NonPositiveCoefficient(SolverError):
    """A sampled diffusion/reaction coefficient broke its sign contract."""


class BoundaryViolation(SolverError):
    """A manufactured solution fails the boundary conditions it must satisfy."""


class Breakdown(SolverError):
    """Conjugate-gradient direction lost positive curvature (p^T A p <= 0)."""


class MaxIterExceeded(SolverError):
    """Iteration budget exhausted before the residual target was met."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"no convergence in {report.iterations} iterations "
            f"(relative residual {report.final_relres:.3e})")


class QuadratureNotConverged(SolverError):
    """Adaptive quadrature failed to stabilize under node doubling."""


class OverflowGuard(SolverError):
    """A recurrence intermediate exceeded the 1e300 safety bound."""


class ConfigError(SolverError):
    """Bad or inconsistent run configuration (CLI exit code 2)."""


class IndexOutOfRange(SolverError):
    """A rank count, a peer rank or a reduce group is out of range."""


class MismatchedLength(SolverError):
    """Collective participants supplied contributions of different lengths."""


class WorkerStartFailure(SolverError, RuntimeError):
    """A worker thread of the ``threads`` executor could not start."""


class MissingParticipant(SolverError):
    """A collective completed a step without hearing from every group member."""


class InvalidBounds(SolverError):
    """Spectral bounds are unusable (non-positive or wrongly ordered)."""


class HarmonicSolveFailure(SolverError):
    """An elliptic solve failed for one spectral-time harmonic.

    Carries the harmonic index and chains the underlying solver error.
    """

    def __init__(self, harmonic: int, cause: Exception):
        self.harmonic = harmonic
        self.cause = cause
        super().__init__(f"harmonic {harmonic}: {cause}")
