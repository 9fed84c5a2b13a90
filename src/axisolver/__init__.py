"""axisolver: axisymmetric elliptic and acoustic solvers on distributed
tridiagonal kernels.

The subpackages group by layer — ``tridiag``/``comm``/``dichotomy`` are the
distributed linear-algebra kernels, ``fourier``/``sov``/``iterative`` build
the preconditioned elliptic solvers on top of them, ``elliptic`` holds the
discretization, and ``laguerre``/``acoustic`` add the spectral-in-time wave
simulator.  ``cli``/``config`` wrap everything for the ``axisolver`` console
command.  The most commonly used names are re-exported here.
"""

from .errors import (Breakdown, ConfigError, Deadlock, DimensionMismatch,
                     DomainError, HarmonicSolveFailure, InvalidBounds,
                     InvalidPartition, MaxIterExceeded, SolverError)
from .tridiag import TridiagonalMatrix, thomas_solve
from .comm import CommStats, CommWorld
from .dichotomy import (DichotomyPlan, Partition, build_plan,
                        predict_time_cyclic, predict_time_dichotomy,
                        solve_many, solve_series)
from .elliptic import (CoefficientFields, DiscreteOperator, Grid2D, assemble,
                       manufactured_problem, read_field_raw, read_field_text,
                       sampler_from_field, weighted_source, write_field_raw,
                       write_field_text)
from .sov import SovPreconditioner
from .iterative import IterationReport, chebyshev_solve, pcg_solve
from .laguerre import project_source, reconstruct_signal
from .acoustic import (LaguerreParams, LaguerreSeries, MediumModel, Wavelet,
                       reconstruct, snapshot_field, solve_all_harmonics,
                       write_seismogram, write_snapshot)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SolverError", "DimensionMismatch", "DomainError", "InvalidPartition",
    "InvalidBounds", "Breakdown", "MaxIterExceeded", "Deadlock",
    "ConfigError", "HarmonicSolveFailure",
    # tridiagonal kernels and the distributed solver
    "TridiagonalMatrix", "thomas_solve", "CommWorld", "CommStats",
    "Partition", "DichotomyPlan", "build_plan", "solve_many", "solve_series",
    "predict_time_dichotomy", "predict_time_cyclic",
    # elliptic discretization and preconditioned iterations
    "Grid2D", "CoefficientFields", "DiscreteOperator", "assemble",
    "weighted_source", "manufactured_problem", "write_field_text", "read_field_text",
    "write_field_raw", "read_field_raw", "sampler_from_field",
    "SovPreconditioner", "IterationReport", "pcg_solve", "chebyshev_solve",
    # spectral-in-time acoustics
    "project_source", "reconstruct_signal", "LaguerreParams", "Wavelet",
    "MediumModel", "LaguerreSeries", "solve_all_harmonics", "reconstruct",
    "snapshot_field", "write_seismogram", "write_snapshot",
]
