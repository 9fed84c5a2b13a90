"""Conservative finite-volume discretization of the axisymmetric operator

    (1/r) d/dr ( r kappa(r,z) du/dr ) + d/dz ( kappa(r,z) du/dz ) - q(r,z) u

on a half-cell-offset tensor grid in (r, z).

Geometry
--------
Nodes sit at ``r_i = (i - 0.5) dr`` (i = 1..nr) with ``dr = rmax/(nr - 0.5)``
so the last node falls exactly on the Dirichlet boundary ``r = rmax``, and at
``z_k = (k - 0.5) dz`` (k = 1..nz) with ``dz = zmax/nz`` so both zero-flux
boundaries ``z = 0`` and ``z = zmax`` fall exactly on cell faces.  The first
r-node sits half a cell off the axis; the face between it and the axis
carries the weight ``r * kappa`` evaluated at ``r = 0``, which vanishes
identically, so the axis needs no special branch.  Zero-flux closure in z is
imposed by dropping the two boundary-face fluxes, which is exact there.
(Placing a node on a zero-flux boundary instead would cost an order of
accuracy and would break the exact cosine-mode diagonalization the
separation-of-variables preconditioner relies on.)

Unknowns are the nodes i = 1..nr-1, k = 1..nz (the column i = nr is the
Dirichlet ghost, identically zero), stored row-major with k outer and i
inner so that r-lines are contiguous.

Sign convention
---------------
``DiscreteOperator.apply_spd`` is the symmetric positive-definite form
``reaction * y - (div_r + div_z) y``; :func:`weighted_source` forms the
right-hand side ``r * f`` that pairs with it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (BoundaryViolation, ConfigError, DimensionMismatch,
                     DomainError, NonPositiveCoefficient, as_integer)
from .tridiag import frozen_copy

__all__ = [
    "Grid2D", "CoefficientFields", "DiscreteOperator", "assemble",
    "weighted_source", "manufactured_problem", "check_boundary_conditions",
    "write_field_text", "read_field_text", "write_field_raw",
    "read_field_raw", "sampler_from_field",
]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid2D:
    """Half-cell-offset tensor grid on [0, rmax] x [0, zmax].

    ``nr``/``nz`` count nodes along r/z, including the Dirichlet column at
    ``r = rmax``.  Extents that are not finite and positive, or a spacing
    whose square leaves the float range (:meth:`spacing_squares`), raise
    :class:`DomainError`.
    """

    nr: int
    nz: int
    rmax: float
    zmax: float

    def __post_init__(self):
        for name in ("nr", "nz"):
            object.__setattr__(self, name, as_integer(getattr(self, name),
                                                      DomainError, name))
        if self.nr < 2 or self.nz < 2:
            raise DomainError(f"need at least 2x2 nodes, got {self.nr}x{self.nz}")
        if not all(math.isfinite(x) and x > 0 for x in (self.rmax, self.zmax)):
            raise DomainError(
                f"domain extents must be positive and finite, got "
                f"rmax = {self.rmax!r}, zmax = {self.zmax!r}")
        self.spacing_squares()

    @property
    def dr(self) -> float:
        return self.rmax / (self.nr - 0.5)

    @property
    def dz(self) -> float:
        return self.zmax / self.nz

    def spacing_squares(self) -> Tuple[float, float]:
        """``(dr**2, dz**2)``; a square that is not finite and positive
        raises :class:`DomainError` naming the spacing."""
        squares = []
        for name, h in (("dr", self.dr), ("dz", self.dz)):
            try:
                square = h ** 2
            except OverflowError:
                square = math.inf
            if not 0.0 < square < math.inf:
                raise DomainError(f"grid spacing {name} = {h!r}: its square "
                                  f"is outside the float range")
            squares.append(square)
        return squares[0], squares[1]

    @property
    def r_nodes(self) -> np.ndarray:
        """Node radii, length nr; the last equals rmax exactly."""
        return (np.arange(1, self.nr + 1) - 0.5) * self.dr

    @property
    def z_nodes(self) -> np.ndarray:
        """Node depths, length nz; all interior, the last at zmax - dz/2."""
        return (np.arange(1, self.nz + 1) - 0.5) * self.dz

    @property
    def unknown_shape(self) -> Tuple[int, int]:
        """(nz, nr - 1): row-major, z outer, r inner."""
        return (self.nz, self.nr - 1)

    @property
    def n_unknowns(self) -> int:
        return self.nz * (self.nr - 1)

    def as_field(self, v) -> Tuple[np.ndarray, bool]:
        """``v`` as a float array of ``unknown_shape``, and whether it came
        flat (length ``n_unknowns``); any other shape raises
        :class:`DimensionMismatch`."""
        v = np.asarray(v, dtype=np.float64)
        flat = v.ndim == 1
        if v.shape != ((self.n_unknowns,) if flat else self.unknown_shape):
            raise DimensionMismatch(
                f"expected shape {self.unknown_shape} or "
                f"({self.n_unknowns},), got {v.shape}")
        return (v.reshape(self.unknown_shape) if flat else v), flat

    def node_mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        """(R, Z) broadcast to unknown_shape (Dirichlet column excluded)."""
        R = np.broadcast_to(self.r_nodes[: self.nr - 1], self.unknown_shape)
        Z = np.broadcast_to(self.z_nodes[:, None], self.unknown_shape)
        return R, Z

    def nearest_node(self, r: float, z: float) -> Tuple[int, int]:
        """0-based (k, i) of the node nearest to (r, z), clipped to unknowns."""
        if not (math.isfinite(r) and math.isfinite(z)):
            raise DomainError(f"position ({r!r}, {z!r}) is not finite")
        i = int(np.clip(round(r / self.dr - 0.5), 0, self.nr - 2))
        k = int(np.clip(round(z / self.dz - 0.5), 0, self.nz - 1))
        return k, i


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def _sample(fn: Callable, R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Evaluate a (r, z) sampler on broadcast arrays: it takes the arrays
    whole, and a result of a smaller shape (a constant) is broadcast."""
    out = np.asarray(fn(R, Z), dtype=np.float64)
    if out.shape != np.broadcast_shapes(R.shape, Z.shape):
        out = np.broadcast_to(out, np.broadcast_shapes(R.shape, Z.shape)).copy()
    return out


@dataclass(frozen=True)
class CoefficientFields:
    """Samplers for the diffusivity ``kappa(r, z) > 0`` and the reaction
    coefficient ``reaction(r, z) >= 0``.

    :func:`assemble` samples both once, at their staggered points, and
    checks the signs there; ``reaction = 0`` is admitted, definiteness then
    coming from the Dirichlet column.
    """

    kappa: Callable
    reaction: Callable

    @classmethod
    def constant(cls, kappa_value: float, reaction_value: float = 0.0
                 ) -> "CoefficientFields":
        return cls(kappa=lambda r, z: np.full_like(np.asarray(r, float), kappa_value,
                                                   dtype=np.float64) + 0.0 * z,
                   reaction=lambda r, z: np.full_like(np.asarray(r, float),
                                                      reaction_value,
                                                      dtype=np.float64) + 0.0 * z)

    @classmethod
    def from_samplers(cls, kappa: Callable, reaction: Callable, grid: Grid2D
                      ) -> "CoefficientFields":
        """``cls(kappa, reaction)``: nothing is sampled and ``grid`` is
        unused.  Kept because ``perfbench/workloads.py`` calls it."""
        return cls(kappa, reaction)


# ---------------------------------------------------------------------------
# discrete operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled coefficient arrays of the finite-volume operator.

    ``r_faces[k, j]`` is the conductance ``r * kappa`` of the radial face at
    ``r = j * dr`` in z-row k (j = 0 is the axis face, identically zero;
    j = nr - 1 couples the last unknown to the Dirichlet ghost).
    ``z_faces[j, i]`` is the conductance of the z-face at ``z = j * dz``
    (j = 0 and j = nz carry the zero-flux closure and are zero).
    ``reaction`` holds ``r * q`` at the nodes.  The operator keeps
    read-only copies of the three arrays it is given; :func:`assemble`'s
    own arrays, which no caller holds, are frozen in place.
    """

    grid: Grid2D
    r_faces: np.ndarray
    z_faces: np.ndarray
    reaction: np.ndarray

    def __post_init__(self):
        g = self.grid
        expect = {
            "r_faces": (g.nz, g.nr),
            "z_faces": (g.nz + 1, g.nr - 1),
            "reaction": g.unknown_shape,
        }
        for name, shape in expect.items():
            object.__setattr__(self, name,
                               frozen_copy(getattr(self, name), name, shape))

    @classmethod
    def _adopt(cls, grid: Grid2D, r_faces: np.ndarray, z_faces: np.ndarray,
               reaction: np.ndarray) -> "DiscreteOperator":
        """The operator over arrays that no caller holds, made read-only
        in place instead of copied: :func:`assemble` hands over the
        arrays it has just built."""
        op = object.__new__(cls)
        object.__setattr__(op, "grid", grid)
        for name, arr in (("r_faces", r_faces), ("z_faces", z_faces),
                          ("reaction", reaction)):
            arr.setflags(write=False)
            object.__setattr__(op, name, arr)
        return op

    # -- application ------------------------------------------------------

    @cached_property
    def _conductances(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only conductances / dr**2 of the radial faces 1..nr-1 and
        / dz**2 of the z faces 1..nz-1, derived on first use."""
        dr2, dz2 = self.grid.spacing_squares()
        scaled = (self.r_faces[:, 1:] / dr2,
                  self.z_faces[1: self.grid.nz] / dz2)
        for c in scaled:
            c.setflags(write=False)
        return scaled

    def apply_spd(self, y) -> np.ndarray:
        """SPD orientation: reaction * y - (div_r + div_z) y, as a new
        C-ordered array in ``y``'s flat or grid form; ``y`` is not
        written.  Near the float limit, the discarded differences across
        row ends can warn of an overflow that no face has."""
        Y, flat = self.grid.as_field(y)
        c_r, c_z = self._conductances
        # C order whatever the input's: the radial half works on the flat
        # views of both buffers, and every pass runs on contiguous memory
        out = np.multiply(self.reaction, Y, out=np.empty(Y.shape))
        flux = np.empty(Y.shape)
        out1, flux1 = out.reshape(-1), flux.reshape(-1)
        # each face flux leaves the cell below it and enters the one above.
        # All radial differences are one flat difference; the entry at
        # each row end crosses into the next row and is overwritten by
        # the last face's, which reaches the Dirichlet ghost: 0 - Y[:, -1]
        y1 = Y.reshape(-1)
        np.subtract(y1[1:], y1[:-1], out=flux1[:-1])
        np.subtract(0.0, Y[:, -1], out=flux[:, -1])
        flux *= c_r
        out -= flux
        # the ghost face feeds no unknown: -0.0 makes the flat shifted add
        # an exact no-op at each row start (+0.0 would turn -0.0 into +0.0)
        flux[:, -1] = -0.0
        out1[1:] += flux1[:-1]
        flux = flux[:-1]                                   # z faces 1..nz-1
        np.subtract(Y[1:], Y[:-1], out=flux)
        flux *= c_z
        out[:-1] -= flux
        out[1:] += flux
        return out.ravel() if flat else out

    def checksum(self) -> str:
        """SHA-256 over the three coefficient arrays (the derived
        conductances excluded), identifying the operator."""
        h = hashlib.sha256()
        for arr in (self.r_faces, self.z_faces, self.reaction):
            h.update(arr.tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble(grid: Grid2D, fields: CoefficientFields) -> DiscreteOperator:
    """Sample the coefficients once at their staggered locations, check
    them and build the operator arrays.

    Radial faces take ``r * kappa`` at ``r = j * dr`` between neighbouring
    nodes; z-faces take ``r_i * kappa`` at ``z = j * dz``; nodes take
    ``r_i * q``.  Each sampler is evaluated once per point set: ``kappa``
    twice, ``reaction`` once.  A non-finite sample raises
    :class:`DomainError`, ``kappa <= 0`` or ``q < 0``
    :class:`NonPositiveCoefficient`, and a weighted coefficient beyond the
    float range :class:`DomainError` naming the coefficient.
    """
    g = grid
    r_face_pos = np.arange(g.nr) * g.dr                 # j = 0..nr-1
    z_col = g.z_nodes[:, None]

    kappa_rf = _sample(fields.kappa, r_face_pos[None, 1:], z_col)
    _validate_coefficient(kappa_rf, "kappa at radial faces")
    r_faces = np.zeros((g.nz, g.nr))
    _weighted(r_face_pos[1:][None, :], kappa_rf, "kappa at radial faces",
              out=r_faces[:, 1:])

    z_face_pos = np.arange(1, g.nz) * g.dz              # interior faces
    r_in = g.r_nodes[: g.nr - 1]
    kappa_zf = _sample(fields.kappa, r_in[None, :], z_face_pos[:, None])
    _validate_coefficient(kappa_zf, "kappa at z faces")
    z_faces = np.zeros((g.nz + 1, g.nr - 1))
    _weighted(r_in[None, :], kappa_zf, "kappa at z faces",
              out=z_faces[1: g.nz])

    R, Z = g.node_mesh()
    q = _sample(fields.reaction, R, Z)
    if not np.all(np.isfinite(q)):
        raise DomainError("reaction sampler produced non-finite values")
    if q.min() < 0:
        raise NonPositiveCoefficient(
            f"reaction coefficient must be >= 0, found {q.min()!r}")
    reaction = _weighted(R, q, "reaction")
    return DiscreteOperator._adopt(g, r_faces, z_faces, reaction)


def weighted_source(grid: Grid2D, f: Callable) -> np.ndarray:
    """The right-hand side ``r * f`` paired with ``apply_spd``, shaped
    ``grid.unknown_shape``: ``f`` is sampled once at the nodes; a
    non-finite sample, or a product beyond the float range, raises
    :class:`DomainError`."""
    R, Z = grid.node_mesh()
    samples = _sample(f, R, Z)
    if not np.all(np.isfinite(samples)):
        raise DomainError("source sampler produced non-finite values")
    return _weighted(R, samples, "source")


def _weighted(r: np.ndarray, values: np.ndarray, where: str,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``r * values`` of finite samples, written into ``out`` when given;
    a product beyond the float range raises :class:`DomainError` naming
    ``where``."""
    try:
        with np.errstate(over="raise"):
            return np.multiply(r, values, out=out)
    except FloatingPointError:
        raise DomainError(
            f"{where}: r * sample overflows the float range") from None


def _validate_coefficient(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{where}: non-finite sample")
    vmin = float(values.min())
    if vmin <= 0.0:
        raise NonPositiveCoefficient(f"{where}: sampled value {vmin!r} <= 0")


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------


def check_boundary_conditions(grid: Grid2D, exact: Callable) -> None:
    """Verify ``exact`` satisfies u = 0 at r = rmax and du/dz = 0 at
    z in {0, zmax} on sampled boundary points, to 1e-8 relative to the
    largest sampled magnitude (at least 1); raise BoundaryViolation."""
    g = grid
    zs = np.linspace(0.0, g.zmax, 33)
    rs = np.linspace(g.dr / 2, g.rmax, 33)
    u_wall = _sample(exact, np.full_like(zs, g.rmax), zs)
    hd = 1e-6 * g.zmax
    du_bottom = (_sample(exact, rs, np.full_like(rs, hd))
                 - _sample(exact, rs, np.full_like(rs, -hd))) / (2 * hd)
    du_top = (_sample(exact, rs, np.full_like(rs, g.zmax + hd))
              - _sample(exact, rs, np.full_like(rs, g.zmax - hd))) / (2 * hd)
    interior = _sample(exact, rs[None, :], zs[:, None])
    allowed = 1e-8 * max(1.0, float(np.abs(interior).max()))
    worst = {
        "u(rmax, z) = 0": float(np.abs(u_wall).max()),
        "du/dz(r, 0) = 0": float(np.abs(du_bottom).max()) * g.zmax,
        "du/dz(r, zmax) = 0": float(np.abs(du_top).max()) * g.zmax,
    }
    for name, err in worst.items():
        if err > allowed:
            raise BoundaryViolation(
                f"{name} violated: max deviation {err:.3e} "
                f"(allowed {allowed:.3e})")


def _d4(fn: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central first derivative of a one-argument callable."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def manufactured_problem(grid: Grid2D, exact: Callable,
                         fields: CoefficientFields,
                         source: Optional[Callable] = None
                         ) -> Tuple[DiscreteOperator, np.ndarray, np.ndarray]:
    """Build the operator together with the right-hand side that makes
    ``exact`` the continuum solution, plus the exact nodal values.

    If ``source`` is omitted the continuum source is produced by fourth-order
    numerical differentiation of ``exact`` and ``fields.kappa`` (both must be
    evaluable in a thin margin around the closed domain).  Returns
    ``(operator, rhs_for_apply_spd, exact_values)`` with the arrays shaped
    ``grid.unknown_shape``.
    """
    check_boundary_conditions(grid, exact)
    if source is None:
        hr = 5e-4 * grid.rmax
        hz = 5e-4 * grid.zmax

        def continuum_source(r, z):
            def radial_flux(rr):
                du = _d4(lambda s: _sample(exact, s, z), rr, hr)
                return rr * _sample(fields.kappa, rr, z) * du

            def vertical_flux(zz):
                du = _d4(lambda s: _sample(exact, r, s), zz, hz)
                return _sample(fields.kappa, r, zz) * du

            div_r = _d4(radial_flux, r, hr) / r
            div_z = _d4(vertical_flux, z, hz)
            qu = _sample(fields.reaction, r, z) * _sample(exact, r, z)
            return -(div_r + div_z - qu)

        source = continuum_source

    op = assemble(grid, fields)
    rhs = weighted_source(grid, source)
    R, Z = grid.node_mesh()
    return op, rhs, _sample(exact, R, Z)


# ---------------------------------------------------------------------------
# model-field file I/O
# ---------------------------------------------------------------------------
#
# Text format, bit-exact:
#   line 1:  "<nr> <nz> <rmax> <zmax>"   (extents via repr round-trip)
#   then nz lines of nr reals each (row-major, z outer, r inner), written
#   with repr so reading reproduces the float64 values exactly.
#
# Raw format, bit-exact:
#   <path>      little-endian float32, nz*nr values, row-major (z outer)
#   <path>.hdr  text sidecar: the same header line, then "<f4".


def _header_line(grid: Grid2D) -> str:
    return f"{grid.nr} {grid.nz} {grid.rmax!r} {grid.zmax!r}"


def _parse_header(line: str, where: str) -> Grid2D:
    parts = line.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: header must be 'nr nz rmax zmax', got {line!r}")
    try:
        nr, nz = int(parts[0]), int(parts[1])
        rmax, zmax = float(parts[2]), float(parts[3])
        return Grid2D(nr=nr, nz=nz, rmax=rmax, zmax=zmax)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"{where}: bad header {line!r}: {exc}") from None


def _check_field_shape(grid: Grid2D, field: np.ndarray) -> np.ndarray:
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (grid.nz, grid.nr):
        raise DimensionMismatch(
            f"full-node field must be (nz, nr) = ({grid.nz}, {grid.nr}), "
            f"got {field.shape}")
    return field


def write_field_text(path, grid: Grid2D, field) -> None:
    field = _check_field_shape(grid, field)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line(grid) + "\n")
        for row in field:
            fh.write(" ".join(repr(v) for v in row.tolist()) + "\n")


def read_field_text(path) -> Tuple[Grid2D, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        grid = _parse_header(header, str(path))
        tokens = fh.read().split()
    if len(tokens) != grid.nz * grid.nr:
        raise ConfigError(
            f"{path}: expected {grid.nz * grid.nr} values for a "
            f"{grid.nr}x{grid.nz} grid, found {len(tokens)}")
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric field value: {exc}") from None
    return grid, values.reshape(grid.nz, grid.nr)


def write_field_raw(path, grid: Grid2D, field) -> None:
    """Write ``field`` in the raw format; a finite value beyond the float32
    range of the payload raises :class:`DomainError` before any file is
    opened."""
    field = _check_field_shape(grid, field)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(field, dtype="<f4")
    if np.any(np.isinf(payload) & np.isfinite(field)):
        raise DomainError(f"{path}: field values beyond the float32 range "
                          f"of the raw format")
    with open(path, "wb") as fh:
        fh.write(payload.tobytes())
    with open(str(path) + ".hdr", "w", encoding="utf-8") as fh:
        fh.write(_header_line(grid) + "\n<f4\n")


def read_field_raw(path) -> Tuple[Grid2D, np.ndarray]:
    with open(str(path) + ".hdr", "r", encoding="utf-8") as fh:
        grid = _parse_header(fh.readline(), str(path) + ".hdr")
        dtype_line = fh.readline().strip()
    if dtype_line != "<f4":
        raise ConfigError(f"{path}.hdr: unsupported payload type {dtype_line!r}")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != grid.nz * grid.nr:
        raise ConfigError(
            f"{path}: expected {grid.nz * grid.nr} float32 values, "
            f"found {raw.size}")
    return grid, raw.astype(np.float64).reshape(grid.nz, grid.nr)


def sampler_from_field(grid: Grid2D, field) -> Callable:
    """Bilinear sampler over a full-node field, clamped at the node hull."""
    field = _check_field_shape(grid, field)

    def sampler(r, z):
        s = np.asarray(r, dtype=np.float64) / grid.dr - 0.5
        t = np.asarray(z, dtype=np.float64) / grid.dz - 0.5
        s, t = np.broadcast_arrays(s, t)
        i0 = np.clip(np.floor(s).astype(np.int64), 0, grid.nr - 2)
        k0 = np.clip(np.floor(t).astype(np.int64), 0, grid.nz - 2)
        fs = np.clip(s - i0, 0.0, 1.0)
        ft = np.clip(t - k0, 0.0, 1.0)
        v00 = field[k0, i0]
        v01 = field[k0, i0 + 1]
        v10 = field[k0 + 1, i0]
        v11 = field[k0 + 1, i0 + 1]
        out = ((1 - ft) * ((1 - fs) * v00 + fs * v01)
               + ft * ((1 - fs) * v10 + fs * v11))
        return out if out.shape else float(out)

    return sampler
