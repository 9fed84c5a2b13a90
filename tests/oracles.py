"""Reference implementations that tests compare the library against; the
library never runs them."""

import hashlib
import math

import numpy as np

from axisolver.dichotomy import BlockElimination, _to_blocks, block_shape
from axisolver.elliptic import CoefficientFields, DiscreteOperator, assemble
from axisolver.errors import ZeroPivot
from axisolver.kernels import multi_apply, multi_factor


def tridiagonal_dense(A):
    """The matrix of a ``TridiagonalMatrix``, (L, n, n) for a family of L."""
    i = np.arange(A.n)
    dense = np.zeros((A.nsys, A.n, A.n))
    dense[:, i, i] = A.diag.reshape(-1, A.nsys).T
    dense[:, i[:-1], i[1:]] = A.upper.reshape(-1, A.nsys).T
    dense[:, i[1:], i[:-1]] = A.lower.reshape(-1, A.nsys).T
    return dense if A.diag.ndim == 2 else dense[0]


def tridiagonal_matvec(A, x):
    """A @ x; for a family, column ``l`` of ``x`` against member ``l``."""
    dense = tridiagonal_dense(A)
    return np.einsum("lij,jl->il", dense, x) if A.diag.ndim == 2 else dense @ x


def scalar_thomas(lower, diag, upper, f):
    """The Thomas elimination of one matrix and one right-hand side, one
    Python float at a time in the kernels' order of operations: the lists
    ``(cp, dn, x)``.  Raises ZeroPivot at the first pivot below 1e-300 in
    magnitude, as the kernels do."""
    lower, diag, upper, f = ([float(v) for v in a]
                             for a in (lower, diag, upper, f))
    n = len(diag)
    cp, dn, x = [], [], [0.0] * n
    for i in range(n):
        if i:
            cp.append(upper[i - 1] / dn[i - 1])
        piv = diag[i] - lower[i - 1] * cp[i - 1] if i else diag[0]
        if abs(piv) < 1e-300:
            raise ZeroPivot(i, piv)
        dn.append(piv)
    x[0] = f[0] / dn[0]
    for i in range(1, n):
        x[i] = (f[i] - lower[i - 1] * x[i - 1]) / dn[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return cp, dn, x


def operator_dense(op):
    """The matrix of ``op.apply_spd``, column by column; small grids only."""
    return np.array([op.apply_spd(e) for e in np.eye(op.grid.n_unknowns)]).T


def apply_spd_reference(op, y):
    """``op.apply_spd(y)`` in its two-dimensional form: the radial
    differences and the shifted add on column-trimmed slices of the grid,
    in the library's order of operations."""
    Y, flat = op.grid.as_field(y)
    c_r, c_z = op._conductances
    out = np.multiply(op.reaction, Y)
    flux = np.empty_like(Y)
    np.subtract(Y[:, 1:], Y[:, :-1], out=flux[:, :-1])
    np.subtract(0.0, Y[:, -1], out=flux[:, -1])
    flux *= c_r
    out -= flux
    out[:, 1:] += flux[:, :-1]
    flux = flux[:-1]
    np.subtract(Y[1:], Y[:-1], out=flux)
    flux *= c_z
    out[:-1] -= flux
    out[1:] += flux
    return out.ravel() if flat else out


def sov_operator(M):
    """B, the operator a ``SovPreconditioner`` inverts, assembled."""
    return assemble(M.grid, CoefficientFields.constant(M.vtilde, M.shift))


def coupling_coefficient(m, k, alpha):
    """Weight of harmonic ``k`` in the rhs of harmonic ``m``,
    ``(m - k) sqrt(m! (k+alpha)! / ((m+alpha)! k!))``, in log space."""
    if k >= m:
        return 0.0
    log_ratio = 0.5 * (math.lgamma(m + 1) - math.lgamma(m + alpha + 1)
                       + math.lgamma(k + alpha + 1) - math.lgamma(k + 1))
    return (m - k) * math.exp(log_ratio)


def point_source_trace(wavelet, speed, R, times):
    """u(R, t) = 2 w(t - R/c) / (4 pi c^2 R): the field at distance ``R``
    of a point source with pulse ``w`` at the origin of the homogeneous
    half-space z >= 0 of speed ``c`` behind a zero-flux wall at z = 0; the
    factor 2 counts the image source."""
    times = np.asarray(times, dtype=np.float64)
    return 2.0 * wavelet(times - R / speed) / (4.0 * math.pi * speed ** 2 * R)


def arrays_of(record):
    """Every array of a tuple record such as a ``BlockElimination``, nested
    records flattened and absent (None) ones skipped, in field order."""
    if record is None:
        return []
    if isinstance(record, np.ndarray):
        return [record]
    return [arr for field in record for arr in arrays_of(field)]


def plan_arrays(plan):
    """Every array a dichotomy plan holds."""
    arrays = arrays_of(plan.full_fact)
    for rp in plan.ranks:
        arrays += [rp.G_L, rp.G_R, rp.fold_left, rp.fold_right, rp.weights,
                   rp.interior_c, rp.interior_a,
                   *arrays_of(rp.interior_fact)]
    return arrays


def plan_checksum(plan):
    """SHA-256 over a dichotomy plan's partition and arrays, asserting that
    every array is read-only."""
    digest = hashlib.sha256(np.asarray(plan.partition.sizes).tobytes())
    for arr in plan_arrays(plan):
        assert not arr.flags.writeable
        digest.update(arr.tobytes())
    return digest.hexdigest()


def fault_v_s(v_top, v_bottom, interface_z, throw=0.0, fault_r=0.0, dip=0.0,
              rho=1.0):
    """The two-layer fault's ``v_s`` sampler in its first form: r and z
    broadcast to one shape, the interface depth and the layer speed on
    that shape, then ``(speed / rho) ** 2``."""
    def v_s(r, z):
        r, z = np.broadcast_arrays(np.asarray(r, dtype=np.float64),
                                   np.asarray(z, dtype=np.float64))
        with np.errstate(over="ignore"):
            boundary = interface_z + dip * r + np.where(r > fault_r,
                                                        throw, 0.0)
        speed = np.where(z < boundary, v_top, v_bottom)
        return (speed / rho) ** 2

    return v_s


def assembled_reference(grid, kappa, reaction):
    """The operator by its defining formulas, through the copying
    constructor: each sampler evaluated on full point sets, zero boundary
    faces, and the products ``r * kappa`` and ``r * q``."""
    g = grid
    r_face = np.arange(g.nr) * g.dr
    r_in = g.r_nodes[: g.nr - 1]
    z_face = np.arange(1, g.nz) * g.dz
    R, Z = np.meshgrid(r_face[1:], g.z_nodes)
    r_faces = np.zeros((g.nz, g.nr))
    r_faces[:, 1:] = R * kappa(R, Z)
    R, Z = np.meshgrid(r_in, z_face)
    z_faces = np.zeros((g.nz + 1, g.nr - 1))
    z_faces[1: g.nz] = R * kappa(R, Z)
    R, Z = np.meshgrid(r_in, g.z_nodes)
    return DiscreteOperator(grid=g, r_faces=r_faces, z_faces=z_faces,
                            reaction=R * reaction(R, Z))


def midranges_reference(op):
    """(vtilde, shift): midranges of the diffusivity samples of the radial
    faces 1..nr-1 and the interior z faces, pooled in one array, and of
    the node reactions, each recovered by dividing out r."""
    g = op.grid
    r_in = g.r_nodes[: g.nr - 1]
    kv = np.concatenate([
        (op.r_faces[:, 1:] / (np.arange(1, g.nr) * g.dr)).ravel(),
        (op.z_faces[1: g.nz] / r_in).ravel()])
    qv = op.reaction / r_in
    return (0.5 * (float(kv.min()) + float(kv.max())),
            0.5 * (float(qv.min()) + float(qv.max())))


def sample_ranges_reference(op):
    """``sov._sample_ranges`` in its first form: (kappa_lo, kappa_hi, q_lo,
    q_hi) as the extremes of the full-grid quotients of the weighted
    arrays by r."""
    g = op.grid
    r_in = g.r_nodes[: g.nr - 1]
    kr = op.r_faces[:, 1:] / (np.arange(1, g.nr) * g.dr)
    kz = op.z_faces[1: g.nz] / r_in
    qv = op.reaction / r_in
    return (float(min(kr.min(), kz.min())), float(max(kr.max(), kz.max())),
            float(qv.min()), float(qv.max()))


def block_factor_reference(lower, diag, upper):
    """``dichotomy.block_factor`` in its first form, for n >= 3 rows: every
    band laid out in blocks, and each spike from a full sweep of a zero
    (m, P, L) right-hand side holding the coupling."""
    n, L = diag.shape
    m, P = block_shape(n)
    blocks = multi_factor(_to_blocks(lower, m - 1, m, P, 0.0)
                          .reshape(m - 1, P * L),
                          _to_blocks(diag, m, m, P, 1.0).reshape(m, P * L),
                          _to_blocks(upper, m - 1, m, P, 0.0)
                          .reshape(m - 1, P * L))
    sep = slice(m, (P - 1) * (m + 1), m + 1)
    above = slice(m - 1, sep.stop - 1, m + 1)
    sep_lower, sep_upper = np.array(lower[above]), np.array(upper[sep])
    e = np.zeros((m, P, L))
    e[0, 1:] = lower[sep]
    left = multi_apply(blocks, e.reshape(m, P * L)).reshape(m, P, L)[:, 1:]
    e[0] = 0.0
    e[-1, :-1] = upper[above]
    right = multi_apply(blocks, e.reshape(m, P * L)).reshape(m, P, L)[:, :-1]
    schur = multi_factor(
        -sep_lower[1:] * left[-1, :-1],
        diag[sep] - sep_lower * right[-1] - sep_upper * left[0],
        -sep_upper[:-1] * right[0, 1:])
    return BlockElimination(blocks, sep_lower, sep_upper, left, right, schur)
