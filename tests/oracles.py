"""Reference implementations that tests compare the library against; the
library never runs them."""

import hashlib
import math

import numpy as np

from axisolver.dichotomy import BlockElimination, block_shape
from axisolver.elliptic import CoefficientFields, DiscreteOperator, assemble
from axisolver.errors import ZeroPivot
from axisolver.kernels import MultiFactorization, multi_factor


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
    """``dichotomy.block_factor`` one block of one member at a time, in
    Python floats: each block's pivots by the scalar Thomas loop; the last
    row of its inverse, times separator k's coupling ``lower[s - 1]``, from
    that coupling over dn[m - 1] upwards by the factors -lower[j]/dn[j];
    and its first row, times ``upper[s]``, as the solution q of q L = u,
    for L the lower factor (diagonal dn, subdiagonal lower) and u the
    running product of -cp from that coupling on."""
    n, L = diag.shape
    m, P = block_shape(n)
    bands = [np.zeros((m - 1, P, L)), np.ones((m, P, L)),
             np.zeros((m - 1, P, L))]
    cp, dn = np.empty((m - 1, P, L)), np.empty((m, P, L))
    left, right = np.empty((m, P - 1, L)), np.empty((m, P - 1, L))
    zeros = np.zeros(m)
    for k in range(P):
        start = k * (m + 1)
        rows = min(m, n - start)
        for band, src in zip(bands, (lower, diag, upper)):
            width = rows - (band.shape[0] < m)
            band[:width, k] = src[start: start + width]
        for l in range(L):
            lo, dg, up = (band[:, k, l] for band in bands)
            c, d, _ = scalar_thomas(lo, dg, up, zeros)
            cp[:, k, l], dn[:, k, l] = c, d
            if k < P - 1:                  # separator k on row start + m
                row = [float(lower[start + m - 1, l]) / d[-1]]
                for j in range(m - 2, -1, -1):
                    row.append(row[-1] * (-lo[j] / d[j]))
                right[:, k, l] = row[::-1]
            if k > 0:                      # separator k - 1 on row start - 1
                u = [float(upper[start - 1, l])]
                for j in range(1, m):
                    u.append(u[-1] * -c[j - 1])
                row = [u[-1] / d[-1]]
                for j in range(m - 2, -1, -1):
                    row.append((u[j] - lo[j] * row[-1]) / d[j])
                left[:, k - 1, l] = row[::-1]
    blocks = MultiFactorization(bands[0].reshape(m - 1, P * L),
                                cp.reshape(m - 1, P * L),
                                dn.reshape(m, P * L))
    sep = slice(m, (P - 1) * (m + 1), m + 1)
    above = slice(m - 1, sep.stop - 1, m + 1)
    to_above, to_below = upper[above], lower[sep]
    schur = multi_factor(
        -right[0, 1:] * to_below[:-1],
        diag[sep] - right[-1] * to_above - left[0] * to_below,
        -left[-1, :-1] * to_above[1:]) if P > 1 else None
    return BlockElimination(blocks, to_above, to_below, left, right, schur)
