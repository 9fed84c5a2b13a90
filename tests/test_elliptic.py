"""Tests for axisolver.elliptic: grid geometry, finite-volume assembly,
operator application, manufactured problems, and model-field file I/O.

Oracle policy: the production operator applies fluxes with vectorized
differences; the tests rebuild the dense matrix independently with explicit
per-node loops and boundary branches and compare.  Manufactured right-hand
sides produced by numerical differentiation are checked against symbolic
(sympy) sources.  Convergence orders use scipy's sparse direct solver, not
the package's own iterative stack.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from axisolver.elliptic import (
    CoefficientFields,
    DiscreteOperator,
    Grid2D,
    assemble,
    check_boundary_conditions,
    manufactured_problem,
    read_field_raw,
    read_field_text,
    sampler_from_field,
    weighted_source,
    write_field_raw,
    write_field_text,
)
from axisolver.errors import (
    BoundaryViolation,
    ConfigError,
    DimensionMismatch,
    DomainError,
    NonPositiveCoefficient,
)

from oracles import apply_spd_reference, operator_dense


def dense_oracle(op):
    """Dense SPD matrix assembled node by node with explicit boundary
    branches (independent of the vectorized production path)."""
    g = op.grid
    nz, nu = g.unknown_shape
    inv_dr2 = 1.0 / g.dr ** 2
    inv_dz2 = 1.0 / g.dz ** 2
    A = np.zeros((nz * nu, nz * nu))

    def idx(k, i):
        return k * nu + i

    for k in range(nz):
        for i in range(nu):
            row = idx(k, i)
            a_w = op.r_faces[k, i]        # radial face toward the axis
            a_e = op.r_faces[k, i + 1]    # radial face away from the axis
            a_s = op.z_faces[k, i]        # z face below
            a_n = op.z_faces[k + 1, i]    # z face above
            A[row, row] = ((a_w + a_e) * inv_dr2 + (a_s + a_n) * inv_dz2
                           + op.reaction[k, i])
            if i > 0:
                A[row, idx(k, i - 1)] = -a_w * inv_dr2
            if i < nu - 1:
                A[row, idx(k, i + 1)] = -a_e * inv_dr2
            if k > 0:
                A[row, idx(k - 1, i)] = -a_s * inv_dz2
            if k < nz - 1:
                A[row, idx(k + 1, i)] = -a_n * inv_dz2
    return A


def sparse_spd(op):
    """Sparse SPD matrix from the assembled face arrays (scipy oracle)."""
    g = op.grid
    nz, nu = g.unknown_shape
    dr2, dz2 = g.dr ** 2, g.dz ** 2
    main = ((op.r_faces[:, 1:] + op.r_faces[:, :-1]) / dr2
            + (op.z_faces[1:] + op.z_faces[:-1]) / dz2 + op.reaction).ravel()
    off_r = np.zeros(nz * nu - 1)
    for k in range(nz):
        off_r[k * nu: k * nu + nu - 1] = -op.r_faces[k, 1:-1] / dr2
    off_z = (-op.z_faces[1:nz, :] / dz2).ravel()
    return sp.diags([off_z, off_r, main, off_r, off_z],
                    [-nu, -1, 0, 1, nu], format="csr")


def unit_fields():
    return CoefficientFields.constant(1.0)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


def test_grid_spacings_and_nodes():
    g = Grid2D(2, 2, 1.5, 1.5)
    assert g.dr == 1.0
    assert g.dz == 0.75
    np.testing.assert_array_equal(g.r_nodes, [0.5, 1.5])
    np.testing.assert_array_equal(g.z_nodes, [0.375, 1.125])
    assert g.unknown_shape == (2, 1)
    assert g.n_unknowns == 2


def test_last_radial_node_on_wall_z_nodes_interior():
    g = Grid2D(17, 13, 2.5, 4.0)
    assert g.r_nodes[-1] == pytest.approx(2.5, abs=0, rel=1e-15)
    # both zero-flux boundaries fall on faces, nodes stay half a cell inside
    assert g.z_nodes[0] == pytest.approx(g.dz / 2)
    assert g.z_nodes[-1] == pytest.approx(4.0 - g.dz / 2)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid2D(1, 4, 1.0, 1.0)
    with pytest.raises(DomainError):
        Grid2D(4, 1, 1.0, 1.0)
    for nr, nz in ((2.5, 4), (4, 2.5), (np.nan, 4), (4, np.inf), ("4", 4)):
        with pytest.raises(DomainError):
            Grid2D(nr, nz, 1.0, 1.0)
    # whole numbers of any numeric type are the integer grid
    g = Grid2D(33.0, np.int64(32), 1.0, 1.0)
    assert (type(g.nr), type(g.nz)) == (int, int)
    assert g == Grid2D(33, 32, 1.0, 1.0)
    with pytest.raises(DomainError):
        Grid2D(4, 4, -1.0, 1.0)
    with pytest.raises(DomainError):
        Grid2D(4, 4, 1.0, 0.0)
    for extent in (np.inf, float("1e400"), np.nan):
        with pytest.raises(DomainError):
            Grid2D(4, 4, extent, 1.0)
        with pytest.raises(DomainError):
            Grid2D(4, 4, 1.0, extent)
    # finite, positive extents whose spacing squares to inf or 0
    for rmax, zmax, spacing in ((1e200, 1.0, "dr"), (5e-324, 1.0, "dr"),
                                (1.0, 1e308, "dz"), (1.0, 5e-324, "dz"),
                                (1.0, 1e-170, "dz")):
        with pytest.raises(DomainError, match=f"grid spacing {spacing} = "):
            Grid2D(9, 8, rmax, zmax)


def test_nearest_node_rounding_and_clipping():
    g = Grid2D(8, 6, 1.0, 1.0)
    # exact node position
    k, i = g.nearest_node(g.r_nodes[2], g.z_nodes[3])
    assert (k, i) == (3, 2)
    # origin snaps to the first unknown
    assert g.nearest_node(0.0, 0.0) == (0, 0)
    # beyond the wall clips to the last unknown column (Dirichlet excluded)
    assert g.nearest_node(10.0, 10.0) == (g.nz - 1, g.nr - 2)
    assert g.nearest_node(-1.0, -1.0) == (0, 0)


def test_node_mesh_shapes_and_values():
    g = Grid2D(5, 3, 1.0, 2.0)
    R, Z = g.node_mesh()
    assert R.shape == g.unknown_shape and Z.shape == g.unknown_shape
    np.testing.assert_array_equal(R[0], g.r_nodes[:-1])
    np.testing.assert_array_equal(Z[:, 0], g.z_nodes)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def test_coefficient_fields_hold_only_the_samplers():
    def kappa(r, z):
        return 1.0 + r + z

    def reaction(r, z):
        return r * z

    fields = CoefficientFields(kappa, reaction)
    assert (fields.kappa, fields.reaction) == (kappa, reaction)
    assert [f.name for f in dataclasses.fields(CoefficientFields)] \
        == ["kappa", "reaction"]
    assert CoefficientFields.from_samplers(
        kappa, reaction, Grid2D(9, 7, 1.0, 1.0)) == fields


def test_assemble_samples_each_coefficient_once():
    # kappa at the radial faces and at the z faces, q at the nodes: three
    # sampler calls per assembly
    g = Grid2D(9, 7, 1.0, 1.0)
    calls = {"kappa": [], "reaction": []}

    def counting(name, fn):
        def sampler(r, z):
            calls[name].append((np.shape(r), np.shape(z)))
            return fn(r, z)
        return sampler

    fields = CoefficientFields(counting("kappa", lambda r, z: 1.0 + r + z),
                               counting("reaction", lambda r, z: r * z))
    assemble(g, fields)
    assert calls == {
        "kappa": [((1, g.nr - 1), (g.nz, 1)), ((1, g.nr - 1), (g.nz - 1, 1))],
        "reaction": [(g.unknown_shape, g.unknown_shape)],
    }


def test_constant_fields_sample_constant():
    fields = CoefficientFields.constant(2.5, 0.75)
    out = np.asarray(fields.kappa(np.linspace(0, 1, 5), 0.3))
    np.testing.assert_array_equal(out, np.full(5, 2.5))
    out_q = np.asarray(fields.reaction(0.2, np.linspace(0, 1, 4)))
    np.testing.assert_array_equal(out_q, np.full(4, 0.75))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_unit_kappa_face_conductances():
    g = Grid2D(5, 4, 1.0, 1.0)
    op = assemble(g, unit_fields())
    # radial face j carries r*kappa = j*dr; the axis face is identically zero
    np.testing.assert_allclose(
        op.r_faces, np.broadcast_to(np.arange(g.nr) * g.dr, (g.nz, g.nr)),
        rtol=0, atol=1e-15)
    # interior z faces carry r_i; the closure rows are zero
    np.testing.assert_array_equal(op.z_faces[0], np.zeros(g.nr - 1))
    np.testing.assert_array_equal(op.z_faces[g.nz], np.zeros(g.nr - 1))
    np.testing.assert_allclose(
        op.z_faces[1:g.nz],
        np.broadcast_to(g.r_nodes[:-1], (g.nz - 1, g.nr - 1)),
        rtol=0, atol=1e-15)
    np.testing.assert_array_equal(op.reaction, np.zeros(g.unknown_shape))


def test_assemble_two_by_two_reaction_weight():
    # nr = nz = 2 on a 1.5 x 1.5 box, kappa = 1, q = 1: the single interior
    # radius is 0.5, so the node reaction weight r*q is exactly 0.5
    g = Grid2D(2, 2, 1.5, 1.5)
    op = assemble(g, CoefficientFields.constant(1.0, 1.0))
    assert op.reaction[0, 0] == 0.5
    assert op.reaction.shape == (2, 1)


def test_assemble_z_dependent_kappa_sampled_at_faces():
    # kappa = 1 + z must be sampled at the face depth k*dz, not at nodes
    g = Grid2D(4, 5, 1.0, 2.0)
    fields = CoefficientFields(
        lambda r, z: 1.0 + z, lambda r, z: 0.0 * r)
    op = assemble(g, fields)
    for k in range(1, g.nz):
        np.testing.assert_allclose(
            op.z_faces[k], g.r_nodes[:-1] * (1.0 + k * g.dz),
            rtol=1e-15, atol=0)
    # radial faces sample at the node depth z_k
    for k in range(g.nz):
        np.testing.assert_allclose(
            op.r_faces[k, 1:],
            np.arange(1, g.nr) * g.dr * (1.0 + g.z_nodes[k]),
            rtol=1e-15, atol=0)


def test_assemble_rejects_nonpositive_kappa():
    g = Grid2D(6, 4, 1.0, 1.0)
    fields = CoefficientFields(
        kappa=lambda r, z: 1.0 - 1.5 * r + 0.0 * z,
        reaction=lambda r, z: 0.0 * r)
    with pytest.raises(NonPositiveCoefficient):
        assemble(g, fields)


def test_assemble_rejects_non_finite_reaction():
    g = Grid2D(6, 4, 1.0, 1.0)
    fields = CoefficientFields(
        kappa=lambda r, z: 1.0 + 0.0 * r + 0.0 * z,
        reaction=lambda r, z: np.full(np.shape(r), np.nan))
    with pytest.raises(DomainError, match="non-finite"):
        assemble(g, fields)


def test_assemble_rejects_negative_reaction():
    g = Grid2D(6, 4, 1.0, 1.0)
    fields = CoefficientFields(
        kappa=lambda r, z: 1.0 + 0.0 * r + 0.0 * z,
        reaction=lambda r, z: -1.0 + 0.0 * r)
    with pytest.raises(NonPositiveCoefficient):
        assemble(g, fields)


def test_assemble_rejects_nonfinite_samples():
    g = Grid2D(6, 4, 1.0, 1.0)
    fields = CoefficientFields(
        kappa=lambda r, z: np.where(r > 0.5, np.nan, 1.0) + 0.0 * z,
        reaction=lambda r, z: 0.0 * r)
    with pytest.raises(DomainError):
        assemble(g, fields)


@pytest.mark.parametrize("where", [
    "kappa at radial faces", "kappa at z faces", "reaction"])
def test_assemble_rejects_weighted_coefficients_beyond_the_float_range(where):
    # finite samples whose product with r (up to 1e150, where dr**2 stays
    # in range) overflows; the z faces sit at whole multiples of dz, the
    # nodes and radial faces do not
    g = Grid2D(9, 8, 1e150, 1.0)

    def kappa(r, z):
        big = {"kappa at radial faces": True, "reaction": False,
               "kappa at z faces": z * g.nz % 1.0 == 0.0}[where]
        return np.where(big, 1e300, 1.0) + 0.0 * r

    def reaction(r, z):
        return (1e300 if where == "reaction" else 0.0) + 0.0 * r

    with pytest.raises(DomainError, match=where):
        assemble(g, CoefficientFields(kappa=kappa, reaction=reaction))


def test_weighted_source_is_r_times_f_at_the_nodes():
    g = Grid2D(6, 5, 1.3, 0.9)
    calls = []

    def f(r, z):
        calls.append((np.shape(r), np.shape(z)))
        return np.sin(3.0 * r) * np.exp(z) - r * z

    phi = weighted_source(g, f)
    R, Z = g.node_mesh()
    assert calls == [(g.unknown_shape, g.unknown_shape)]    # sampled once
    assert phi.shape == g.unknown_shape
    np.testing.assert_array_equal(phi, R * f(R, Z))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weighted_source_rejects_nonfinite_samples(bad):
    g = Grid2D(6, 5, 1.0, 1.0)
    with pytest.raises(DomainError, match="non-finite"):
        weighted_source(g, lambda r, z: np.where(z > 0.5, bad, 1.0) + 0.0 * r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_source_beyond_the_float_range_raises_domain_error():
    # r * f overflowed with a numpy warning before the finiteness check
    g = Grid2D(9, 8, 950.0, 950.0)
    with pytest.raises(DomainError, match="source: r \\* sample overflows"):
        weighted_source(g, lambda r, z: np.full(np.shape(r), 1e308))


def test_operator_shape_validation():
    g = Grid2D(4, 3, 1.0, 1.0)
    ok = assemble(g, unit_fields())
    with pytest.raises(DimensionMismatch):
        DiscreteOperator(grid=g, r_faces=ok.r_faces[:, :-1],
                         z_faces=ok.z_faces, reaction=ok.reaction)
    with pytest.raises(DimensionMismatch):
        DiscreteOperator(grid=g, r_faces=ok.r_faces,
                         z_faces=ok.z_faces.T, reaction=ok.reaction)
    with pytest.raises(DimensionMismatch):    # not only ndarrays are checked
        DiscreteOperator(grid=g, r_faces=ok.r_faces.tolist(),
                         z_faces=ok.z_faces,
                         reaction=ok.reaction[:-1].tolist())


def test_operator_arrays_are_read_only():
    # the chain hashes the operator once and trusts it after that, so every
    # array the operator stores, the derived conductances too, must refuse
    # writes
    op = assemble(Grid2D(4, 3, 1.0, 1.0), unit_fields())
    op.apply_spd(np.ones(op.grid.n_unknowns))      # derives the conductances
    stored = [a for v in vars(op).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(stored) == 5
    for arr in stored:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_operator_stores_copies_of_the_callers_arrays():
    g = Grid2D(4, 3, 1.0, 1.0)
    ok = assemble(g, unit_fields())
    mine = {name: np.array(getattr(ok, name))
            for name in ("r_faces", "z_faces", "reaction")}
    op = DiscreteOperator(grid=g, **mine)
    for name, arr in mine.items():
        assert arr.flags.writeable
        assert not np.shares_memory(getattr(op, name), arr)
        arr[...] = -1.0       # the caller's later writes change nothing
        np.testing.assert_array_equal(getattr(op, name), getattr(ok, name))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def test_apply_zero_is_zero():
    op = assemble(Grid2D(6, 5, 1.0, 1.0), unit_fields())
    out = op.apply_spd(np.zeros(op.grid.n_unknowns))
    np.testing.assert_array_equal(out, np.zeros(op.grid.n_unknowns))


def test_apply_constant_one_hits_only_dirichlet_column():
    # with q = 0 a constant field has zero divergence everywhere except next
    # to the Dirichlet ghost, where the SPD form contributes r_face/dr^2
    # (the wall face conductance)
    g = Grid2D(7, 5, 1.3, 0.9)
    op = assemble(g, unit_fields())
    out = op.apply_spd(np.ones(g.unknown_shape))
    expect = np.zeros(g.unknown_shape)
    expect[:, -1] = op.r_faces[:, g.nr - 1] / g.dr ** 2
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)


def test_apply_accepts_flat_and_grid_shapes():
    op = assemble(Grid2D(5, 4, 1.0, 1.0), unit_fields())
    rng = np.random.default_rng(3)
    y = rng.standard_normal(op.grid.unknown_shape)
    flat = op.apply_spd(y.ravel())
    grid = op.apply_spd(y)
    assert flat.shape == (op.grid.n_unknowns,)
    assert grid.shape == op.grid.unknown_shape
    np.testing.assert_array_equal(flat, grid.ravel())
    with pytest.raises(DimensionMismatch):
        op.apply_spd(np.zeros(op.grid.n_unknowns + 1))
    with pytest.raises(DimensionMismatch):
        op.apply_spd(np.zeros((2, 2)))


def _apply_inputs(g, seed):
    """Fields of ``g``'s unknown shape in every layout ``apply_spd`` may
    meet, each holding ordinary, signed-zero, subnormal or 1e300-scale
    values: (name, array) pairs, flat ones included."""
    rng = np.random.default_rng(seed)
    shape = g.unknown_shape
    signs = rng.choice([-1.0, 1.0], size=shape)
    values = {
        "normal": rng.standard_normal(shape),
        "signed zeros": signs * 0.0,
        "zeros among values": np.where(rng.random(shape) < 0.5, signs * 0.0,
                                       rng.standard_normal(shape)),
        "subnormal": signs * rng.choice([5e-324, 1e-310, 2.2e-308], shape),
        "1e300 scale": signs * rng.uniform(0.5, 1.5, shape) * 1e300,
    }
    for name, v in values.items():
        yield name + ", C order", v.copy()
        yield name + ", F order", np.asfortranarray(v)
        yield name + ", flat", v.ravel().copy()
        taller = np.repeat(v, 2, axis=0)
        taller[1::2] = np.nan                       # rows the view skips
        yield name + ", every other row", taller[::2]
        wider = np.repeat(v, 2, axis=1)
        wider[:, 1::2] = np.nan
        yield name + ", every other column", wider[:, ::2]
        longer = np.repeat(v.ravel(), 2)
        longer[1::2] = np.nan
        yield name + ", flat every other entry", longer[::2]


@pytest.mark.parametrize("nr, nz", [(2, 2), (2, 5), (3, 4), (3, 7),
                                    (8, 6), (9, 9), (17, 4)])
def test_apply_is_bitwise_its_two_dimensional_form(nr, nz):
    # the flat radial difference crosses every row end, all of them at
    # nr = 2, where a row holds one unknown; the crossing entries must be
    # overwritten and must feed no unknown, and the signed zeros, the
    # subnormals and the overflowing products must come out as the
    # column-trimmed slices give them
    g = Grid2D(nr, nz, 1.3, 0.9)
    op = assemble(g, CoefficientFields(
        lambda r, z: 1.0 + 0.3 * r + 0.2 * z * z,
        lambda r, z: np.where(z < 0.45, 0.0, 0.2 + 0.1 * r * z)))
    for name, y in _apply_inputs(g, seed=nr * 100 + nz):
        before = y.copy()
        y.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            out = op.apply_spd(y)
            ref = apply_spd_reference(op, y)
        assert out.tobytes() == ref.tobytes(), name
        assert out.shape == y.shape, name
        assert out.flags.c_contiguous and out.flags.writeable, name
        assert y.tobytes() == before.tobytes(), name


def test_dense_matches_loop_oracle_variable_coefficients():
    g = Grid2D(6, 5, 1.1, 1.7)
    fields = CoefficientFields(
        lambda r, z: 1.0 + 0.5 * np.sin(2.1 * r) * np.cos(1.3 * z),
        lambda r, z: 0.3 + 0.2 * r + 0.1 * z)
    op = assemble(g, fields)
    np.testing.assert_allclose(operator_dense(op), dense_oracle(op),
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("nr", [2, 3, 9, 17])
@pytest.mark.parametrize("nz", [2, 3, 9])
def test_dense_matches_loop_oracle_across_grid_widths(nr, nz):
    # from the 2-node minimum to nr = 17; nr = 9 gives rows of 8 unknowns,
    # a 64-byte column stride
    g = Grid2D(nr, nz, 1.3, 0.9)
    fields = CoefficientFields(
        lambda r, z: 1.0 + 0.3 * r + 0.2 * z * z,
        lambda r, z: 0.2 + 0.1 * r * z)
    op = assemble(g, fields)
    np.testing.assert_allclose(operator_dense(op), dense_oracle(op),
                               rtol=1e-13, atol=1e-14)


def test_spd_matrix_symmetric_and_positive_definite():
    g = Grid2D(6, 5, 1.0, 1.0)
    op = assemble(g, unit_fields())           # q = 0: Dirichlet supplies PD
    A = operator_dense(op)
    np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-13)
    assert np.linalg.eigvalsh(A).min() > 0


def test_sparse_oracle_matches_dense():
    g = Grid2D(7, 6, 1.0, 2.0)
    fields = CoefficientFields(
        lambda r, z: 1.0 + r * z, lambda r, z: 0.1 + 0.0 * r)
    op = assemble(g, fields)
    np.testing.assert_allclose(sparse_spd(op).toarray(), operator_dense(op),
                               rtol=1e-13, atol=1e-14)


def test_checksum_tracks_coefficients():
    g = Grid2D(5, 4, 1.0, 1.0)
    # equal samples from a different pair of samplers hash the same
    a = assemble(g, unit_fields())
    b = assemble(g, CoefficientFields(lambda r, z: 1.0 + 0.0 * r * z,
                                      lambda r, z: 0.0 * r * z))
    c = assemble(g, CoefficientFields.constant(2.0))
    assert a.checksum() == b.checksum()
    assert a.checksum() != c.checksum()


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_apply_is_linear(nr, nz, seed):
    rng = np.random.default_rng(seed)
    op = assemble(Grid2D(nr, nz, 1.0, 1.0),
                  CoefficientFields.constant(1.0 + rng.uniform(), rng.uniform()))
    x = rng.standard_normal(op.grid.n_unknowns)
    y = rng.standard_normal(op.grid.n_unknowns)
    a, b = rng.uniform(-2, 2, size=2)
    lhs = op.apply_spd(a * x + b * y)
    rhs = a * op.apply_spd(x) + b * op.apply_spd(y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 7), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_operator_self_adjoint_on_random_fields(nr, nz, seed):
    rng = np.random.default_rng(seed)
    g = Grid2D(nr, nz, 1.0 + rng.uniform(), 1.0 + rng.uniform())
    # random positive face conductances with the structural zeros in place
    r_faces = rng.uniform(0.5, 2.0, size=(g.nz, g.nr))
    r_faces[:, 0] = 0.0
    z_faces = rng.uniform(0.5, 2.0, size=(g.nz + 1, g.nr - 1))
    z_faces[0] = 0.0
    z_faces[g.nz] = 0.0
    op = DiscreteOperator(grid=g, r_faces=r_faces, z_faces=z_faces,
                          reaction=rng.uniform(0.0, 1.0, g.unknown_shape))
    x = rng.standard_normal(g.n_unknowns)
    y = rng.standard_normal(g.n_unknowns)
    lhs = float(op.apply_spd(x) @ y)
    rhs = float(x @ op.apply_spd(y))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale
    # and the loop oracle agrees with the vectorized application
    np.testing.assert_allclose(operator_dense(op), dense_oracle(op),
                               rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# boundary-condition checking and manufactured problems
# ---------------------------------------------------------------------------


def test_boundary_check_accepts_compatible_solution():
    g = Grid2D(8, 8, 1.0, 1.0)
    check_boundary_conditions(g, lambda r, z: (1.0 - r ** 2) * np.cos(np.pi * z))


def test_boundary_check_rejects_nonzero_wall_value():
    g = Grid2D(8, 8, 1.0, 1.0)
    with pytest.raises(BoundaryViolation):
        check_boundary_conditions(g, lambda r, z: r + 0.0 * z)


def test_boundary_check_rejects_nonzero_wall_flux():
    g = Grid2D(8, 8, 1.0, 1.0)
    with pytest.raises(BoundaryViolation):
        check_boundary_conditions(g, lambda r, z: (1.0 - r ** 2) * z ** 2)


def test_manufactured_zero_solution_gives_zero_rhs():
    g = Grid2D(10, 8, 1.0, 1.0)
    op, rhs, exact = manufactured_problem(
        g, lambda r, z: 0.0 * r * z, CoefficientFields.constant(1.0, 0.3))
    assert np.abs(rhs).max() <= 1e-12
    np.testing.assert_array_equal(exact, np.zeros(g.unknown_shape))


def test_manufactured_rhs_matches_sympy_source():
    sympy = pytest.importorskip("sympy")
    r, z = sympy.symbols("r z", positive=True)
    u = (1 - r ** 2) * sympy.cos(sympy.pi * z)
    kap = 1 + sympy.Rational(1, 2) * sympy.sin(sympy.pi * r)
    q = sympy.Rational(1, 4) + r * z / 2
    f = -(sympy.diff(r * kap * sympy.diff(u, r), r) / r
          + sympy.diff(kap * sympy.diff(u, z), z) - q * u)
    f_num = sympy.lambdify((r, z), sympy.simplify(f), modules="numpy")
    kap_num = sympy.lambdify((r, z), kap, modules="numpy")
    q_num = sympy.lambdify((r, z), q, modules="numpy")
    u_num = sympy.lambdify((r, z), u, modules="numpy")

    g = Grid2D(24, 20, 1.0, 1.0)
    fields = CoefficientFields(
        lambda rr, zz: kap_num(rr, zz) + 0.0 * zz,
        lambda rr, zz: q_num(rr, zz))
    op_numeric, rhs_numeric, exact = manufactured_problem(
        g, lambda rr, zz: u_num(rr, zz), fields)
    op_symbolic, rhs_symbolic, _ = manufactured_problem(
        g, lambda rr, zz: u_num(rr, zz), fields, source=f_num)
    scale = np.abs(rhs_symbolic).max()
    assert np.abs(rhs_numeric - rhs_symbolic).max() <= 1e-8 * scale
    assert op_numeric.checksum() == op_symbolic.checksum()
    R, Z = g.node_mesh()
    np.testing.assert_allclose(exact, u_num(R, Z), rtol=0, atol=1e-14)


def test_manufactured_solution_converges_second_order():
    def exact(r, z):
        return np.cos(np.pi * z) * (1.0 - r ** 2) * (1 + 0.3 * np.sin(np.pi * r))

    def kappa(r, z):
        return 1.0 + 0.5 * np.sin(np.pi * r) * np.cos(0.5 * np.pi * z)

    def q(r, z):
        return 0.5 + 0.4 * r * z

    errs = []
    for n in (32, 64, 128):
        g = Grid2D(n, n, 1.0, 1.0)
        fields = CoefficientFields(kappa, q)
        op, rhs, uex = manufactured_problem(g, exact, fields)
        u = spla.spsolve(sparse_spd(op), rhs.ravel()).reshape(g.unknown_shape)
        errs.append(np.abs(u - uex).max())
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 5.5, f"ratios from errors {errs}"


def test_constant_kappa_discrete_solution_converges_second_order():
    def exact(r, z):
        return np.cos(np.pi * z) * (1.0 - r ** 2)

    errs = []
    for n in (32, 64, 128):
        g = Grid2D(n, n, 1.0, 1.0)
        op, rhs, uex = manufactured_problem(g, exact, unit_fields())
        u = spla.spsolve(sparse_spd(op), rhs.ravel()).reshape(g.unknown_shape)
        errs.append(np.abs(u - uex).max())
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 5.5, f"ratios from errors {errs}"


# ---------------------------------------------------------------------------
# model-field file I/O
# ---------------------------------------------------------------------------


def full_node_field(g, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(500.0, 5000.0, size=(g.nz, g.nr))


def test_text_round_trip_is_bit_exact(tmp_path):
    g = Grid2D(6, 4, 1.25, 2.5)
    field = full_node_field(g)
    path = tmp_path / "model.txt"
    write_field_text(path, g, field)
    g2, back = read_field_text(path)
    assert g2 == g
    np.testing.assert_array_equal(back, field)   # exact, repr round-trip


def test_text_rejects_malformed_inputs(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 3 1.0\n")                  # header too short
    with pytest.raises(ConfigError):
        read_field_text(path)
    path.write_text("4 x 1.0 1.0\n")              # non-integer count
    with pytest.raises(ConfigError):
        read_field_text(path)
    path.write_text("4 3 1.0 1.0\n" + "1.0 " * 5)  # wrong value count
    with pytest.raises(ConfigError):
        read_field_text(path)
    path.write_text("4 3 1.0 1.0\n" + "1.0 " * 11 + "oops")
    with pytest.raises(ConfigError):
        read_field_text(path)
    path.write_text("1 3 1.0 1.0\n1.0 1.0 1.0\n")  # header fails grid rules
    with pytest.raises(ConfigError):
        read_field_text(path)


def test_raw_round_trip_preserves_float32_payload(tmp_path):
    g = Grid2D(5, 7, 3.0, 1.5)
    field = full_node_field(g, seed=5)
    path = tmp_path / "model.raw"
    write_field_raw(path, g, field)
    g2, back = read_field_raw(path)
    assert g2 == g
    np.testing.assert_array_equal(back, field.astype("<f4").astype(np.float64))


def test_raw_rejects_bad_sidecar_and_size(tmp_path):
    g = Grid2D(4, 4, 1.0, 1.0)
    field = full_node_field(g, seed=1)
    path = tmp_path / "model.raw"
    write_field_raw(path, g, field)
    hdr = path.with_suffix(".raw.hdr")
    hdr.write_text("4 4 1.0 1.0\n>f8\n")          # unsupported payload type
    with pytest.raises(ConfigError):
        read_field_raw(path)
    hdr.write_text("4 5 1.0 1.0\n<f4\n")          # size mismatch vs payload
    with pytest.raises(ConfigError):
        read_field_raw(path)


def test_write_rejects_wrong_field_shape(tmp_path):
    g = Grid2D(4, 4, 1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        write_field_text(tmp_path / "x.txt", g, np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch):
        write_field_raw(tmp_path / "x.raw", g, np.zeros((3, 4)))


def test_sampler_from_field_bilinear_exact_on_linear_field():
    g = Grid2D(9, 7, 2.0, 3.0)
    R = np.broadcast_to(g.r_nodes, (g.nz, g.nr))
    Z = np.broadcast_to(g.z_nodes[:, None], (g.nz, g.nr))
    field = 2.0 + 3.0 * R - 1.5 * Z
    sampler = sampler_from_field(g, field)
    rng = np.random.default_rng(11)
    rs = rng.uniform(g.r_nodes[0], g.r_nodes[-1], size=40)
    zs = rng.uniform(g.z_nodes[0], g.z_nodes[-1], size=40)
    np.testing.assert_allclose(sampler(rs, zs), 2.0 + 3.0 * rs - 1.5 * zs,
                               rtol=1e-13, atol=1e-13)


def test_sampler_from_field_clamps_outside_node_hull():
    g = Grid2D(6, 5, 1.0, 1.0)
    R = np.broadcast_to(g.r_nodes, (g.nz, g.nr))
    Z = np.broadcast_to(g.z_nodes[:, None], (g.nz, g.nr))
    field = 1.0 + R + Z
    sampler = sampler_from_field(g, field)
    # on the axis (r < first node) the sampler holds the first-column value
    assert sampler(0.0, g.z_nodes[2]) == pytest.approx(
        1.0 + g.r_nodes[0] + g.z_nodes[2])
    # below z of the first node row it holds the first-row value
    assert sampler(g.r_nodes[3], 0.0) == pytest.approx(
        1.0 + g.r_nodes[3] + g.z_nodes[0])
    # outside both corners clamps fully
    assert sampler(10.0, 10.0) == pytest.approx(
        1.0 + g.r_nodes[-1] + g.z_nodes[-1])


def test_round_trip_through_sampler_reassembles_same_operator(tmp_path):
    # write a kappa model to disk, read it back, sample it bilinearly at the
    # node points: node values reproduce exactly, so assembly from the
    # sampler of a node-linear field matches assembly from the original
    g = Grid2D(8, 6, 1.0, 1.0)
    R = np.broadcast_to(g.r_nodes, (g.nz, g.nr))
    Z = np.broadcast_to(g.z_nodes[:, None], (g.nz, g.nr))
    field = 2.0 + 0.5 * R + 0.25 * Z
    path = tmp_path / "kappa.txt"
    write_field_text(path, g, field)
    g2, back = read_field_text(path)
    sampler = sampler_from_field(g2, back)
    direct = lambda r, z: 2.0 + 0.5 * r + 0.25 * z
    f1 = CoefficientFields(sampler, lambda r, z: 0.0 * r)
    f2 = CoefficientFields(direct, lambda r, z: 0.0 * r)
    op1, op2 = assemble(g, f1), assemble(g, f2)
    np.testing.assert_allclose(op1.r_faces, op2.r_faces, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(op1.z_faces, op2.z_faces, rtol=1e-14, atol=1e-14)
