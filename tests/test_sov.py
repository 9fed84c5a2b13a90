"""Tests for axisolver.sov: the cosine-diagonalized constant-coefficient
preconditioner.

Oracle policy: the inverse application is checked against a dense solve of
the independently kron-assembled matrix (radial stencil tensor identity plus
z stencil tensor radial weights); the forward application is checked against
the production finite-volume operator assembled with the same constants,
which the preconditioner must reproduce exactly.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import axisolver.sov as sov_module
from axisolver.comm import CommWorld
from axisolver.dichotomy import Partition, build_plan, solve_many
from axisolver.elliptic import CoefficientFields, Grid2D, assemble
from axisolver.errors import (DimensionMismatch, DomainError,
                              NonPositiveCoefficient)
from axisolver.sov import SovPreconditioner, recovered_midranges


def dense_reference(M):
    """Kron-assembled dense matrix of the constant-coefficient operator."""
    g = M.grid
    nu = g.nr - 1
    face = np.arange(g.nr) * g.dr * M.vtilde
    Tr = (np.diag((face[:nu] + face[1:]) / g.dr ** 2)
          + np.diag(-face[1:nu] / g.dr ** 2, 1)
          + np.diag(-face[1:nu] / g.dr ** 2, -1))
    Sz = 2 * np.eye(g.nz) - np.eye(g.nz, k=1) - np.eye(g.nz, k=-1)
    Sz[0, 0] = 1.0
    Sz[-1, -1] = 1.0
    r_in = g.r_nodes[:nu]
    return (np.kron(np.eye(g.nz), Tr)
            + np.kron(Sz / g.dz ** 2, np.diag(r_in * M.vtilde))
            + np.kron(np.eye(g.nz), np.diag(r_in * M.shift)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_validation():
    g = Grid2D(8, 4, 1.0, 1.0)
    with pytest.raises(NonPositiveCoefficient):
        SovPreconditioner(g, 0.0)
    with pytest.raises(NonPositiveCoefficient):
        SovPreconditioner(g, 1.0, shift=-0.1)
    for vtilde, shift in [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.nan),
                          (1.0, np.inf)]:
        with pytest.raises(NonPositiveCoefficient):
            SovPreconditioner(g, vtilde, shift=shift)
    with pytest.raises(DomainError):
        SovPreconditioner(g, 1.0, ranks=0)
    with pytest.raises(DomainError):
        SovPreconditioner(g, 1.0, ranks=5)    # 7 radial unknowns < 2*5


def test_recovered_midranges_from_variable_operator():
    g = Grid2D(16, 8, 1.0, 1.0)
    fields = CoefficientFields.from_samplers(
        lambda r, z: 2.0 + np.sin(np.pi * r) * np.cos(np.pi * z),
        lambda r, z: 0.5 + 0.5 * r, g)
    op = assemble(g, fields)
    vtilde, shift = recovered_midranges(op)
    # the midranges recover the sampled extremes of kappa and q
    assert 1.0 < vtilde < 3.0
    assert vtilde == pytest.approx(0.5 * (fields.kappa_lo + fields.kappa_hi),
                                   rel=1e-12)
    r_in = g.r_nodes[: g.nr - 1]
    q = op.reaction / r_in[None, :]
    assert shift == pytest.approx(0.5 * (q.min() + q.max()), rel=1e-12)


def test_mode_eigenvalues_frozen():
    g = Grid2D(6, 4, 1.0, 1.0)
    M = SovPreconditioner(g, 1.0)
    lam = M.mode_eigenvalues
    assert lam[0] == 0.0
    # l = 1: 4 sin^2(pi/8) / dz^2 with dz = 1/4
    assert lam[1] == pytest.approx(4 * np.sin(np.pi / 8) ** 2 * 16, rel=1e-14)
    # the largest eigenvalue approaches (but stays below) 4/dz^2
    assert lam[-1] < 4.0 / g.dz ** 2
    assert lam[-1] == pytest.approx(4 * np.cos(np.pi / (2 * g.nz)) ** 2 * 16,
                                    rel=1e-14)
    assert np.all(np.diff(lam) > 0)


def test_mode_matrices_match_hand_assembly_and_dominate():
    g = Grid2D(10, 8, 2.0, 1.5)
    M = SovPreconditioner(g, 1.7, 0.3)
    nu = g.nr - 1
    face = np.arange(g.nr) * g.dr * 1.7
    r_in = g.r_nodes[:nu]
    lam = M.mode_eigenvalues
    for l in (0, 1, g.nz // 2, g.nz - 1):
        T = M.mode_matrix(l)
        np.testing.assert_allclose(
            T.diag,
            (face[:nu] + face[1:]) / g.dr ** 2 + r_in * (1.7 * lam[l] + 0.3),
            rtol=1e-13)
        np.testing.assert_allclose(T.upper, -face[1:nu] / g.dr ** 2, rtol=1e-13)
        np.testing.assert_array_equal(T.upper, T.lower)
        assert T.is_diagonally_dominant()
    with pytest.raises(DomainError):
        M.mode_matrix(g.nz)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_forward_equals_constant_coefficient_operator():
    g = Grid2D(12, 8, 1.0, 1.3)
    op = assemble(g, CoefficientFields.constant(2.0, 0.7))
    M = SovPreconditioner.from_operator(op)
    assert (M.vtilde, M.shift) == (2.0, 0.7)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(g.n_unknowns)
    scale = np.abs(op.apply_spd(x)).max()
    assert np.abs(M.apply(x) - op.apply_spd(x)).max() <= 1e-12 * scale


def test_inverse_matches_dense_oracle_12x12():
    g = Grid2D(13, 12, 1.0, 1.0)     # 12 x 12 unknowns
    M = SovPreconditioner(g, 1.4, 0.25)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.unknown_shape)
    x_dense = sla.solve(dense_reference(M), f.ravel())
    x = M.apply_inverse(f).ravel()
    assert np.abs(x - x_dense).max() <= 1e-10 * np.abs(x_dense).max()


def test_round_trip_exactness():
    for nr, nz in ((9, 8), (33, 32), (65, 64)):
        g = Grid2D(nr, nz, 1.0, 2.0)
        M = SovPreconditioner(g, 3.0, 0.5)
        rng = np.random.default_rng(nz)
        f = rng.standard_normal(g.unknown_shape)
        err = np.abs(M.apply(M.apply_inverse(f)) - f).max()
        assert err <= 1e-10 * np.abs(f).max()


def test_inverse_is_self_adjoint():
    g = Grid2D(9, 8, 1.0, 1.0)
    M = SovPreconditioner(g, 2.0, 0.1)
    n = g.n_unknowns
    Binv = np.zeros((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        Binv[:, j] = M.apply_inverse(e)
        e[j] = 0.0
    assert np.abs(Binv - Binv.T).max() <= 1e-11 * np.abs(Binv).max()


def test_flat_and_grid_shapes_agree():
    g = Grid2D(7, 4, 1.0, 1.0)
    M = SovPreconditioner(g, 1.0)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.unknown_shape)
    flat = M.apply_inverse(f.ravel())
    assert flat.shape == (g.n_unknowns,)
    np.testing.assert_array_equal(flat, M.apply_inverse(f).ravel())
    with pytest.raises(DimensionMismatch):
        M.apply_inverse(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        M.apply_inverse(np.ones(5))


def test_non_power_of_two_mode_count_supported():
    g = Grid2D(9, 6, 1.0, 1.0)
    M = SovPreconditioner(g, 1.5, 0.2)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.unknown_shape)
    err = np.abs(M.apply(M.apply_inverse(f)) - f).max()
    assert err <= 1e-12 * np.abs(f).max()


# ---------------------------------------------------------------------------
# distributed backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_distributed_backend_matches_batched(ranks):
    g = Grid2D(17, 8, 1.0, 1.0)
    rng = np.random.default_rng(ranks)
    f = rng.standard_normal(g.unknown_shape)
    x1 = SovPreconditioner(g, 1.3, 0.4).apply_inverse(f)
    xp = SovPreconditioner(g, 1.3, 0.4, ranks=ranks).apply_inverse(f)
    assert np.abs(xp - x1).max() <= 1e-12 * np.abs(x1).max()


@pytest.mark.parametrize("nz", [2, 8, 63])
@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_distributed_family_matches_batched(ranks, nz):
    # nz = 1 is no grid (Grid2D needs 2 nodes); the one-member family is
    # covered in test_dichotomy.  nr - 1 = 4 ranks + 1 radial unknowns: never divisible by the rank count;
    # shift 0 leaves mode 0 only weakly dominant
    g = Grid2D(4 * ranks + 2, nz, 1.0, 1.0)
    rng = np.random.default_rng(10 * ranks + nz)
    f = rng.standard_normal(g.unknown_shape)
    x1 = SovPreconditioner(g, 1.3, 0.0).apply_inverse(f)
    xp = SovPreconditioner(g, 1.3, 0.0, ranks=ranks).apply_inverse(f)
    assert np.abs(xp - x1).max() <= 1e-12 * np.abs(x1).max()


@pytest.mark.parametrize("nz", [2, 8, 63])
def test_distributed_apply_sends_one_protocol(nz, monkeypatch):
    worlds = []

    class RecordingWorld(CommWorld):
        def __init__(self, p):
            super().__init__(p)
            worlds.append(self)

    monkeypatch.setattr(sov_module, "CommWorld", RecordingWorld)
    g = Grid2D(23, nz, 1.0, 1.0)
    M = SovPreconditioner(g, 1.3, 0.4, ranks=4)
    M.apply_inverse(np.ones(g.unknown_shape))
    (world,) = worlds
    one = build_plan(M.mode_matrix(0), Partition.balanced(g.nr - 1, 4),
                     CommWorld(4))
    solve_many(one, np.ones(g.nr - 1))
    assert world.stats_snapshot().total_msgs() == \
        one.world.stats_snapshot().total_msgs() == 7
    assert world.stats_snapshot().total_scalars() == \
        nz * one.world.stats_snapshot().total_scalars()


def test_distributed_backend_is_deterministic():
    g = Grid2D(17, 4, 1.0, 1.0)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.unknown_shape)
    M = SovPreconditioner(g, 2.0, 0.0, ranks=4)
    a = M.apply_inverse(f)
    b = M.apply_inverse(f)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
def test_round_trip_and_linearity_property(nr, nz, seed):
    rng = np.random.default_rng(seed)
    g = Grid2D(nr, nz, 0.5 + rng.uniform(), 0.5 + rng.uniform())
    M = SovPreconditioner(g, 0.5 + 2 * rng.uniform(), rng.uniform())
    f1 = rng.standard_normal(g.unknown_shape)
    f2 = rng.standard_normal(g.unknown_shape)
    a, b = rng.uniform(-2, 2, size=2)
    scale = max(np.abs(f1).max(), np.abs(f2).max())
    assert np.abs(M.apply(M.apply_inverse(f1)) - f1).max() <= 1e-10 * scale
    lhs = M.apply_inverse(a * f1 + b * f2)
    rhs = a * M.apply_inverse(f1) + b * M.apply_inverse(f2)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
