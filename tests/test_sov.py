"""Tests for axisolver.sov: the cosine-diagonalized constant-coefficient
preconditioner.

Oracle policy: the inverse application is checked against a dense solve of
the independently kron-assembled matrix (radial stencil tensor identity plus
z stencil tensor radial weights), and round trips against the production
finite-volume operator assembled with the same constants, which is B by
definition.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import axisolver.sov as sov_module
from axisolver.acoustic import (LaguerreParams, MediumModel, Wavelet,
                                solve_all_harmonics)
from axisolver.comm import CommWorld
from axisolver.dichotomy import Partition, build_plan, solve_many
from axisolver.elliptic import CoefficientFields, Grid2D, assemble
from axisolver.errors import (ConfigError, DimensionMismatch, DomainError,
                              NonPositiveCoefficient)
from axisolver.kernels import multi_apply, multi_factor
from axisolver.sov import SovPreconditioner, block_shape, recovered_midranges

from oracles import operator_dense, sov_operator


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
    for ranks in (2.5, np.nan, np.inf, "2"):
        with pytest.raises(DomainError):
            SovPreconditioner(g, 1.0, ranks=ranks)
    assert SovPreconditioner(g, 1.0, ranks=2.0).ranks == 2


@pytest.mark.parametrize("ranks", [1, 2])
def test_unknown_executor_is_rejected_at_construction(ranks):
    # at ranks = 1 no rank is ever launched, and the name is checked all the same
    with pytest.raises(ConfigError):
        SovPreconditioner(Grid2D(8, 4, 1.0, 1.0), 1.0, ranks=ranks,
                          executor="bogus")


def test_recovered_midranges_from_variable_operator():
    g = Grid2D(16, 8, 1.0, 1.0)

    def kappa(r, z):
        return 2.0 + np.sin(np.pi * r) * np.cos(np.pi * z)

    op = assemble(g, CoefficientFields(kappa, lambda r, z: 0.5 + 0.5 * r))
    vtilde, shift = recovered_midranges(op)
    # the midranges recover the extremes of kappa at the face points that
    # assembly sampled, and of q at the nodes
    kv = np.concatenate([
        kappa(np.arange(1, g.nr)[None, :] * g.dr, g.z_nodes[:, None]).ravel(),
        kappa(g.r_nodes[None, : g.nr - 1],
              np.arange(1, g.nz)[:, None] * g.dz).ravel()])
    assert 1.0 < vtilde < 3.0
    assert vtilde == pytest.approx(0.5 * (kv.min() + kv.max()), rel=1e-12)
    r_in = g.r_nodes[: g.nr - 1]
    q = op.reaction / r_in[None, :]
    assert shift == pytest.approx(0.5 * (q.min() + q.max()), rel=1e-12)


def test_mode_eigenvalues_frozen():
    # lam_l = 4 sin^2(pi l / (2 nz)) / dz^2 on mode l's diagonal, read as
    # its difference from mode 0's
    g = Grid2D(6, 4, 1.0, 1.0)
    M = SovPreconditioner(g, 1.0)
    r_in = g.r_nodes[: g.nr - 1]
    lam = [float(np.mean((M.mode_matrix(l).diag - M.mode_matrix(0).diag)
                         / r_in)) for l in range(g.nz)]
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
    lam = 4.0 * np.sin(np.pi * np.arange(g.nz) / (2 * g.nz)) ** 2 / g.dz ** 2
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
    with pytest.raises(DomainError):
        M.mode_matrix(1.5)
    np.testing.assert_array_equal(M.mode_matrix(np.int64(1)).diag,
                                  M.mode_matrix(1).diag)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_forward_equals_constant_coefficient_operator():
    # B is the kron oracle: the assembled constant-coefficient operator
    g = Grid2D(12, 8, 1.0, 1.3)
    op = assemble(g, CoefficientFields.constant(2.0, 0.7))
    M = SovPreconditioner.from_operator(op)
    assert (M.vtilde, M.shift) == (2.0, 0.7)
    B = dense_reference(M)
    assert np.abs(operator_dense(op) - B).max() <= 1e-12 * np.abs(B).max()


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
        err = np.abs(sov_operator(M).apply_spd(M.apply_inverse(f)) - f).max()
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
    err = np.abs(sov_operator(M).apply_spd(M.apply_inverse(f)) - f).max()
    assert err <= 1e-12 * np.abs(f).max()


# ---------------------------------------------------------------------------
# p = 1 block elimination
# ---------------------------------------------------------------------------


class ThomasModes:
    """Oracle for the p = 1 mode solve: one Thomas sweep over all n rows of
    the family, with the interface of ``sov._ModeBlocks``."""

    def __init__(self, diag, off):
        band = np.tile(off[:, None], (1, diag.shape[1]))
        self.fact = multi_factor(band, diag, band)

    def solve(self, F):
        return multi_apply(self.fact, F)


def test_blocks_and_separators_cover_every_row_once():
    for n in range(1, 2050):
        m, P = block_shape(n)
        q = m + 1
        assert P * P <= n + 1 < (P + 1) ** 2     # m and P near sqrt(n)
        tail = n - (P - 1) * q                   # real rows of the last block
        assert 1 <= tail <= m
        rows = [k * q + i for k in range(P) for i in range(m)
                if k * q + i < n]
        seps = [k * q + m for k in range(P - 1)]
        assert len(rows) == (P - 1) * m + tail
        assert sorted(rows + seps) == list(range(n))


def test_blocked_modes_match_thomas_oracle(monkeypatch):
    # shift 0 leaves mode 0 only weakly dominant, with a condition number
    # growing like n^2: there the oracle's own forward error reaches 2e-13
    # at n = 268 (against an 80-bit Thomas solve), and the blocked solve's
    # is no larger, so the two agree to 1e-12 and no closer
    kinds = set()
    for n in range(1, 301):
        m, P = block_shape(n)
        kinds.add("one block" if P == 1 else
                  "exact fit" if n == P * m + P - 1 else "padded")
        g = Grid2D(n + 1, 4, 1.0, 1.0)
        f = np.random.default_rng(n).standard_normal(g.unknown_shape)
        for shift in (0.0, 0.8):
            x = SovPreconditioner(g, 1.3, shift).apply_inverse(f)
            with monkeypatch.context() as mp:
                mp.setattr(sov_module, "_ModeBlocks", ThomasModes)
                ref = SovPreconditioner(g, 1.3, shift).apply_inverse(f)
            err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (n, shift, err)
    assert kinds == {"one block", "exact fit", "padded"}


def test_repeated_blocked_applies_are_bitwise_equal():
    g = Grid2D(40, 12, 1.0, 1.0)      # 39 rows: 6 blocks of 6, padded
    M = SovPreconditioner(g, 1.7, 0.3)
    f = np.random.default_rng(5).standard_normal(g.unknown_shape)
    keep = f.copy()
    first = M.apply_inverse(f)
    np.testing.assert_array_equal(M.apply_inverse(f), first)
    np.testing.assert_array_equal(M.apply_inverse(f), first)
    np.testing.assert_array_equal(f, keep)


def test_fault_medium_pcg_iterations_equal_thomas_oracle(monkeypatch):
    grid = Grid2D(65, 64, 950.0, 950.0)
    model = MediumModel.fault(1800.0, 2200.0, interface_z=480.0,
                              throw=120.0, fault_r=400.0)
    params = LaguerreParams(h=280.0, alpha=5, n_terms=6)
    wavelet = Wavelet(f0=10.0, t0=0.4, gamma=4.0)
    blocked = solve_all_harmonics(grid, model, params, wavelet)
    monkeypatch.setattr(sov_module, "_ModeBlocks", ThomasModes)
    thomas = solve_all_harmonics(grid, model, params, wavelet)
    assert blocked.iterations == thomas.iterations
    scale = np.abs(thomas.harmonics).max()
    assert np.abs(blocked.harmonics - thomas.harmonics).max() <= 1e-12 * scale


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
    # the family has one member per coefficient slot of the DCT
    assert world.stats_snapshot().total_scalars() == \
        2 * (nz // 2 + 1) * one.world.stats_snapshot().total_scalars()


def test_distributed_backend_is_deterministic():
    g = Grid2D(17, 4, 1.0, 1.0)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.unknown_shape)
    M = SovPreconditioner(g, 2.0, 0.0, ranks=4)
    a = M.apply_inverse(f)
    b = M.apply_inverse(f)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# spectral bounds of B^-1 A
# ---------------------------------------------------------------------------


def _cell_sampler(values, g):
    """A piecewise-constant (r, z) sampler over the cells of ``values``
    (shape (nz + 2, nr + 2)), so faces and nodes see different values."""
    def sample(r, z):
        i = np.clip((np.asarray(r) / g.dr).astype(int), 0, g.nr + 1)
        k = np.clip((np.asarray(z) / g.dz).astype(int), 0, g.nz + 1)
        return values[k, i]
    return sample


def _generalized_spectrum(op, M):
    """Eigenvalues of A x = lam B x, B from the kron oracle."""
    return sla.eigh(operator_dense(op), dense_reference(M), eigvals_only=True)


@pytest.mark.parametrize("nr, nz", [(2, 2), (9, 8), (17, 5)])
@pytest.mark.parametrize("kappa, q", [(1.0, 0.0), (2.3, 0.7), (1e-3, 40.0)])
def test_bounds_of_constant_coefficients_are_one_point(nr, nz, kappa, q):
    g = Grid2D(nr, nz, 950.0, 950.0)
    op = assemble(g, CoefficientFields.constant(kappa, q))
    bounds = SovPreconditioner.from_operator(op).bounds_for(op)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nr, rmax, vtilde", [(2, 1.0, 1.0), (3, 2.0, 0.5),
                                              (11, 1.0, 3.0),
                                              (40, 950.0, 1.7)])
def test_radial_floor_stays_below_the_radial_stencil_spectrum(nr, rmax,
                                                              vtilde):
    g = Grid2D(nr, 4, rmax, 1.0)
    M = SovPreconditioner(g, vtilde)
    nu = g.nr - 1
    cond = np.arange(g.nr) * vtilde / g.dr          # j vtilde / dr, j = 0..nu
    T = (np.diag(cond[:nu] + cond[1:]) + np.diag(-cond[1:nu], 1)
         + np.diag(-cond[1:nu], -1))
    lam = sla.eigh(T, np.diag(g.r_nodes[:nu]), eigvals_only=True)
    assert 0.0 < M.radial_floor <= lam[0]


@pytest.mark.parametrize("shift", [0.0, 5.0])
def test_bounds_cover_a_reaction_beyond_the_shift(shift):
    # A = B + (50 - shift) r: the face ratios alone (f = 1) miss the top
    g = Grid2D(9, 8, 1.0, 1.0)
    op = assemble(g, CoefficientFields.constant(1.0, 50.0))
    M = SovPreconditioner(g, 1.0, shift)
    bounds = M.bounds_for(op)
    lam = _generalized_spectrum(op, M)
    assert lam[-1] > 2.0
    assert bounds.lower <= lam[0] * (1.0 + 1e-9)
    assert bounds.upper >= lam[-1] * (1.0 - 1e-9)


def test_bounds_for_an_operator_of_another_grid_raise():
    M = SovPreconditioner(Grid2D(9, 8, 1.0, 1.0), 1.0)
    for g in (Grid2D(9, 8, 1.0, 2.0), Grid2D(10, 8, 1.0, 1.0)):
        with pytest.raises(DimensionMismatch):
            M.bounds_for(assemble(g, CoefficientFields.constant(1.0)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.integers(2, 8),
       st.sampled_from(["no-reaction", "zero-patches", "constant-reaction",
                        "any-preconditioner"]),
       st.integers(0, 2 ** 31 - 1))
def test_bounds_enclose_the_generalized_spectrum(nr, nz, case, seed):
    rng = np.random.default_rng(seed)
    g = Grid2D(nr, nz, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
    cells = (g.nz + 2, g.nr + 2)
    kappa = 10.0 ** rng.uniform(-1.5, 1.5, cells)
    if case == "no-reaction":
        q = np.zeros(cells)
    elif case == "constant-reaction":
        q = np.full(cells, 10.0 ** rng.uniform(-2.0, 2.0))
    else:
        q = 10.0 ** rng.uniform(-2.0, 2.0, cells) * (rng.random(cells) < 0.5)
    op = assemble(g, CoefficientFields(_cell_sampler(kappa, g),
                                       _cell_sampler(q, g)))
    if case == "any-preconditioner":
        M = SovPreconditioner(g, 10.0 ** rng.uniform(-1.5, 1.5),
                              rng.choice([0.0, 10.0 ** rng.uniform(-2, 2)]))
    else:
        M = SovPreconditioner.from_operator(op)
    bounds = M.bounds_for(op)
    lam = _generalized_spectrum(op, M)
    assert bounds.lower <= lam[0] * (1.0 + 1e-9)
    assert bounds.upper >= lam[-1] * (1.0 - 1e-9)
    if case == "no-reaction":
        assert M.shift == 0.0


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
    assert np.abs(sov_operator(M).apply_spd(M.apply_inverse(f1)) - f1).max() <= 1e-10 * scale
    lhs = M.apply_inverse(a * f1 + b * f2)
    rhs = a * M.apply_inverse(f1) + b * M.apply_inverse(f2)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
