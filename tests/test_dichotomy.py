"""Tests for axisolver.dichotomy: plans, distributed solves, cost models.

Oracle policy: small frozen values below were computed from dense inverses
(4x4 tridiag(-1,2,-1): row 2 of the inverse is (0.6, 1.2, 0.8, 0.4); the 2x2
head-block solve gives (1/3, 2/3)).  Randomized checks compare against
numpy.linalg.solve on the dense matrix.
"""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisolver import dichotomy as dichotomy_module
from axisolver.comm import CommWorld
from axisolver.dichotomy import (
    DichotomyPlan,
    Partition,
    block_factor,
    block_shape,
    build_plan,
    build_tree,
    local_betas,
    predict_time_cyclic,
    predict_time_dichotomy,
    solve_many,
    solve_series,
)
from axisolver.errors import (ConfigError, DimensionMismatch, DomainError,
                              IndexOutOfRange, InvalidPartition)
from axisolver.tridiag import TridiagonalMatrix, thomas_solve

from oracles import (arrays_of, block_factor_reference, plan_checksum,
                     scalar_thomas, tridiagonal_dense)
from recorded_traffic import (per_rank, record_payloads, record_sends,
                              split_levels)


def random_dominant(rng, n):
    upper = rng.uniform(-1.0, 1.0, size=n - 1)
    lower = rng.uniform(-1.0, 1.0, size=n - 1)
    mag = np.zeros(n)
    mag[:-1] += np.abs(upper)
    mag[1:] += np.abs(lower)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    diag = sign * (mag + rng.uniform(0.1, 1.0, size=n))
    return TridiagonalMatrix(diag, upper, lower)


def make_plan(n, sizes, rng=None, matrix=None):
    A = matrix if matrix is not None else random_dominant(rng, n)
    world = CommWorld(len(sizes))
    return build_plan(A, Partition(tuple(sizes)), world)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_indices():
    part = Partition((2, 3, 4))
    assert part.p == 3 and part.n == 9
    assert [part.m_L(i) for i in (1, 2, 3)] == [1, 3, 6]
    assert [part.m_R(i) for i in (1, 2, 3)] == [2, 5, 9]


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        Partition((2, 1, 3))
    with pytest.raises(InvalidPartition):
        Partition(())
    with pytest.raises(InvalidPartition):
        Partition.balanced(7, 4)  # would need a block of size < 2
    for bad in [lambda: Partition((2.7, 3.2)),      # not truncated to (2, 3)
                lambda: Partition((2, np.nan)),
                lambda: Partition.balanced(10, 2.5),
                lambda: Partition.balanced(10.5, 2),
                lambda: Partition.balanced(10, np.inf)]:
        with pytest.raises(InvalidPartition):
            bad()
    # integral values of any numeric type are counts
    assert Partition((2.0, np.int64(3))).sizes == (2, 3)
    assert Partition.balanced(10.0, np.int64(2)).sizes == (5, 5)


def test_partition_balanced():
    part = Partition.balanced(11, 4)
    assert part.sizes == (3, 3, 3, 2) and part.n == 11


# ---------------------------------------------------------------------------
# tree shape
# ---------------------------------------------------------------------------


def test_tree_depth_matches_log2():
    for p in (1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32):
        tree = build_tree(p)
        assert len(tree) == (0 if p == 1 else math.ceil(math.log2(p)))


def test_tree_p7_middle_pattern():
    middles = [[e[3] if e[0] == "split" else e[1] for e in level]
               for level in build_tree(7)]
    assert middles == [[4], [2, 6], [1, 3, 5, 7]]


def test_tree_p2_merges_leaf_into_level_one():
    assert build_tree(2) == ((("split", 1, 2, 2), ("leaf", 1)),)


def test_tree_every_rank_becomes_middle_or_leaf_once():
    for p in range(1, 33):
        seen = []
        for level in build_tree(p):
            for entry in level:
                seen.append(entry[3] if entry[0] == "split" else entry[1])
        if p > 1:
            assert sorted(seen) == list(range(1, p + 1))


# ---------------------------------------------------------------------------
# build_plan invariants and frozen examples
# ---------------------------------------------------------------------------


def assert_plan_is_its_elimination(plan, A):
    """A p = 1 plan holds the family's blocked elimination and no other
    array: no rank data, no tree, and L read from that elimination."""
    L = A.nsys
    bands = (b.reshape(-1, L) for b in (A.lower, A.diag, A.upper))
    assert plan.ranks == () and plan.levels == ()
    assert len(plan) == L
    held, ref = arrays_of(plan.full_fact), arrays_of(block_factor(*bands))
    assert len(held) == len(ref)
    for arr, want in zip(held, ref):
        assert arr.shape == want.shape and arr.tobytes() == want.tobytes()
        assert not arr.flags.writeable


def test_plan_p1_green_rows_are_inverse_rows():
    # at p = 1 the plan is the elimination its solve reads; the inverse,
    # its first and last rows included, comes from that solve
    rng = np.random.default_rng(0)
    A = random_dominant(rng, 6)
    for matrix in (A, random_family(rng, 6, 5)):
        assert_plan_is_its_elimination(make_plan(6, [6], matrix=matrix),
                                       matrix)
    plan = make_plan(6, [6], matrix=A)
    inv = np.linalg.inv(tridiagonal_dense(A))
    np.testing.assert_allclose(solve_many(plan, np.eye(6)), inv, atol=1e-12)


def test_plan_frozen_green_row():
    # row 2 of the inverse is (0.6, 1.2, 0.8, 0.4), row 3 is (0.4, 0.8, 1.2, 0.6)
    A = TridiagonalMatrix.constant(4, -1.0, 2.0, -1.0)
    plan = make_plan(4, [2, 2], matrix=A)
    np.testing.assert_allclose(plan.rank_data(1).G_R[:, 0], [0.6, 1.2],
                               atol=1e-14)
    np.testing.assert_allclose(plan.rank_data(2).G_L[:, 0], [1.2, 0.6],
                               atol=1e-14)
    # fold ratio (G_L)_{m_R} / (G_R)_{m_R} of rank 1: row 1 is (0.8, 0.6, ...)
    np.testing.assert_allclose(plan.rank_data(1).fold_left, [0.6 / 1.2],
                               atol=1e-14)


def test_plan_frozen_z_vector():
    # Z_L of rank 2 is (1/3, 2/3, 1); Z_R of rank 1 mirrors it as (1, 2/3, 1/3)
    A = TridiagonalMatrix.constant(4, -1.0, 2.0, -1.0)
    plan = make_plan(4, [2, 2], matrix=A)
    # rank 1 (left of the middle) reads Z_R at the middle's rows 3 and 4
    np.testing.assert_allclose(plan.rank_data(1).weights[0, :, 0],
                               [2 / 3, 1 / 3], atol=1e-14)
    # the middle reads Z_L at row m_L - 1 = 2 and has no right neighbor
    np.testing.assert_allclose(plan.rank_data(2).weights[0, :, 0],
                               [2 / 3, 0.0], atol=1e-14)


def dense_z_vectors(A, m_L, m_R):
    """Z_L on rows 1..m_L and Z_R on rows m_R..n from dense block solves."""
    dense, n = tridiagonal_dense(A), A.n
    head, tail = m_L - 1, n - m_R
    Z_L, Z_R = np.ones(m_L), np.ones(tail + 1)
    if head > 0:
        rhs = np.zeros(head)
        rhs[-1] = -A.upper[head - 1]
        Z_L[:-1] = np.linalg.solve(dense[:head, :head], rhs)
    if tail > 0:
        rhs = np.zeros(tail)
        rhs[0] = -A.lower[m_R - 1]
        Z_R[1:] = np.linalg.solve(dense[m_R:, m_R:], rhs)
    return Z_L, Z_R


def expected_weights(plan, A, m):
    """The Z entries the protocol reads on rank m, level by level."""
    part = plan.partition
    m_L, m_R = part.m_L(m), part.m_R(m)
    Z_L, Z_R = dense_z_vectors(A, m_L, m_R)
    z_l = lambda k: Z_L[k - 1]
    z_r = lambda k: Z_R[k - m_R]
    out = np.zeros((plan.depth, 2))
    for s, level in enumerate(plan.levels):
        for entry in level:
            if entry[0] == "split" and entry[1] <= m <= entry[2]:
                _, lo, hi, mid = entry
                k1, k2 = part.m_L(mid), part.m_R(mid)
                if m < mid:
                    out[s] = z_r(k1), z_r(k2)
                elif m > mid:
                    out[s] = z_l(k1), z_l(k2)
                else:
                    out[s] = z_l(k1 - 1), (z_r(k2 + 1) if mid < hi else 0.0)
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_plan_invariants_hold(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    p = data.draw(st.sampled_from([1, 2, 3, 4, 7, 8, 16, 33]))
    sizes = [data.draw(st.integers(2, 6)) for _ in range(p)]
    n = sum(sizes)
    A = random_dominant(rng, n)
    plan = make_plan(n, sizes, matrix=A)
    if p == 1:
        assert_plan_is_its_elimination(plan, A)
        return
    inv = np.linalg.inv(tridiagonal_dense(A))
    for m in range(1, p + 1):
        rp = plan.rank_data(m)
        sl = slice(rp.m_L - 1, rp.m_R)
        size = rp.m_R - rp.m_L + 1
        # only the owned slices of the two inverse rows are kept
        assert rp.G_L.shape == rp.G_R.shape == (size, 1)
        assert np.linalg.norm(rp.G_L[:, 0] - inv[rp.m_L - 1, sl]) <= 1e-10
        assert np.linalg.norm(rp.G_R[:, 0] - inv[rp.m_R - 1, sl]) <= 1e-10
        assert abs(rp.fold_left[0] - inv[rp.m_L - 1, rp.m_R - 1]
                   / inv[rp.m_R - 1, rp.m_R - 1]) <= 1e-10
        assert abs(rp.fold_right[0] - inv[rp.m_R - 1, rp.m_L - 1]
                   / inv[rp.m_L - 1, rp.m_L - 1]) <= 1e-10
        # <= 2 Z entries per level, each the head/tail block solve's value
        assert rp.weights.shape == (plan.depth, 2, 1)
        assert np.abs(rp.weights[:, :, 0]
                      - expected_weights(plan, A, m)).max(initial=0.0) <= 1e-10


def test_build_plan_partition_mismatch():
    A = TridiagonalMatrix.constant(6, -1.0, 2.0, -1.0)
    with pytest.raises(InvalidPartition):
        build_plan(A, Partition((2, 2)), CommWorld(2))  # covers 4 of 6 rows
    with pytest.raises(InvalidPartition):
        build_plan(A, Partition((3, 3)), CommWorld(3))  # 2 blocks, 3 ranks
    with pytest.raises(InvalidPartition):
        build_plan(TridiagonalMatrix.constant(6, -1.0, 1.0, -1.0),
                   Partition((3, 3)), CommWorld(2))  # not dominant


# ---------------------------------------------------------------------------
# local_betas
# ---------------------------------------------------------------------------


def test_local_betas_zero_rhs():
    plan = make_plan(8, [4, 4], rng=np.random.default_rng(1))
    bL, bR = local_betas(plan, 1, np.zeros(4))
    assert bL == 0.0 and bR == 0.0


def test_local_betas_unit_rhs_picks_green_entry():
    plan = make_plan(8, [4, 4], rng=np.random.default_rng(2))
    rp = plan.rank_data(2)
    F_local = np.zeros(4)
    F_local[0] = 1.0  # unit at global row m_L(2)
    bL, _ = local_betas(plan, 2, F_local)
    assert bL == pytest.approx(rp.G_L[0, 0], abs=0)


def test_local_betas_frozen_sum():
    A = TridiagonalMatrix.constant(4, -1.0, 2.0, -1.0)
    plan = make_plan(4, [2, 2], matrix=A)
    _, bR = local_betas(plan, 1, np.array([1.0, 1.0]))
    assert bR == pytest.approx(1.8, abs=1e-14)


def test_local_betas_dimension_check():
    plan = make_plan(8, [4, 4], rng=np.random.default_rng(3))
    with pytest.raises(DimensionMismatch):
        local_betas(plan, 1, np.zeros(3))


@pytest.mark.parametrize("sizes, rank, message", [
    ([4, 4], 0, "rank 0 outside 1..2"), ([4, 4], -1, "rank -1 outside 1..2"),
    ([4, 4], 3, "rank 3 outside 1..2"), ([8], 1, "p = 1 plan")])
def test_rank_outside_the_plan_raises(sizes, rank, message):
    # not a negative index into the ranks: rank 0 is not the last rank
    plan = make_plan(8, sizes, rng=np.random.default_rng(3))
    with pytest.raises(IndexOutOfRange, match=message):
        local_betas(plan, rank, np.zeros(4))


# ---------------------------------------------------------------------------
# solve_many
# ---------------------------------------------------------------------------


def test_p1_solve_is_bitwise_its_blocked_elimination():
    # the p = 1 solve is the blocked elimination's, which agrees with one
    # Thomas sweep to rounding
    rng = np.random.default_rng(4)
    A = random_dominant(rng, 12)
    plan = make_plan(12, [12], matrix=A)
    F = rng.normal(size=12)
    elim = block_factor(A.lower[:, None], A.diag[:, None], A.upper[:, None])
    X = solve_many(plan, F)
    assert X.tobytes() == elim.solve(F).tobytes()
    x = thomas_solve(A, F)
    assert np.linalg.norm(X - x) <= 1e-14 * np.linalg.norm(x)


def test_p7_matches_dense_and_reports_three_levels(monkeypatch):
    rng = np.random.default_rng(5)
    n = 28
    A = random_dominant(rng, n)
    plan = make_plan(n, [4] * 7, matrix=A)
    F = rng.normal(size=n)
    sent = record_sends(monkeypatch)
    x = solve_many(plan, F)
    x_dense = np.linalg.solve(tridiagonal_dense(A), F)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) <= 1e-10

    level_of = split_levels(sent, 7, size=1)
    levels = sorted(set(level_of.values()))
    assert levels == [1, 2, 3]
    middles = {s: sorted(r for r in level_of if level_of[r] == s)
               for s in levels}
    assert middles == {1: [4], 2: [2, 6], 3: [1, 3, 5, 7]}
    # level-3 singletons send no correction: only their reduce
    # contributions at the levels above
    assert all(size == 2 for r, _, size in sent if level_of[r] == 3)


def test_p2_stats_report_one_level():
    rng = np.random.default_rng(6)
    A = random_dominant(rng, 8)
    plan = make_plan(8, [4, 4], matrix=A)
    F = rng.normal(size=8)
    x = solve_many(plan, F)
    stats = plan.world.stats_snapshot()
    assert stats.levels == (1, 1)
    x_dense = np.linalg.solve(tridiagonal_dense(A), F)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_matches_dense_oracle(data):
    p = data.draw(st.sampled_from([1, 2, 4, 7, 8, 16]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    # random legal partition with n in [8, 512]
    max_total = max(8 // p, 512 // p)
    sizes = [int(rng.integers(2, max(3, max_total + 1))) for _ in range(p)]
    n = sum(sizes)
    A = random_dominant(rng, n)
    plan = make_plan(n, sizes, matrix=A)
    F = rng.normal(size=n)
    x = solve_many(plan, F)
    x_dense = np.linalg.solve(tridiagonal_dense(A), F)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) <= 1e-10


def test_batch_matches_oracle_each_column():
    rng = np.random.default_rng(7)
    n = 24
    A = random_dominant(rng, n)
    plan = make_plan(n, [6, 6, 6, 6], matrix=A)
    B = rng.normal(size=(n, 64))
    X = solve_many(plan, B)
    X_dense = np.linalg.solve(tridiagonal_dense(A), B)
    err = np.linalg.norm(X - X_dense, axis=0) / np.linalg.norm(X_dense, axis=0)
    assert err.max() <= 1e-10


def test_batch_m1_identical_to_single():
    rng = np.random.default_rng(8)
    n = 20
    A = random_dominant(rng, n)
    plan = make_plan(n, [5, 5, 5, 5], matrix=A)
    F = rng.normal(size=n)
    single = solve_many(plan, F)
    batch = solve_many(plan, F[:, None])
    assert np.array_equal(single, batch[:, 0])


def test_batch_traffic_scales_with_m():
    rng = np.random.default_rng(9)
    n = 16
    A = random_dominant(rng, n)

    def traffic(M):
        plan = make_plan(n, [4, 4, 4, 4], matrix=A)
        solve_many(plan, rng.normal(size=(n, M)))
        return plan.world.stats_snapshot()

    t1, t8 = traffic(1), traffic(8)
    assert t8.total_scalars() == 8 * t1.total_scalars()
    assert t8.levels == t1.levels
    assert t8.total_msgs() == t1.total_msgs()


def test_scaled_rhs_scales_solution_exactly():
    rng = np.random.default_rng(10)
    n = 18
    A = random_dominant(rng, n)
    plan = make_plan(n, [6, 6, 6], matrix=A)
    F = rng.normal(size=n)
    X = solve_many(plan, np.column_stack([F, 2.0 * F]))
    assert np.array_equal(2.0 * X[:, 0], X[:, 1])


def test_linearity_property():
    rng = np.random.default_rng(11)
    n = 21
    A = random_dominant(rng, n)
    plan = make_plan(n, [7, 7, 7], matrix=A)
    F1, F2 = rng.normal(size=n), rng.normal(size=n)
    a, b = 0.7, -1.3
    lhs = solve_many(plan, a * F1 + b * F2)
    rhs = a * solve_many(plan, F1) + b * solve_many(plan, F2)
    scale = np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_plan_not_mutated_by_solves():
    rng = np.random.default_rng(12)
    n = 16
    A = random_dominant(rng, n)
    plan = make_plan(n, [4, 4, 4, 4], matrix=A)
    before = plan_checksum(plan)
    for _ in range(3):
        solve_many(plan, rng.normal(size=n))
    assert plan_checksum(plan) == before


def test_executors_agree_bitwise():
    rng = np.random.default_rng(13)
    n = 24
    A = random_dominant(rng, n)
    F = rng.normal(size=n)
    results = {}
    for executor in ("sim", "threads"):
        plan = make_plan(n, [6, 6, 6, 6], matrix=A)
        results[executor] = solve_many(plan, F, executor=executor)
    assert np.array_equal(results["sim"], results["threads"])


@pytest.mark.parametrize("sizes", [[12], [6, 6]])
def test_unknown_executor_is_rejected_at_every_p(sizes):
    # p = 1 launches no ranks, and is checked all the same
    rng = np.random.default_rng(20)
    single = make_plan(12, sizes, rng=rng)
    family = make_plan(12, sizes, matrix=random_family(rng, 12, 3))
    with pytest.raises(ConfigError):
        solve_many(single, np.ones(12), executor="bogus")
    with pytest.raises(ConfigError):
        solve_series(family, np.ones((12, 3)), executor="bogus")


def test_trace_totals_match_measured_traffic(monkeypatch):
    # the messages recorded during the solve are the ones CommStats counts
    rng = np.random.default_rng(14)
    n = 28
    A = random_dominant(rng, n)
    plan = make_plan(n, [4] * 7, matrix=A)
    sent = record_sends(monkeypatch)
    solve_many(plan, rng.normal(size=(n, 3)))
    stats = plan.world.stats_snapshot()
    assert per_rank(sent, 7) == (list(stats.msgs_sent),
                                 list(stats.scalars_sent))


def test_p256_sim_solve_starts_no_thread_and_sends_the_plan_traffic(
        monkeypatch):
    # the sim executor runs all 256 rank programs in the calling thread
    # (never start the threads executor at this p)
    rng = np.random.default_rng(15)
    n, p, M = 2 ** 14, 256, 2
    A = random_dominant(rng, n)
    plan = build_plan(A, Partition.balanced(n, p), CommWorld(p))
    F = rng.normal(size=(n, M))
    threads_before = threading.active_count()
    seen = []
    real_betas = dichotomy_module.local_betas

    def counting_betas(*args):
        seen.append(threading.active_count())
        return real_betas(*args)

    monkeypatch.setattr(dichotomy_module, "local_betas", counting_betas)
    sent = record_sends(monkeypatch)
    X = solve_many(plan, F)
    assert seen == [threads_before] * p
    assert threading.active_count() == threads_before
    assert np.abs(X - thomas_solve(A, F)).max() <= 1e-10 * np.abs(X).max()

    # the plan's traffic, from its splitting tree: each split's reduce
    # groups get one message of 2*M scalars from every member but the
    # middle, and the middle sends each neighbour one correction of M
    msgs, scalars = [0] * p, [0] * p
    for level in plan.levels:
        for entry in level:
            if entry[0] == "leaf":
                continue
            _, lo, hi, mid = entry
            for r in range(lo, hi + 1):
                if r != mid:
                    msgs[r - 1] += 1
                    scalars[r - 1] += 2 * M
            neighbours = (mid - 1 >= lo) + (mid + 1 <= hi)
            msgs[mid - 1] += neighbours
            scalars[mid - 1] += neighbours * M
    assert plan.depth == 8
    assert per_rank(sent, p) == (msgs, scalars)
    stats = plan.world.stats_snapshot()
    assert list(stats.scalars_sent) == scalars
    assert list(stats.msgs_sent) == list(stats.reduces) == msgs


# ---------------------------------------------------------------------------
# families of matrices sharing one partition
# ---------------------------------------------------------------------------


def random_family(rng, n, L):
    members = [random_dominant(rng, n) for _ in range(L)]
    return TridiagonalMatrix(np.column_stack([A.diag for A in members]),
                             np.column_stack([A.upper for A in members]),
                             np.column_stack([A.lower for A in members]))


def member(family, l):
    return TridiagonalMatrix(family.diag[:, l], family.upper[:, l],
                             family.lower[:, l])


@pytest.mark.parametrize("L", [1, 5, 63])
@pytest.mark.parametrize("p", [2, 3, 4, 7, 64])
def test_family_solve_matches_per_member_dense(p, L):
    rng = np.random.default_rng(100 * p + L)
    sizes = [int(s) for s in rng.integers(2, 10, size=p)]   # uneven blocks
    n = sum(sizes)
    family = random_family(rng, n, L)
    plan = make_plan(n, sizes, matrix=family)
    assert len(plan) == L
    B = rng.normal(size=(n, L))
    X = solve_series(plan, B)
    assert X.shape == (n, L)
    for l in range(L):
        x = np.linalg.solve(tridiagonal_dense(member(family, l)), B[:, l])
        assert np.linalg.norm(X[:, l] - x) <= 1e-12 * np.linalg.norm(x)


def test_family_executors_agree_bitwise():
    rng = np.random.default_rng(15)
    n, L = 30, 5
    family = random_family(rng, n, L)
    B = rng.normal(size=(n, L))
    results = {}
    for executor in ("sim", "threads"):
        plan = make_plan(n, [7, 8, 6, 9], matrix=family)
        results[executor] = solve_series(plan, B, executor=executor)
    assert np.array_equal(results["sim"], results["threads"])


def test_family_traffic_is_a_single_matrix_batch_of_l_columns():
    # the cost models take l = L * M: a family of L members with one rhs
    # each moves exactly the scalars of one matrix with L right-hand sides,
    # in the same number of messages
    rng = np.random.default_rng(16)
    n, L, sizes = 26, 9, [5, 8, 6, 7]
    family = make_plan(n, sizes, matrix=random_family(rng, n, L))
    solve_series(family, rng.normal(size=(n, L)))
    single = make_plan(n, sizes, rng=rng)
    solve_many(single, rng.normal(size=(n, L)))
    one_rhs = make_plan(n, sizes, rng=rng)
    solve_many(one_rhs, rng.normal(size=n))
    fam, one, base = (plan.world.stats_snapshot()
                      for plan in (family, single, one_rhs))
    assert fam.total_scalars() == one.total_scalars() == L * base.total_scalars()
    assert fam.total_msgs() == one.total_msgs() == base.total_msgs()
    assert fam.levels == one.levels == base.levels


def test_one_member_family_is_the_matrix_plan():
    # 1-D bands and (n, 1) bands are the same one-member family
    rng = np.random.default_rng(17)
    A = random_dominant(rng, 20)
    column = TridiagonalMatrix(A.diag[:, None], A.upper[:, None],
                               A.lower[:, None])
    for sizes in ([5, 6, 4, 5], [20]):
        as_matrix = make_plan(20, sizes, matrix=A)
        as_family = make_plan(20, sizes, matrix=column)
        assert len(as_family) == len(as_matrix) == 1
        assert plan_checksum(as_family) == plan_checksum(as_matrix)


def test_rank_plan_holds_only_owned_rows_and_tree_entries():
    # O(n/p + log p) per member: nothing in a rank's plan spans all n rows,
    # but for the interior, held dense while 48**2 * L is under the cap
    rng = np.random.default_rng(18)
    n, p = 400, 8
    for L, dense in ((3, True), (29, False)):
        assert (48 ** 2 * L <= dichotomy_module.DENSE_INTERIOR_CAP) == dense
        plan = make_plan(n, [50] * p, matrix=random_family(rng, n, L))
        for rp in plan.ranks:
            assert rp.G_L.shape == rp.G_R.shape == (50, L)
            assert rp.weights.shape == (plan.depth, 2, L)
            assert rp.fold_left.shape == rp.fold_right.shape == (L,)
            assert rp.interior_fact.nsys == L
            if dense:
                # the 48 interior rows' inverses: k**2 L within the cap
                [inverse] = arrays_of(rp.interior_fact)
                assert inverse.shape == (48, 48, L)
                assert inverse.size <= dichotomy_module.DENSE_INTERIOR_CAP
            else:
                # the 48 interior rows in blocks: O(n/p) scalars per member
                assert all(arr.size <= 2 * 48 * L
                           for arr in arrays_of(rp.interior_fact))
        assert plan.full_fact is None


def test_series_and_batch_shapes_are_checked():
    rng = np.random.default_rng(19)
    family = make_plan(12, [6, 6], matrix=random_family(rng, 12, 3))
    with pytest.raises(DimensionMismatch):
        solve_series(family, np.zeros((12, 2)))      # one column per member
    with pytest.raises(DimensionMismatch):
        solve_many(family, np.zeros((12, 3)))        # a family is not a batch
    with pytest.raises(DimensionMismatch):
        local_betas(family, 1, np.zeros((6, 2)))
    single = make_plan(12, [6, 6], rng=rng)
    with pytest.raises(DimensionMismatch):
        solve_series(single, np.zeros((12, 4)))


@pytest.mark.parametrize("executor", ["sim", "threads"])
@pytest.mark.parametrize("sizes", [[14], [9, 5], [2, 5, 2, 5]])
def test_solves_leave_the_rhs_unchanged_and_unshared(sizes, executor):
    # the ranks write their rows of a fresh solution array, never into B
    rng = np.random.default_rng(len(sizes))
    n = sum(sizes)
    cases = [(solve_many, make_plan(n, sizes, rng=rng), rng.normal(size=n)),
             (solve_many, make_plan(n, sizes, rng=rng),
              rng.normal(size=(n, 3))),
             (solve_series, make_plan(n, sizes,
                                      matrix=random_family(rng, n, 4)),
              rng.normal(size=(n, 4)))]
    for solve, plan, B in cases:
        before = B.tobytes()
        X = solve(plan, B, executor=executor)
        assert B.tobytes() == before
        assert X.shape == B.shape and not np.shares_memory(X, B)


@pytest.mark.parametrize("L", [1, 5])
def test_two_row_blocks_agree_across_executors_and_with_dense(L):
    # a two-row block has no interior: its rank writes only the first and
    # last rows of its share of the solution; L = 1 solves a batch of 3
    rng = np.random.default_rng(21 + L)
    sizes = [2, 5, 2, 12]
    n = sum(sizes)
    A = random_family(rng, n, L) if L > 1 else random_dominant(rng, n)
    B = rng.normal(size=(n, L if L > 1 else 3))
    solve = solve_series if L > 1 else solve_many
    results = {}
    for executor in ("sim", "threads"):
        plan = make_plan(n, sizes, matrix=A)
        results[executor] = solve(plan, B, executor=executor)
    assert np.array_equal(results["sim"], results["threads"])
    X = results["sim"]
    # nor do the bits depend on the layout of B
    plan = make_plan(n, sizes, matrix=A)
    assert solve(plan, np.asfortranarray(B)).tobytes() == X.tobytes()
    for j in range(B.shape[1]):
        x = np.linalg.solve(
            tridiagonal_dense(member(A, j) if L > 1 else A), B[:, j])
        assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)


def test_threads_share_the_solution_array_under_fast_switching(monkeypatch):
    # eight workers on any host, switching every microsecond: each rank
    # writes only its own rows of X, so every run is bitwise the sim run
    rng = np.random.default_rng(23)
    sizes = [2, 7, 3, 2, 12, 2, 5, 9]
    n, L = sum(sizes), 5
    family = random_family(rng, n, L)
    B = rng.normal(size=(n, L))
    expected = solve_series(make_plan(n, sizes, matrix=family), B)
    plan = make_plan(n, sizes, matrix=family)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    runs = []
    runner = threading.Thread(
        target=lambda: runs.extend(
            solve_series(plan, B, executor="threads").tobytes()
            for _ in range(20)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert runs == [expected.tobytes()] * 20


# uneven blocks with sizes 2 (no interior) and 3 (one interior row)
UNEVEN = {2: (3, 2), 3: (2, 9, 3), 4: (3, 14, 2, 6), 5: (3, 12, 2, 5, 3),
          7: (2, 7, 3, 3, 12, 2, 5), 8: (9, 2, 3, 12, 5, 3, 2, 7),
          16: (2, 3, 11, 2, 4, 3, 9, 2, 3, 2, 17, 3, 5, 2, 3, 6)}


def padded_bands(lower, diag, upper, first, k, longest):
    """Rows first..first + k - 1 of the bands, padded to ``longest`` rows
    with decoupled identity rows."""
    L = diag.shape[1]
    out = [np.zeros((longest - 1, L)), np.ones((longest, L)),
           np.zeros((longest - 1, L))]
    out[0][:k - 1] = lower[first: first + k - 1]
    out[1][:k] = diag[first: first + k]
    out[2][:k - 1] = upper[first: first + k - 1]
    return out


@pytest.mark.parametrize("L", [1, 4])
@pytest.mark.parametrize("p", sorted(UNEVEN))
def test_interior_factors_are_each_rank_alone_bitwise(monkeypatch, p, L):
    # blocked interiors (a cap of 0: these are short enough to be held
    # dense) are eliminated as one padded family; each rank's share,
    # solving its interior alone in its own storage, gives bitwise what the
    # blocked elimination of its padded interior gives on those rows
    monkeypatch.setattr(dichotomy_module, "DENSE_INTERIOR_CAP", 0)
    sizes = UNEVEN[p]
    n = sum(sizes)
    longest = max(sizes) - 2
    rng = np.random.default_rng(70 + 10 * p + L)
    A = random_family(rng, n, L) if L > 1 else random_dominant(rng, n)
    plan = make_plan(n, sizes, matrix=A)
    lower, diag, upper = (b.reshape(-1, L) for b in (A.lower, A.diag, A.upper))
    m, P = block_shape(longest)
    for rp, size in zip(plan.ranks, sizes):
        k = size - 2
        if k == 0:
            assert rp.interior_fact is None
            continue
        share = rp.interior_fact
        assert all(not arr.flags.writeable for arr in arrays_of(share))
        assert all(arr.flags.c_contiguous for arr in share.blocks)
        # its own L columns, over the blocks that reach its last row
        keep = k // (m + 1) + 1
        assert share.blocks.dn.shape == (m, keep * L)
        assert share.left.shape == (m, keep - 1, L)
        ref = block_factor(*padded_bands(lower, diag, upper, rp.m_L, k,
                                         longest))
        F = np.zeros((longest, L if L > 1 else 3))
        F[:k] = rng.normal(size=(k, F.shape[1]))
        X = share.solve(F[:k])
        assert X.tobytes() == ref.solve(F)[:k].tobytes()
        interior = TridiagonalMatrix(*(b[:, 0] if L == 1 else b for b in (
            diag[rp.m_L: rp.m_L + k], upper[rp.m_L: rp.m_L + k - 1],
            lower[rp.m_L: rp.m_L + k - 1])))
        for j in range(F.shape[1]):
            x = np.linalg.solve(tridiagonal_dense(
                member(interior, j) if L > 1 else interior), F[:k, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("L", [1, 4])
@pytest.mark.parametrize("p", [1] + sorted(set(UNEVEN) - {5}))
def test_uneven_plans_agree_across_executors_and_with_dense(p, L):
    # blocked interiors of 0 to 15 rows in one launch: sim and threads agree
    # bit for bit; L = 1 solves a batch of 3
    sizes = UNEVEN.get(p, (9,))
    n = sum(sizes)
    rng = np.random.default_rng(90 + 10 * p + L)
    A = random_family(rng, n, L) if L > 1 else random_dominant(rng, n)
    B = rng.normal(size=(n, L if L > 1 else 3))
    solve = solve_series if L > 1 else solve_many
    X = solve(make_plan(n, sizes, matrix=A), B)
    threads = solve(make_plan(n, sizes, matrix=A), B, executor="threads")
    assert threads.tobytes() == X.tobytes()
    for j in range(B.shape[1]):
        x = np.linalg.solve(
            tridiagonal_dense(member(A, j) if L > 1 else A), B[:, j])
        assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("sizes, eliminations", [
    ((16,) * 4, 3), ((16,) * 16, 3), ((2,) * 4, 2), ((2,) * 16, 2),
    ((16,), 1)])
def test_build_plan_eliminates_the_interiors_in_one_call(monkeypatch, sizes,
                                                         eliminations):
    # a p >= 2 build eliminates the matrix top-down and bottom-up, both in
    # one kernel call as a family of two, and every rank's interior in one
    # call before it: forced blocked (a cap of 0), one blocked elimination
    # of them all; held dense, one kernel call on the R interiors and their
    # reversals (2 R members).  Per-rank eliminations would make p + 2
    # calls; at p = 1 the one blocked elimination the solve reads is the
    # whole build, whatever the cap
    factor = dichotomy_module.thomas_factor
    blocked = dichotomy_module.block_factor
    calls, inside = [], []          # members eliminated by each call

    def counting_factor(lower, diag, upper):
        if not inside:
            calls.append(diag.shape[1])
        return factor(lower, diag, upper)

    def counting_blocked(*bands):
        calls.append(1)
        inside.append(True)
        try:
            return blocked(*bands)
        finally:
            inside.pop()

    monkeypatch.setattr(dichotomy_module, "thomas_factor", counting_factor)
    monkeypatch.setattr(dichotomy_module, "block_factor", counting_blocked)
    cap = dichotomy_module.DENSE_INTERIOR_CAP
    monkeypatch.setattr(dichotomy_module, "DENSE_INTERIOR_CAP", 0)
    make_plan(sum(sizes), sizes, rng=np.random.default_rng(80))
    assert sum(calls) == eliminations
    assert len(calls) == eliminations - (len(sizes) > 1)
    monkeypatch.setattr(dichotomy_module, "DENSE_INTERIOR_CAP", cap)
    calls.clear()
    make_plan(sum(sizes), sizes, rng=np.random.default_rng(80))
    interiors = sum(size > 2 for size in sizes)
    assert calls == ([1] if len(sizes) == 1 else
                     [2 * interiors] * (interiors > 0) + [2])


def grown(sizes, k):
    """``sizes`` with its largest block grown to an interior of ``k`` rows."""
    out = list(sizes)
    out[out.index(max(out))] = k + 2
    return tuple(out)


@pytest.mark.parametrize("L", [1, 4, 64])
@pytest.mark.parametrize("p", sorted(UNEVEN))
def test_dense_interiors_match_dense_solves(p, L):
    # interiors up to the longest k with k**2 L within the cap are held as
    # their inverses, read-only and C-contiguous; one row more and they are
    # blocked; either way every member's solution is the dense solve's,
    # and sim and threads agree bit for bit; L = 1 solves a batch of 3
    cap_k = math.isqrt(dichotomy_module.DENSE_INTERIOR_CAP // L)
    rng = np.random.default_rng(110 + 10 * p + L)
    for sizes in (UNEVEN[p], grown(UNEVEN[p], cap_k),
                  grown(UNEVEN[p], cap_k + 1)):
        n = sum(sizes)
        A = random_family(rng, n, L) if L > 1 else random_dominant(rng, n)
        B = rng.normal(size=(n, L if L > 1 else 3))
        solve = solve_series if L > 1 else solve_many
        plan = make_plan(n, sizes, matrix=A)
        dense = max(sizes) - 2 <= cap_k
        for rp, size in zip(plan.ranks, sizes):
            if size == 2:
                continue
            fact = rp.interior_fact
            assert isinstance(fact, dichotomy_module._DenseInverse) == dense
            if dense:
                assert fact.inverse.shape == (size - 2, size - 2, L)
                assert fact.inverse.flags.c_contiguous
                assert not fact.inverse.flags.writeable
        X = solve(plan, B)
        threads = solve(make_plan(n, sizes, matrix=A), B, executor="threads")
        assert threads.tobytes() == X.tobytes()
        for j in range(B.shape[1]):
            x = np.linalg.solve(
                tridiagonal_dense(member(A, j) if L > 1 else A), B[:, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("L", [1, 4, 64])
@pytest.mark.parametrize("p", sorted(UNEVEN))
def test_dense_and_blocked_interiors_agree(monkeypatch, p, L):
    # the interior step follows every message, so the blocked form (forced
    # by a cap of 0) sends bitwise the same messages and counts and gives
    # bitwise the same first and last rows; the interiors agree to rounding
    sizes = UNEVEN[p]
    n = sum(sizes)
    rng = np.random.default_rng(130 + 10 * p + L)
    A = random_family(rng, n, L) if L > 1 else random_dominant(rng, n)
    B = rng.normal(size=(n, L if L > 1 else 3))
    solve = solve_series if L > 1 else solve_many
    sent = record_payloads(monkeypatch)
    runs = []
    for cap in (dichotomy_module.DENSE_INTERIOR_CAP, 0):
        monkeypatch.setattr(dichotomy_module, "DENSE_INTERIOR_CAP", cap)
        plan = make_plan(n, sizes, matrix=A)
        X = solve(plan, B)
        runs.append((X, list(sent), plan.world.stats_snapshot()))
        sent.clear()
    (dense, dense_sent, dense_stats), (blocked, blocked_sent,
                                       blocked_stats) = runs
    assert dense_sent == blocked_sent and dense_sent
    assert dense_stats == blocked_stats
    ends = np.cumsum(sizes)
    edges = np.concatenate([ends - np.array(sizes), ends - 1])
    assert dense[edges].tobytes() == blocked[edges].tobytes()
    inner = np.setdiff1d(np.arange(n), edges)
    assert np.all(np.abs(dense[inner] - blocked[inner])
                  <= 1e-15 * np.abs(blocked[inner]).max(axis=0))


# ---------------------------------------------------------------------------
# the blocked elimination
# ---------------------------------------------------------------------------


def test_block_elimination_matches_dense_at_every_order():
    # one block (n <= 2), exact fit (n = P m + P - 1) and padded last
    # blocks; nonsymmetric families, and a one-member family's batches
    kinds = set()
    for n in range(1, 301):
        m, P = block_shape(n)
        kinds.add("one block" if P == 1 else
                  "exact fit" if n == P * m + P - 1 else "padded")
        rng = np.random.default_rng(n)
        family = random_family(rng, n, 3)
        elim = block_factor(family.lower, family.diag, family.upper)
        B = rng.normal(size=(n, 3))
        X = elim.solve(B)
        A = random_dominant(rng, n)
        single = block_factor(A.lower[:, None], A.diag[:, None],
                              A.upper[:, None])
        dense = tridiagonal_dense(A)
        for j in range(3):
            x = np.linalg.solve(tridiagonal_dense(member(family, j)), B[:, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)
        for F in (B[:, 0], B[:, :1], B):
            x = np.linalg.solve(dense, F)
            assert np.linalg.norm(single.solve(F) - x) \
                <= 1e-12 * np.linalg.norm(x)
    assert kinds == {"one block", "exact fit", "padded"}


def test_block_factor_is_bitwise_its_first_form():
    # the inverse rows are formed for every block at once, each only on
    # the blocks that keep it, and one shared coupling band is laid out
    # once; every array keeps the bits of one block of one member at a
    # time in Python floats, for distinct and for shared (symmetric)
    # bands, and with zero couplings under positive and negative pivots,
    # where only the sign of a zero could differ
    for n in (3, 4, 8, 15, 16, 17, 40, 99, 257):
        rng = np.random.default_rng(700 + n)
        family = random_family(rng, n, 5)
        sym = np.array(family.lower)
        holes = np.array(family.upper)
        holes[::3, ::2] = 0.0
        for bands in ((family.lower, family.diag, family.upper),
                      (sym, family.diag + 2.0, sym),
                      (family.lower, family.diag, holes),
                      (-family.lower, -family.diag, -holes)):
            mine = arrays_of(block_factor(*bands))
            ref = arrays_of(block_factor_reference(*bands))
            assert len(mine) == len(ref) == 10
            for a, b in zip(mine, ref):
                assert a.shape == b.shape
                assert a.tobytes() == np.array(b).tobytes()
                assert not a.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 8, 15, 40])
def test_block_elimination_solves_in_place(n):
    # out may be the right-hand side itself; the bits are those of a fresh
    # solve, for a family and for a one-member batch of 1 and of 3, by
    # the blocked elimination and by the dense inverse
    rng = np.random.default_rng(30 + n)
    family = random_family(rng, n, 4)
    A = random_dominant(rng, n)
    one = (A.lower[:, None], A.diag[:, None], A.upper[:, None])
    dense = lambda lower, diag, upper: dichotomy_module._DenseInverse(
        dichotomy_module._dense_inverses(lower, diag, upper))
    cases = [(build(*bands), K) for build in (block_factor, dense)
             for bands, K in (((family.lower, family.diag, family.upper), 4),
                              (one, 1), (one, 3))]
    for elim, K in cases:
        F = rng.normal(size=(n, K))
        expected = elim.solve(F)
        assert elim.solve(F, out=F) is F
        assert F.tobytes() == expected.tobytes()
        with pytest.raises(DimensionMismatch):
            elim.solve(F, out=np.empty((n, K + 1)))


@pytest.mark.parametrize("n", [3, 24, 99])
def test_one_member_batch_is_bitwise_its_columns_solved_apart(n):
    # a batch's Schur step solves its columns as members sharing the Schur
    # bands; every column keeps the bits of its own solve
    rng = np.random.default_rng(40 + n)
    A = random_dominant(rng, n)
    elim = block_factor(A.lower[:, None], A.diag[:, None], A.upper[:, None])
    assert elim.schur is not None
    B = rng.normal(size=(n, 5))
    X = elim.solve(B)
    for j in range(5):
        assert X[:, j].tobytes() == elim.solve(B[:, j].copy()).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 256])
def test_separators_first_solve_matches_the_scalar_thomas_loop(n):
    # one block (n <= 2), two (n = 3, 6, 7; the last block of n = 6
    # padded) and n = 256, whose last block holds one real row; distinct
    # bands, zero couplings, and the same negated (negative pivots); a
    # family, a one-member family's (n,) and (n, M) right-hand sides, and
    # out=F: every column within 1e-14 of the scalar Thomas loop
    assert [block_shape(k)[1] for k in (1, 2, 3, 6, 7)] == [1, 1, 2, 2, 2]
    m, P = block_shape(n)
    assert n != 256 or n - (P - 1) * (m + 1) == 1
    rng = np.random.default_rng(900 + n)
    family = random_family(rng, n, 4)
    holes_lower, holes_upper = np.array(family.lower), np.array(family.upper)
    holes_lower[::2] = 0.0
    holes_upper[1::3, 1:] = 0.0
    for lower, diag, upper in ((family.lower, family.diag, family.upper),
                               (holes_lower, family.diag, holes_upper),
                               (-holes_lower, -family.diag, -holes_upper)):
        B = rng.normal(size=(n, 4))

        def thomas(l, F):
            return np.column_stack([scalar_thomas(
                lower[:, l], diag[:, l], upper[:, l], f)[2] for f in F.T])

        want = np.column_stack([thomas(l, B[:, l:l + 1]) for l in range(4)])
        elim = block_factor(lower, diag, upper)
        one = block_factor(lower[:, :1], diag[:, :1], upper[:, :1])
        F = B.copy()
        assert elim.solve(F, out=F) is F
        batch = thomas(0, B)
        for X, x in ((elim.solve(B), want), (F, want),
                     (one.solve(B[:, 0])[:, None], batch[:, :1]),
                     (one.solve(B[:, :1]), batch[:, :1]),
                     (one.solve(B), batch)):
            for j in range(x.shape[1]):
                assert np.linalg.norm(X[:, j] - x[:, j]) \
                    <= 1e-14 * np.linalg.norm(x[:, j])


def test_block_elimination_keeps_rows_of_the_block_inverses():
    # left[:, k] is the first row of block k + 1's inverse and right[:, k]
    # the last row of block k's, each times separator k's coupling to
    # that block; no spike is held
    n, L = 40, 3
    rng = np.random.default_rng(950)
    family = random_family(rng, n, L)
    elim = block_factor(family.lower, family.diag, family.upper)
    m, P = block_shape(n)
    assert elim.left.shape == elim.right.shape == (m, P - 1, L)
    for k in range(P):
        start, stop = k * (m + 1), min(k * (m + 1) + m, n)
        for l in range(L):
            block = TridiagonalMatrix(family.diag[start:stop, l],
                                      family.upper[start:stop - 1, l],
                                      family.lower[start:stop - 1, l])
            inv = np.linalg.inv(tridiagonal_dense(block))
            if k > 0:
                first = family.upper[start - 1, l] * inv[0]
                assert np.abs(elim.left[:inv.shape[0], k - 1, l] - first) \
                    .max() <= 1e-14 * np.abs(first).max()
            if k < P - 1:
                last = family.lower[stop - 1, l] * inv[-1]
                assert np.abs(elim.right[:, k, l] - last).max() \
                    <= 1e-14 * np.abs(last).max()


@pytest.mark.parametrize("L, W", [(4, 4), (1, 5)])
def test_block_solve_is_one_sweep_and_one_schur_solve(monkeypatch, L, W):
    # separators first: a solve makes one kernel call on the Schur
    # complement and one on the blocks, and allocates no (m, P - 1, W)
    # array beside its block copy of the rhs and its solution
    n = 40 * 41 - 1                      # 40 blocks of 40 rows
    rng = np.random.default_rng(960 + L)
    family = random_family(rng, n, L)
    elim = block_factor(family.lower, family.diag, family.upper)
    m, P = elim.blocks.n, elim.left.shape[1] + 1
    assert (m, P) == (40, 40)
    calls = []
    apply = dichotomy_module.thomas_apply

    def counting(fact, F, out=None):
        calls.append(fact.n)
        return apply(fact, F, out=out)

    monkeypatch.setattr(dichotomy_module, "thomas_apply", counting)
    B = rng.normal(size=(n, W))
    elim.solve(B)
    assert calls == [P - 1, m]
    tracemalloc.start()
    try:
        elim.solve(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spike = m * (P - 1) * W * 8
    assert peak < m * P * W * 8 + B.nbytes + spike // 2


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


def test_cost_model_plugin_examples():
    assert predict_time_dichotomy(2, 1, 0.0, 0.0, 1.0) == pytest.approx(1.0)
    assert predict_time_cyclic(4, 1, 1.0, 1.0, 1.0) == pytest.approx(12.0)


def test_cost_model_times_beyond_the_float_range_raise():
    # finite parameters whose predicted time overflows gave inf
    for model in (predict_time_dichotomy, predict_time_cyclic):
        for alpha, beta, gamma in ((1e308, 0.0, 0.0), (0.0, 1e308, 1e308)):
            with pytest.raises(DomainError, match="float range"):
                model(8, 4, alpha, beta, gamma)


def test_cost_model_large_series_ratio():
    # alpha=0, beta=gamma, large l: ratio tends to a closed-form constant
    l = 1e9
    ratio = (predict_time_dichotomy(16, l, 0.0, 1.0, 1.0)
             / predict_time_cyclic(16, l, 0.0, 1.0, 1.0))
    assert ratio == pytest.approx(0.57421875, rel=1e-9)


def test_cost_model_domain_errors():
    for bad_p in (0, 1, -4):
        with pytest.raises(DomainError):
            predict_time_dichotomy(bad_p, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        predict_time_cyclic(6, 1, 1, 1, 1)  # not a power of two
    with pytest.raises(DomainError):
        predict_time_dichotomy(4, -1, 1, 1, 1)
    for bad in (math.nan, math.inf):
        for args in [(bad, 1, 1, 1), (1, bad, 1, 1), (1, 1, bad, 1),
                     (1, 1, 1, bad)]:
            with pytest.raises(DomainError):
                predict_time_dichotomy(4, *args)
            with pytest.raises(DomainError):
                predict_time_cyclic(4, *args)
