"""Tests for axisolver.comm: channels, reduces, executors, statistics."""

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axisolver.comm import EXECUTORS, CommStats, CommWorld, Group, reduce_schedule
from axisolver.errors import (
    Deadlock,
    DimensionMismatch,
    IndexOutOfRange,
    MismatchedLength,
    MissingParticipant,
)


# ---------------------------------------------------------------------------
# send / recv
# ---------------------------------------------------------------------------


def test_send_recv_single_scalar_loopback():
    world = CommWorld(4)

    def program(comm):
        if comm.rank == 3:
            yield from comm.send(4, [2.5])
        elif comm.rank == 4:
            return (yield from comm.recv(3))

    results = world.run(program, executor="sim")
    np.testing.assert_array_equal(results[4], [2.5])


def test_channel_is_fifo():
    world = CommWorld(4)

    def program(comm):
        if comm.rank == 3:
            yield from comm.send(4, [1.0])
            yield from comm.send(4, [2.0, 2.0])
        elif comm.rank == 4:
            first = yield from comm.recv(3)
            second = yield from comm.recv(3)
            return (first.tolist(), second.tolist())

    results = world.run(program, executor="sim")
    assert results[4] == ([1.0], [2.0, 2.0])


def test_unmatched_recv_deadlocks_in_simulator():
    world = CommWorld(2)

    def program(comm):
        if comm.rank == 1:
            yield from comm.recv(2)

    with pytest.raises(Deadlock) as exc:
        world.run(program, executor="sim")
    assert 1 in exc.value.blocked


def test_mutual_recv_deadlocks():
    world = CommWorld(2)

    def program(comm):
        other = 2 if comm.rank == 1 else 1
        yield from comm.recv(other)

    with pytest.raises(Deadlock) as exc:
        world.run(program, executor="sim")
    assert set(exc.value.blocked) == {1, 2}


def test_payload_of_two_dimensions_is_refused():
    def program(comm):
        if comm.rank == 1:
            yield from comm.send(2, np.ones((2, 2)))

    with pytest.raises(DimensionMismatch, match="payload must be scalar "
                       "or 1-D"):
        CommWorld(2).run(program, executor="sim")


def test_bad_peer_ranks_rejected():
    world = CommWorld(2)

    def self_send(comm):
        yield from comm.send(comm.rank, [1.0])

    def out_of_range(comm):
        if comm.rank == 1:
            yield from comm.send(5, [1.0])

    with pytest.raises(IndexOutOfRange):
        world.run(self_send, executor="sim")
    with pytest.raises(IndexOutOfRange):
        CommWorld(2).run(out_of_range, executor="sim")
    for p in (0, 2.5, np.nan, np.inf, None):
        with pytest.raises(IndexOutOfRange):
            CommWorld(p)
    assert CommWorld(2.0).p == CommWorld(np.int64(2)).p == 2


def test_rank_exception_propagates():
    world = CommWorld(3)

    def program(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        if comm.rank == 3:
            yield from comm.recv(2)

    with pytest.raises(ValueError, match="boom on rank 2"):
        world.run(program, executor="sim")


def test_first_failure_closes_the_other_ranks_and_is_reraised():
    world = CommWorld(4)
    started, closed = [], []

    def program(comm):
        started.append(comm.rank)
        try:
            if comm.rank == 2:
                raise ValueError("first failure, on rank 2")
            if comm.rank == 4:
                raise RuntimeError("rank 4 must never run")
            yield from comm.recv(2)
        finally:
            closed.append(comm.rank)

    with pytest.raises(ValueError, match="first failure"):
        world.run(program, executor="sim")
    # rank 1 waited on rank 2 and was closed; ranks 3 and 4 never started
    assert started == [1, 2]
    assert closed == [2, 1]


def test_program_that_is_not_a_generator_is_rejected():
    world = CommWorld(2)

    def program(comm):
        if comm.rank == 1:
            comm.send(2, [1.0])  # without 'yield from' this sends nothing

    for executor in ("sim", "threads"):
        with pytest.raises(TypeError, match="not a generator"):
            world.run(program, executor=executor)
    assert world.stats_snapshot().total_msgs() == 0


def _extra_threads(executor, p):
    """The most threads a run may start: the calling thread is worker 0."""
    return 0 if executor == "sim" else min(p, os.cpu_count()) - 1


def test_p256_deadlock_is_reported_at_once():
    # every rank waits on its right neighbour: the driver sees that no rank
    # can run without waiting for a timeout, on at most min(p, cores) workers
    p = 256
    threads_before = threading.active_count()
    for executor in EXECUTORS:
        def program(comm):
            assert threading.active_count() - threads_before <= \
                _extra_threads(executor, p)
            yield from comm.recv(comm.rank % comm.p + 1)

        started = time.perf_counter()
        with pytest.raises(Deadlock) as exc:
            CommWorld(p).run(program, executor=executor)
        assert time.perf_counter() - started < 1.2
        assert exc.value.blocked == {r: f"recv from {r % p + 1}"
                                     for r in range(1, p + 1)}
        assert threading.active_count() == threads_before


def test_threads_at_p256_run_on_at_most_one_thread_per_core():
    # a ring shift over 256 ranks: each rank sends its number on, then
    # receives its left neighbour's, on min(p, cores) - 1 started threads
    p = 256
    threads_before = threading.active_count()

    def program(comm):
        yield from comm.send(comm.rank % comm.p + 1, [float(comm.rank)])
        got = yield from comm.recv((comm.rank - 2) % comm.p + 1)
        assert threading.active_count() - threads_before <= \
            _extra_threads("threads", p)
        return float(got[0])

    world = CommWorld(p)
    results = world.run(program, executor="threads")
    assert results == {r: float((r - 2) % p + 1) for r in range(1, p + 1)}
    assert world.stats_snapshot().total_msgs() == p
    assert threading.active_count() == threads_before


def test_missing_participant_is_reported_alike_under_both_executors():
    # rank 8 finishes without joining the reduce the other seven wait in
    group = Group(tuple(range(1, 9)), root=1)

    def program(comm):
        if comm.rank < 8:
            yield from comm.reduce_sum_to_root(group, [1.0])

    messages = {}
    for executor in EXECUTORS:
        started = time.perf_counter()
        with pytest.raises(MissingParticipant) as exc:
            CommWorld(8).run(program, executor=executor)
        assert time.perf_counter() - started < 1.0
        messages[executor] = str(exc.value)
    assert messages["threads"] == messages["sim"]


def test_threads_rank_failure_closes_every_rank_and_leaves_no_thread():
    # the last rank fails while the others wait on it: its error is
    # re-raised, every generator that started is closed, no thread is left
    p = 8
    threads_before = threading.active_count()
    started, closed = set(), set()

    def program(comm):
        started.add(comm.rank)
        try:
            if comm.rank == p:
                raise ValueError(f"failure on rank {p}")
            yield from comm.recv(p)
        finally:
            closed.add(comm.rank)

    with pytest.raises(ValueError, match="failure on rank 8"):
        CommWorld(p).run(program, executor="threads")
    assert p in started and closed == started
    assert threading.active_count() == threads_before


def test_threads_stress_more_workers_than_cores(monkeypatch):
    # 8 reported cores give 8 workers for 16 ranks, more workers than real
    # cores, and the interpreter switches threads every microsecond: a lost
    # wake-up would hang the run, a lost update would change its results or
    # its traffic
    p = 16
    group = Group(tuple(range(1, p + 1)), root=5)

    def program(comm):
        acc = np.array([float(comm.rank), 1.0])
        for _ in range(20):
            yield from comm.send(comm.rank % p + 1, acc)
            acc = 0.5 * acc + (yield from comm.recv((comm.rank - 2) % p + 1))
            total = yield from comm.reduce_sum_to_root(group, acc)
            if total is not None:
                acc = acc + 1e-3 * total
        return acc.tobytes()

    def outcome(executor):
        world = CommWorld(p)
        return world.run(program, executor=executor), world.stats_snapshot()

    expected = outcome("sim")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    runs = []
    runner = threading.Thread(
        target=lambda: runs.extend(outcome("threads") for _ in range(5)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert runs == [expected] * 5


def test_worker_that_cannot_start_stops_the_run(monkeypatch):
    # four workers are due; the second thread fails to start, so the one
    # already running stops, and the start error is raised
    real_start = threading.Thread.start
    workers = []

    def start(thread):
        if workers:
            raise RuntimeError("can't start new thread")
        workers.append(thread)
        real_start(thread)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", start)
    threads_before = threading.active_count()
    started, closed = set(), set()

    def program(comm):
        started.add(comm.rank)
        try:
            yield from comm.send(comm.rank % comm.p + 1, [1.0])
            yield from comm.recv((comm.rank - 2) % comm.p + 1)
        finally:
            closed.add(comm.rank)

    with pytest.raises(RuntimeError, match="can't start new thread"):
        CommWorld(8).run(program, executor="threads")
    assert len(workers) == 1 and not workers[0].is_alive()
    assert closed == started
    assert threading.active_count() == threads_before


# ---------------------------------------------------------------------------
# reduce_sum_to_root
# ---------------------------------------------------------------------------


def test_reduce_three_members():
    world = CommWorld(3)
    group = Group((1, 2, 3), root=1)

    def program(comm):
        out = yield from comm.reduce_sum_to_root(group, [float(comm.rank)])
        return None if out is None else out.tolist()

    results = world.run(program, executor="sim")
    assert results[1] == [6.0]
    assert results[2] is None and results[3] is None


def test_reduce_single_member_is_identity():
    world = CommWorld(3)
    group = Group((2,), root=2)

    def program(comm):
        if comm.rank == 2:
            return (yield from comm.reduce_sum_to_root(group, [7.0, -1.0]))

    results = world.run(program, executor="sim")
    np.testing.assert_array_equal(results[2], [7.0, -1.0])
    # a 1-member reduce has no tree levels
    assert world.stats_snapshot().levels == (0, 0, 0)


def test_reduce_group_of_seven_value_and_levels():
    world = CommWorld(7)
    group = Group(tuple(range(1, 8)), root=1)

    def program(comm):
        out = yield from comm.reduce_sum_to_root(group, [float(comm.rank)])
        return None if out is None else float(out[0])

    results = world.run(program, executor="sim")
    assert results[1] == 28.0
    stats = world.stats_snapshot()
    # ceil(log2 7) = 3 tree levels, recorded for every member
    assert stats.levels == (3,) * 7
    # 6 tree edges of one scalar each
    assert stats.total_msgs() == 6 and stats.total_scalars() == 6


def test_reduce_mismatched_length_raises():
    world = CommWorld(2)
    group = Group((1, 2), root=1)

    def program(comm):
        yield from comm.reduce_sum_to_root(group, [1.0] * comm.rank)

    with pytest.raises(MismatchedLength):
        world.run(program, executor="sim")


def test_reduce_missing_participant_detected():
    world = CommWorld(3)
    group = Group((1, 2, 3), root=1)

    def program(comm):
        if comm.rank == 3:
            return None  # never joins the collective
        yield from comm.reduce_sum_to_root(group, [1.0])

    with pytest.raises(MissingParticipant):
        world.run(program, executor="sim")


def test_reduce_by_non_member_raises():
    world = CommWorld(3)
    group = Group((1, 2), root=1)

    def program(comm):
        yield from comm.reduce_sum_to_root(group, [1.0])

    with pytest.raises(MissingParticipant):
        world.run(program, executor="sim")


def test_group_validation():
    with pytest.raises(IndexOutOfRange):
        Group((), root=1)
    with pytest.raises(IndexOutOfRange):
        Group((1, 2), root=3)
    with pytest.raises(IndexOutOfRange):
        Group((1, 1, 2), root=1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduce_schedule_shape(data):
    size = data.draw(st.integers(min_value=1, max_value=33))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(1, 200), min_size=size, max_size=size))))
    root = data.draw(st.sampled_from(members))
    rounds = reduce_schedule(members, root)
    # ceil(log2 g) levels and exactly g-1 pairwise sends overall
    if size > 1:
        assert len(rounds) == int(np.ceil(np.log2(size)))
    else:
        assert rounds == []
    pairs = [pair for level in rounds for pair in level]
    assert len(pairs) == size - 1
    senders = [src for src, _ in pairs]
    assert len(set(senders)) == len(senders)  # each member sends at most once
    receivers = {dst for _, dst in pairs}
    assert root not in senders
    assert receivers <= set(members) and set(senders) <= set(members)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_reduce_sums_rank_values(data):
    p = data.draw(st.integers(min_value=1, max_value=9))
    size = data.draw(st.integers(min_value=1, max_value=p))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(1, p), min_size=size, max_size=size))))
    root = data.draw(st.sampled_from(members))
    group = Group(members, root)
    world = CommWorld(p)

    def program(comm):
        if comm.rank in members:
            out = yield from comm.reduce_sum_to_root(group, [float(comm.rank), 1.0])
            return None if out is None else out.tolist()

    results = world.run(program, executor="sim")
    assert results[root] == [float(sum(members)), float(len(members))]


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_fresh_world_stats_all_zero():
    stats = CommWorld(5).stats_snapshot()
    assert stats.msgs_sent == (0,) * 5
    assert stats.scalars_sent == (0,) * 5
    assert stats.reduces == (0,) * 5
    assert stats.levels == (0,) * 5


def test_reduce_p4_scalar_transfers_three():
    world = CommWorld(4)
    group = Group((1, 2, 3, 4), root=1)

    def program(comm):
        yield from comm.reduce_sum_to_root(group, [1.0])

    world.run(program, executor="sim")
    stats = world.stats_snapshot()
    assert stats.total_scalars() == 3  # one scalar per tree edge
    assert stats.reduces == (1, 1, 1, 1)
    assert stats.levels == (2, 2, 2, 2)


def test_stats_csv_round_trip(tmp_path):
    world = CommWorld(2)

    def program(comm):
        if comm.rank == 1:
            yield from comm.send(2, [1.0, 2.0, 3.0])
        else:
            yield from comm.recv(1)

    world.run(program, executor="sim")
    path = tmp_path / "stats.csv"
    world.stats_snapshot().write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,msgs_sent,scalars_sent,reduces,levels"
    assert lines[1] == "1,1,3,0,0"
    assert lines[2] == "2,0,0,0,0"


def test_stats_accumulate_monotonically():
    world = CommWorld(2)
    group = Group((1, 2), root=2)

    def program(comm):
        yield from comm.reduce_sum_to_root(group, [1.0])

    world.run(program, executor="sim")
    first = world.stats_snapshot()
    world.run(program, executor="sim")
    second = world.stats_snapshot()
    assert second.total_scalars() == 2 * first.total_scalars()
    assert second.levels == tuple(2 * v for v in first.levels)


# ---------------------------------------------------------------------------
# executor equivalence
# ---------------------------------------------------------------------------


def _pipeline_program(group):
    def program(comm):
        rng = np.random.default_rng(1000 + comm.rank)
        local = rng.normal(size=5)
        if comm.rank > 1:
            yield from comm.send(comm.rank - 1, local * 0.5)
        if comm.rank < comm.p:
            local = local + (yield from comm.recv(comm.rank + 1))
        out = yield from comm.reduce_sum_to_root(group, local)
        return None if out is None else out.tobytes()
    return program


def test_executors_produce_bit_identical_results():
    group = Group((1, 2, 3, 4, 5), root=3)
    runs = {}
    for executor in ("sim", "threads"):
        world = CommWorld(5)
        runs[executor] = world.run(_pipeline_program(group), executor=executor)
    assert runs["sim"][3] == runs["threads"][3]
    assert runs["sim"] == runs["threads"]


def test_threaded_reduce_matches_simulator_stats():
    group = Group((1, 2, 3, 4, 5, 6, 7), root=4)
    totals = {}
    for executor in ("sim", "threads"):
        world = CommWorld(7)

        def program(comm):
            out = yield from comm.reduce_sum_to_root(group, [float(comm.rank) ** 2])
            return None if out is None else float(out[0])

        results = world.run(program, executor=executor)
        totals[executor] = results[4]
        assert world.stats_snapshot().total_msgs() == 6
    assert totals["sim"] == totals["threads"] == float(sum(r * r for r in range(1, 8)))


# one step of a random program: (kind, members drawn from 1..8, root pick);
# a ring whose members all receive first deadlocks, and so may a reduce whose
# last non-root member stays away (or it ends in MissingParticipant)
_STEPS = st.lists(st.tuples(
    st.sampled_from(["ring", "ring-recv-first", "pipeline", "reduce",
                     "reduce-one-absent"]),
    st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
    st.integers(0, 7)), min_size=1, max_size=4)


def _random_program(p, steps):
    plan = []
    for kind, members, pick in steps:
        members = sorted(m for m in members if m <= p)
        if members:
            plan.append((kind, members, Group(tuple(members),
                                              members[pick % len(members)])))

    def program(comm):
        acc = np.array([float(comm.rank), 1.0])
        for kind, members, group in plan:
            if comm.rank not in members:
                continue
            i, k = members.index(comm.rank), len(members)
            if kind == "ring" and k > 1:
                yield from comm.send(members[(i + 1) % k], acc)
                acc = 0.5 * acc + (yield from comm.recv(members[i - 1]))
            elif kind == "ring-recv-first" and k > 1:
                acc = 0.5 * acc + (yield from comm.recv(members[i - 1]))
                yield from comm.send(members[(i + 1) % k], acc)
            elif kind == "pipeline":
                if i + 1 < k:
                    acc = acc + (yield from comm.recv(members[i + 1]))
                if i > 0:
                    yield from comm.send(members[i - 1], 0.25 * acc)
            elif kind.startswith("reduce"):
                absent = max(m for m in members if m != group.root) \
                    if k > 1 and kind == "reduce-one-absent" else None
                if comm.rank != absent:
                    out = yield from comm.reduce_sum_to_root(group, acc)
                    acc = acc if out is None else out
        return acc.tobytes()
    return program


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 8), steps=_STEPS)
@example(p=5, steps=[("ring-recv-first", [2, 3, 4], 0)])
@example(p=8, steps=[("pipeline", [1, 2, 3, 4, 5, 6, 7, 8], 0),
                     ("reduce-one-absent", [1, 3, 5, 7, 8], 2)])
@example(p=6, steps=[("ring", [1, 6, 3], 0),
                     ("reduce-one-absent", [2, 4, 6], 1),
                     ("ring-recv-first", [6, 1], 0)])
def test_executors_agree_on_random_programs(p, steps):
    # rank programs block only on reads from FIFO channels, so results,
    # traffic and the final stall do not depend on the schedule
    outcomes = {}
    for executor in EXECUTORS:
        world = CommWorld(p)
        try:
            out = world.run(_random_program(p, steps), executor=executor)
        except (Deadlock, MissingParticipant) as exc:
            out = (type(exc), str(exc))
        outcomes[executor] = (out, world.stats_snapshot())
    assert outcomes["threads"] == outcomes["sim"]


def test_unknown_executor_rejected():
    from axisolver.errors import ConfigError

    with pytest.raises(ConfigError):
        CommWorld(1).run(lambda comm: None, executor="mpi")


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("p", [1, 4])
def test_dropped_plan_frees_its_world_without_the_collector(collector_off, p):
    from axisolver.dichotomy import Partition, build_plan, solve_many
    from axisolver.tridiag import TridiagonalMatrix

    n = 32
    A = TridiagonalMatrix(np.full(n, 4.0), np.ones(n - 1), np.ones(n - 1))
    plan = build_plan(A, Partition.balanced(n, p), CommWorld(p))
    solve_many(plan, np.ones((n, 2)), executor="sim")
    world = weakref.ref(plan.world)
    del plan
    assert world() is None


def test_dropped_preconditioner_frees_its_world_without_the_collector(
        collector_off, monkeypatch):
    from axisolver import sov
    from axisolver.elliptic import CoefficientFields, Grid2D, assemble

    worlds = []

    def recording_world(p):
        world = CommWorld(p)
        worlds.append(weakref.ref(world))
        return world

    monkeypatch.setattr(sov, "CommWorld", recording_world)
    grid = Grid2D(17, 16, 1.0, 1.0)
    op = assemble(grid, CoefficientFields.from_samplers(
        lambda r, z: 1.0 + 0.1 * r, lambda r, z: 0.5 + 0.0 * r, grid))
    pc = sov.SovPreconditioner.from_operator(op, ranks=4)
    pc.apply_inverse(np.ones(grid.unknown_shape))
    assert len(worlds) == 1 and worlds[0]() is not None
    del pc
    assert worlds[0]() is None
