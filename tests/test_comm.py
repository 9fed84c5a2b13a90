"""Tests for axisolver.comm: channels, reduces, executors, statistics."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisolver.comm import CommStats, CommWorld, Group, reduce_schedule, stats_snapshot
from axisolver.errors import (
    Deadlock,
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
    assert stats_snapshot(world).total_msgs() == 0


def test_p256_deadlock_is_reported_at_once():
    # every rank waits on its right neighbour: the simulator sees that no
    # rank can run without waiting for a timeout, and starts no thread
    world = CommWorld(256)
    threads_before = threading.active_count()

    def program(comm):
        assert threading.active_count() == threads_before
        yield from comm.recv(comm.rank % comm.p + 1)

    started = time.perf_counter()
    with pytest.raises(Deadlock) as exc:
        world.run(program, executor="sim")
    assert time.perf_counter() - started < CommWorld.RECV_TIMEOUT / 100
    assert sorted(exc.value.blocked) == list(range(1, 257))
    assert exc.value.blocked[256] == "recv from 1"


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
    assert stats_snapshot(world).levels == (0, 0, 0)


def test_reduce_group_of_seven_value_and_levels():
    world = CommWorld(7)
    group = Group(tuple(range(1, 8)), root=1)

    def program(comm):
        out = yield from comm.reduce_sum_to_root(group, [float(comm.rank)])
        return None if out is None else float(out[0])

    results = world.run(program, executor="sim")
    assert results[1] == 28.0
    stats = stats_snapshot(world)
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
    stats = stats_snapshot(CommWorld(5))
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
    stats = stats_snapshot(world)
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
    stats_snapshot(world).write_csv(path)
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
    first = stats_snapshot(world)
    world.run(program, executor="sim")
    second = stats_snapshot(world)
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
        assert stats_snapshot(world).total_msgs() == 6
    assert totals["sim"] == totals["threads"] == float(sum(r * r for r in range(1, 8)))


def test_unknown_executor_rejected():
    from axisolver.errors import ConfigError

    with pytest.raises(ConfigError):
        CommWorld(1).run(lambda comm: None, executor="mpi")
