"""Message-passing layer the distributed tridiagonal solver is written against.

User code is SPMD: a per-rank *generator* ``program(comm)``, where ``comm``
carries ``rank``/``p`` and the operations ``send``, ``recv`` and
``reduce_sum_to_root``.  Each operation is itself a generator that yields
communication requests, so a rank program runs it with ``yield from`` and
gets its result back the same way::

    def program(comm):
        if comm.rank == 1:
            yield from comm.send(2, [1.0, 2.0])
        elif comm.rank == 2:
            return (yield from comm.recv(1))

    CommWorld(2).run(program)   # {1: None, 2: array([1., 2.])}

The generator's return value is the rank's result.  One driver serves the
requests (generators used as coroutines, PEP 342), on 1 worker under
``"sim"`` and on min(p, cores) under ``"threads"``; the calling thread is
worker 0, so ``"sim"`` starts no thread.  Each worker owns a contiguous block
of ranks.  It resumes one of them until that rank waits on an empty channel
or finishes, then passes on to its next runnable rank in round-robin order,
which makes the ``"sim"`` order reproducible.  When no rank anywhere can run
and not every rank finished, the run fails at once, without a timeout, with
:class:`Deadlock` (or :class:`MissingParticipant` when a rank waits in a
reduce that a finished rank never joined).

Rank programs block only on reads from FIFO (source, destination) channels,
so their results, their traffic and the state they stall in do not depend on
the schedule (Kahn, IFIP 1974): both executors give bit-identical results
and the same stall error, and the summation tree of every reduce is a pure
function of the member ranks.  When a rank raises, the driver stops, closes
every rank's generator and re-raises that first failure.

Reduction-tree shape (recursive halving on the rank-sorted member list):
with the root in first position the tail half sends onto the head half each
round; with the root anywhere else it is rotated to the last position and the
head half sends onto the tail half.  Either way a group of g members takes
ceil(log2(g)) rounds and exactly g-1 pairwise additions per element, and the
per-element accumulation order is fixed.
"""

from __future__ import annotations

import bisect
import inspect
import os
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    Deadlock,
    DimensionMismatch,
    IndexOutOfRange,
    MismatchedLength,
    MissingParticipant,
    WorkerStartFailure,
    as_integer,
)

# request kinds a rank generator yields: (_SEND, to, payload) and
# (_RECV, src, reduce members or None); a recv is resumed with the payload
_SEND = "send"
_RECV = "recv"


def reduce_schedule(members: Sequence[int], root: int) -> List[List[Tuple[int, int]]]:
    """Fixed binary-tree reduce schedule: a list of rounds of (src, dst) pairs.

    Determined solely by the member ranks, so every executor (and every rank)
    derives the identical tree.  len(result) == ceil(log2(len(members))) and
    the total number of pairs is len(members) - 1.
    """
    order = sorted(members)
    rounds: List[List[Tuple[int, int]]] = []
    if root == order[0]:
        # receivers keep the head of the list, senders are the tail half
        while len(order) > 1:
            k = len(order)
            keep = (k + 1) // 2
            rounds.append([(order[keep + i], order[i]) for i in range(k - keep)])
            order = order[:keep]
    else:
        # root parked at the end; head half sends onto the tail half
        order.remove(root)
        order.append(root)
        while len(order) > 1:
            k = len(order)
            nsend = k // 2
            rounds.append([(order[i], order[nsend + i]) for i in range(nsend)])
            order = order[nsend:]
    return rounds


@dataclass(frozen=True)
class Group:
    """An ordered set of ranks with a designated root for collectives.

    The reduce tree is derived once, at construction: build a group once and
    reuse it for every reduce over the same members.
    """

    members: Tuple[int, ...]
    root: int
    depth: int = field(init=False, repr=False, compare=False)
    # rank -> (sources it adds in tree order, destination or None at the root)
    _steps: Dict[int, Tuple[Tuple[int, ...], Optional[int]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(sorted(self.members))
        if not members:
            raise IndexOutOfRange("group must have at least one member")
        if len(set(members)) != len(members):
            raise IndexOutOfRange(f"duplicate ranks in group {members}")
        if self.root not in members:
            raise IndexOutOfRange(f"root {self.root} not in group {members}")
        rounds = reduce_schedule(members, self.root)
        sources: Dict[int, List[int]] = {m: [] for m in members}
        dest: Dict[int, Optional[int]] = dict.fromkeys(members)
        for level in rounds:
            for src, dst in level:
                sources[dst].append(src)
                dest[src] = dst
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "depth", len(rounds))
        object.__setattr__(self, "_steps", {
            m: (tuple(sources[m]), dest[m]) for m in members})


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass
class _RankCounters:
    msgs_sent: int = 0
    scalars_sent: int = 0
    reduces: int = 0
    levels: int = 0


@dataclass(frozen=True)
class CommStats:
    """Point-in-time snapshot of per-rank communication counters."""

    p: int
    msgs_sent: Tuple[int, ...]
    scalars_sent: Tuple[int, ...]
    reduces: Tuple[int, ...]
    levels: Tuple[int, ...]

    def rank_row(self, rank: int) -> Tuple[int, int, int, int]:
        i = rank - 1
        return (self.msgs_sent[i], self.scalars_sent[i], self.reduces[i], self.levels[i])

    def total_msgs(self) -> int:
        return sum(self.msgs_sent)

    def total_scalars(self) -> int:
        return sum(self.scalars_sent)

    def to_csv_text(self) -> str:
        lines = ["rank,msgs_sent,scalars_sent,reduces,levels"]
        for r in range(1, self.p + 1):
            lines.append(f"{r},{','.join(str(v) for v in self.rank_row(r))}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())


# ---------------------------------------------------------------------------
# per-rank communication handle
# ---------------------------------------------------------------------------


class Comm:
    """One rank's view of the world.  Every operation is a generator that
    yields the rank's requests to the executor; use it with ``yield from``.

    It holds its own counters and the world's statistics lock, not the
    world, so a dropped world is freed by reference counting."""

    def __init__(self, p: int, rank: int, counters: _RankCounters,
                 stats_lock):
        self.rank = rank
        self.p = p
        self._counters = counters
        self._stats_lock = stats_lock

    def _account_send(self, nscalars: int) -> None:
        with self._stats_lock:
            self._counters.msgs_sent += 1
            self._counters.scalars_sent += nscalars

    def _check_peer(self, other: int) -> None:
        if not (1 <= other <= self.p):
            raise IndexOutOfRange(f"rank {other} outside 1..{self.p}")
        if other == self.rank:
            raise IndexOutOfRange(f"rank {self.rank} cannot message itself")

    def send(self, to: int, payload):
        """Queue a float64 payload on the FIFO channel (self.rank -> to)."""
        self._check_peer(to)
        arr = np.array(payload, dtype=np.float64, copy=True, ndmin=1)
        if arr.ndim != 1:
            raise DimensionMismatch("payload must be scalar or 1-D")
        self._account_send(arr.size)
        yield _SEND, to, arr

    def recv(self, src: int):
        """Pop the next payload sent by ``src`` to this rank, waiting for it."""
        self._check_peer(src)
        return (yield _RECV, src, None)

    def reduce_sum_to_root(self, group: Group, contribution):
        """Elementwise sum over the group, delivered at the root only.

        Every member must call with a contribution of the same length.  The
        additions happen in the fixed tree order of ``reduce_schedule``; the
        root gets the sum, everyone else gets None.
        """
        members = group.members
        if self.rank not in members:
            raise MissingParticipant(
                f"rank {self.rank} called a reduce over {members} it is not part of")
        acc = np.array(contribution, dtype=np.float64, copy=True, ndmin=1)
        sources, dst = group._steps[self.rank]
        with self._stats_lock:
            self._counters.reduces += 1
            self._counters.levels += group.depth
        for src in sources:
            incoming = yield _RECV, src, members
            if incoming.size != acc.size:
                raise MismatchedLength(
                    f"reduce over {members}: rank {self.rank} holds "
                    f"{acc.size} scalars, rank {src} sent {incoming.size}")
            acc = acc + incoming
        if dst is None:
            return acc  # only the root reaches this point
        self._account_send(acc.size)
        yield _SEND, dst, acc
        return None


def _stall_error(waiting, results) -> Exception:
    """The error for "no rank runnable, not every rank finished":
    ``waiting`` maps each blocked rank to its (src, reduce members), and
    ``results`` holds the ranks that finished."""
    blocked = {}
    for r, (src, members) in sorted(waiting.items()):
        blocked[r] = f"{'recv' if members is None else 'reduce'} from {src}"
        if members is not None:
            gone = [m for m in members if m in results]
            if gone:
                return MissingParticipant(
                    f"rank {r} waits in a reduce over {members} but rank(s) "
                    f"{gone} already finished without joining it")
    return Deadlock(blocked)


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------


EXECUTORS = ("sim", "threads")


def check_executor(executor: str) -> None:
    """ConfigError unless ``executor`` names one of :data:`EXECUTORS`."""
    if executor not in EXECUTORS:
        raise ConfigError(f"unknown executor {executor!r}; use one of {EXECUTORS}")


class CommWorld:
    """A set of ranks 1..p, their statistics, and the program launcher."""

    def __init__(self, p: int):
        p = as_integer(p, IndexOutOfRange, "the rank count p")
        if p < 1:
            raise IndexOutOfRange(f"need p >= 1 ranks, got {p}")
        self.p = p
        self._stats_lock = threading.Lock()
        self._counters = {r: _RankCounters() for r in range(1, p + 1)}
        self._comms = tuple(Comm(p, r, self._counters[r], self._stats_lock)
                            for r in range(1, p + 1))

    # accounting -------------------------------------------------------------
    def stats_snapshot(self) -> CommStats:
        with self._stats_lock:
            ranks = range(1, self.p + 1)
            return CommStats(
                p=self.p,
                msgs_sent=tuple(self._counters[r].msgs_sent for r in ranks),
                scalars_sent=tuple(self._counters[r].scalars_sent for r in ranks),
                reduces=tuple(self._counters[r].reduces for r in ranks),
                levels=tuple(self._counters[r].levels for r in ranks),
            )

    # launching ---------------------------------------------------------------
    def run(self, program: Callable, executor: str = "sim") -> Dict[int, object]:
        """Run the generator ``program(comm)`` once per rank; returns
        {rank: return value}.

        ``executor="sim"`` drives every rank in the calling thread on a fixed
        schedule; ``executor="threads"`` spreads them over min(p, cores)
        workers so their numeric work can overlap.
        """
        check_executor(executor)
        gens = []
        try:
            for comm in self._comms:
                gen = program(comm)
                if not inspect.isgenerator(gen):
                    raise TypeError(
                        f"program(comm) returned {type(gen).__name__}, not a "
                        f"generator; write the rank program with 'yield from "
                        f"comm.send(...)' / 'comm.recv(...)' / "
                        f"'comm.reduce_sum_to_root(...)'")
                gens.append(gen)
            workers = 1 if executor == "sim" else min(self.p, os.cpu_count() or 1)
            return self._run(gens, workers)
        finally:
            for gen in gens:
                gen.close()

    def _run(self, gens, workers: int) -> Dict[int, object]:
        """Drive the generators on ``workers`` threads, worker 0 being the
        caller's; the bookkeeping lock is released while a rank runs."""
        p = self.p
        lock = threading.Lock()
        wake = threading.Condition(lock) if workers > 1 else None
        channels: Dict[Tuple[int, int], deque] = defaultdict(deque)
        waiting: Dict[int, Tuple[int, object]] = {}   # rank -> (src, members)
        inbox: List[object] = [None] * (p + 1)         # value to resume with
        # worker w owns ranks w*p//workers + 1 .. (w+1)*p//workers, so rank r
        # belongs to worker (r*workers - 1)//p
        runnable = [list(range(w * p // workers + 1,
                               (w + 1) * p // workers + 1))
                    for w in range(workers)]           # per worker, sorted
        results: Dict[int, object] = {}
        failure: List[BaseException] = []

        def drive(w):
            mine = runnable[w]
            r = 0
            lock.acquire()
            try:
                while not failure:
                    if not mine:
                        if not any(runnable):  # no rank anywhere can run
                            return
                        wake.wait()
                        continue
                    # round-robin: the first runnable rank after r
                    i = bisect.bisect_right(mine, r)
                    r = mine[i] if i < len(mine) else mine[0]
                    gen, value = gens[r - 1], inbox[r]
                    inbox[r] = None
                    try:
                        while True:
                            lock.release()
                            try:
                                kind, peer, data = gen.send(value)
                            finally:
                                lock.acquire()
                            if failure:
                                return
                            if kind is _SEND:
                                value = None
                                blocked_on = waiting.get(peer)
                                if blocked_on is not None and blocked_on[0] == r:
                                    # the peer waits on this channel, which is empty
                                    del waiting[peer]
                                    inbox[peer] = data
                                    owner = (peer * workers - 1) // p
                                    bisect.insort(runnable[owner], peer)
                                    if owner != w:
                                        wake.notify_all()
                                else:
                                    channels[r, peer].append(data)
                            else:
                                ch = channels[peer, r]
                                if ch:
                                    value = ch.popleft()
                                else:
                                    waiting[r] = (peer, data)
                                    break
                    except StopIteration as stop:
                        results[r] = stop.value
                    mine.remove(r)
            except BaseException as exc:  # keep the first rank failure
                failure.append(exc)
            finally:
                if wake:  # a worker that stops wakes the others to look
                    wake.notify_all()
                lock.release()

        threads = []
        try:
            for w in range(1, workers):
                t = threading.Thread(target=drive, args=(w,), daemon=True)
                t.start()
                threads.append(t)
        except BaseException as exc:  # a worker that could not start
            error = exc              # an interrupt stays what it is
            if isinstance(exc, Exception):
                error = WorkerStartFailure(
                    f"worker thread {len(threads) + 1} could not start: {exc}")
                error.__cause__ = exc
            with lock:
                failure.append(error)
                wake.notify_all()
        else:
            drive(0)
        for t in threads:
            t.join()
        if failure:
            raise failure[0]
        if waiting:
            raise _stall_error(waiting, results)
        return results
