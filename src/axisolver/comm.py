"""Message-passing layer the distributed tridiagonal solver is written against.

User code is SPMD: a per-rank function ``program(comm)`` where ``comm`` carries
``rank``/``p`` and the operations ``send``, ``recv`` and
``reduce_sum_to_root``.  Two interchangeable executors run such programs:

* ``"sim"``    - deterministic single-process scheduler.  OS threads host the
  rank functions but a turn token keeps exactly one runnable at a time and
  hands control round-robin whenever the running rank blocks, so execution
  order is reproducible and unmatched receives are detected as hard deadlock
  errors.
* ``"threads"`` - one free-running worker thread per rank with blocking
  channels; used to measure actual parallel speedup.

Numerical results are bit-identical across executors because the summation
tree of every reduce is a pure function of the member ranks, and channels are
FIFO per (source, destination) pair.

Reduction-tree shape (recursive halving on the rank-sorted member list):
with the root in first position the tail half sends onto the head half each
round; with the root anywhere else it is rotated to the last position and the
head half sends onto the tail half.  Either way a group of g members takes
ceil(log2(g)) rounds and exactly g-1 pairwise additions per element, and the
per-element accumulation order is fixed.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    Deadlock,
    DimensionMismatch,
    IndexOutOfRange,
    MismatchedLength,
    MissingParticipant,
)


class _Abort(Exception):
    """Internal signal used to unwind rank threads after a fatal event."""


@dataclass(frozen=True)
class Group:
    """An ordered set of ranks with a designated root for collectives."""

    members: Tuple[int, ...]
    root: int

    def __post_init__(self):
        members = tuple(sorted(self.members))
        if not members:
            raise IndexOutOfRange("group must have at least one member")
        if len(set(members)) != len(members):
            raise IndexOutOfRange(f"duplicate ranks in group {members}")
        if self.root not in members:
            raise IndexOutOfRange(f"root {self.root} not in group {members}")
        object.__setattr__(self, "members", members)


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
# executor state
# ---------------------------------------------------------------------------


class _SimState:
    """Turn-token scheduler: one runnable rank at a time, round-robin yields.

    One lock guards all state; each rank sleeps on its own condition, so a
    hand-over wakes only the rank whose turn it is.
    """

    def __init__(self, p: int):
        self.p = p
        self.lock = threading.Lock()
        self.turns = {r: threading.Condition(self.lock) for r in range(1, p + 1)}
        self.state = {r: "ready" for r in range(1, p + 1)}
        self.reason: Dict[int, tuple] = {}
        self.channels: Dict[Tuple[int, int], deque] = {}
        self.current = 1
        self.abort_exc: Optional[BaseException] = None

    def channel(self, src: int, dst: int) -> deque:
        key = (src, dst)
        ch = self.channels.get(key)
        if ch is None:
            ch = self.channels[key] = deque()
        return ch

    def _runnable(self, r: int) -> bool:
        st = self.state[r]
        if st == "ready":
            return True
        if st == "blocked":
            _, src, _ = self.reason[r]
            return bool(self.channels.get((src, r)))
        return False

    def hand_over(self) -> None:
        """Wake the rank whose turn it is, or every rank after a fatal event.
        The lock must be held."""
        if self.abort_exc is not None:
            for turn in self.turns.values():
                turn.notify()
        elif self.current:
            self.turns[self.current].notify()

    def wait_turn(self, rank: int) -> None:
        """Sleep until it is ``rank``'s turn or the run aborts (lock held)."""
        while self.current != rank and self.abort_exc is None:
            self.turns[rank].wait()

    def pick_next(self, after: int) -> None:
        # the lock must be held
        for step in range(1, self.p + 1):
            r = (after - 1 + step) % self.p + 1
            if self._runnable(r):
                self.state[r] = "ready"
                self.reason.pop(r, None)
                self.current = r
                return
        self.current = 0
        if self.abort_exc is not None or all(s == "done" for s in self.state.values()):
            return
        blocked = {}
        missing = None
        for r, st in self.state.items():
            if st != "blocked":
                continue
            kind, src, members = self.reason[r]
            blocked[r] = f"{kind} from {src}"
            if kind == "reduce" and members is not None:
                finished = [m for m in members if self.state.get(m) == "done"]
                if finished:
                    missing = MissingParticipant(
                        f"rank {r} waits in a reduce over {members} but rank(s) "
                        f"{finished} already finished without joining it")
        self.abort_exc = missing if missing is not None else Deadlock(blocked)


class _ThreadState:
    """Free-running channels guarded by one condition variable."""

    RECV_TIMEOUT = 120.0

    def __init__(self, p: int):
        self.p = p
        self.cond = threading.Condition()
        self.channels: Dict[Tuple[int, int], deque] = {}
        self.abort_exc: Optional[BaseException] = None

    def channel(self, src: int, dst: int) -> deque:
        key = (src, dst)
        ch = self.channels.get(key)
        if ch is None:
            ch = self.channels[key] = deque()
        return ch


# ---------------------------------------------------------------------------
# per-rank communication handles
# ---------------------------------------------------------------------------


class _BaseComm:
    def __init__(self, world: "CommWorld", rank: int):
        self.world = world
        self.rank = rank
        self.p = world.p

    # executor-specific primitives -----------------------------------------
    def _send_impl(self, to: int, payload: np.ndarray) -> None:
        raise NotImplementedError

    def _recv_impl(self, src: int, reduce_members) -> np.ndarray:
        raise NotImplementedError

    # public API -------------------------------------------------------------
    def _check_peer(self, other: int) -> None:
        if not (1 <= other <= self.p):
            raise IndexOutOfRange(f"rank {other} outside 1..{self.p}")
        if other == self.rank:
            raise IndexOutOfRange(f"rank {self.rank} cannot message itself")

    def send(self, to: int, payload) -> None:
        """Queue a float64 payload on the FIFO channel (self.rank -> to)."""
        self._check_peer(to)
        arr = np.array(payload, dtype=np.float64, copy=True, ndmin=1)
        if arr.ndim != 1:
            raise DimensionMismatch("payload must be scalar or 1-D")
        self.world._account_send(self.rank, arr.size)
        self._send_impl(to, arr)

    def recv(self, src: int) -> np.ndarray:
        """Pop the next payload sent by ``src`` to this rank, blocking."""
        self._check_peer(src)
        return self._recv_impl(src, None)

    def reduce_sum_to_root(self, group: Group, contribution) -> Optional[np.ndarray]:
        """Elementwise sum over the group, delivered at the root only.

        Every member must call with a contribution of the same length.  The
        additions happen in the fixed tree order of ``reduce_schedule``; the
        root gets the sum, everyone else gets None.
        """
        members, root = group.members, group.root
        if self.rank not in members:
            raise MissingParticipant(
                f"rank {self.rank} called a reduce over {members} it is not part of")
        acc = np.array(contribution, dtype=np.float64, copy=True, ndmin=1)
        rounds = reduce_schedule(members, root)
        self.world._account_reduce(self.rank, len(rounds))
        if len(members) == 1:
            return acc
        for level in rounds:
            for src, dst in level:
                if src == self.rank:
                    self.world._account_send(self.rank, acc.size)
                    self._send_impl(dst, acc)
                    return None
                if dst == self.rank:
                    incoming = self._recv_impl(src, members)
                    if incoming.size != acc.size:
                        raise MismatchedLength(
                            f"reduce over {members}: rank {self.rank} holds "
                            f"{acc.size} scalars, rank {src} sent {incoming.size}")
                    acc = acc + incoming
        return acc  # only the root reaches this point


class _SimComm(_BaseComm):
    def __init__(self, world, rank, sim: _SimState):
        super().__init__(world, rank)
        self._sim = sim

    def _send_impl(self, to, payload):
        sim = self._sim
        with sim.lock:
            if sim.abort_exc is not None:
                raise _Abort()
            sim.channel(self.rank, to).append(payload)

    def _recv_impl(self, src, reduce_members):
        sim = self._sim
        with sim.lock:
            ch = sim.channel(src, self.rank)
            if not ch:
                kind = "reduce" if reduce_members is not None else "recv"
                sim.state[self.rank] = "blocked"
                sim.reason[self.rank] = (kind, src, reduce_members)
                sim.pick_next(self.rank)
                sim.hand_over()
                sim.wait_turn(self.rank)
                if sim.abort_exc is not None:
                    raise _Abort()
            return ch.popleft()


class _ThreadComm(_BaseComm):
    def __init__(self, world, rank, ts: _ThreadState):
        super().__init__(world, rank)
        self._ts = ts

    def _send_impl(self, to, payload):
        ts = self._ts
        with ts.cond:
            if ts.abort_exc is not None:
                raise _Abort()
            ts.channel(self.rank, to).append(payload)
            ts.cond.notify_all()

    def _recv_impl(self, src, reduce_members):
        ts = self._ts
        with ts.cond:
            ch = ts.channel(src, self.rank)
            while not ch:
                if ts.abort_exc is not None:
                    raise _Abort()
                if not ts.cond.wait(timeout=ts.RECV_TIMEOUT):
                    exc = Deadlock({self.rank: f"recv from {src} timed out"})
                    ts.abort_exc = exc
                    ts.cond.notify_all()
                    raise _Abort()
            return ch.popleft()


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------


class CommWorld:
    """A set of ranks 1..p, their statistics, and the program launcher."""

    def __init__(self, p: int):
        if p < 1:
            raise IndexOutOfRange(f"need p >= 1 ranks, got {p}")
        self.p = p
        self._stats_lock = threading.Lock()
        self._counters = {r: _RankCounters() for r in range(1, p + 1)}

    # accounting -------------------------------------------------------------
    def _account_send(self, src: int, nscalars: int) -> None:
        with self._stats_lock:
            c = self._counters[src]
            c.msgs_sent += 1
            c.scalars_sent += nscalars

    def _account_reduce(self, rank: int, nlevels: int) -> None:
        with self._stats_lock:
            c = self._counters[rank]
            c.reduces += 1
            c.levels += nlevels

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
        """Run ``program(comm)`` once per rank; returns {rank: return value}.

        ``executor="sim"`` is deterministic and detects deadlock;
        ``executor="threads"`` runs ranks concurrently.
        """
        if executor == "sim":
            state = _SimState(self.p)
            handles = {r: _SimComm(self, r, state) for r in range(1, self.p + 1)}
            return self._run_sim(program, state, handles)
        if executor == "threads":
            state = _ThreadState(self.p)
            handles = {r: _ThreadComm(self, r, state) for r in range(1, self.p + 1)}
            return self._run_threads(program, state, handles)
        raise ConfigError(f"unknown executor {executor!r}; use 'sim' or 'threads'")

    def _run_sim(self, program, sim: _SimState, handles) -> Dict[int, object]:
        results: Dict[int, object] = {}

        def worker(rank):
            with sim.lock:
                sim.wait_turn(rank)
                if sim.abort_exc is not None:
                    return
            try:
                out = program(handles[rank])
                failure = None
            except _Abort:
                return
            except BaseException as exc:  # deliver the first rank failure
                failure = exc
                out = None
            with sim.lock:
                if failure is not None and sim.abort_exc is None:
                    sim.abort_exc = failure
                else:
                    results[rank] = out
                sim.state[rank] = "done"
                sim.pick_next(rank)
                sim.hand_over()

        threads = [threading.Thread(target=worker, args=(r,), daemon=True)
                   for r in range(1, self.p + 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if sim.abort_exc is not None:
            raise sim.abort_exc
        return results

    def _run_threads(self, program, ts: _ThreadState, handles) -> Dict[int, object]:
        results: Dict[int, object] = {}
        res_lock = threading.Lock()

        def worker(rank):
            try:
                out = program(handles[rank])
            except _Abort:
                return
            except BaseException as exc:
                with ts.cond:
                    if ts.abort_exc is None:
                        ts.abort_exc = exc
                    ts.cond.notify_all()
                return
            with res_lock:
                results[rank] = out

        threads = [threading.Thread(target=worker, args=(r,), daemon=True)
                   for r in range(1, self.p + 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if ts.abort_exc is not None:
            raise ts.abort_exc
        return results


def stats_snapshot(world: CommWorld) -> CommStats:
    """Pure read of the world's communication counters."""
    return world.stats_snapshot()
