"""The messages a solve really sent, recorded for tests of its traffic.

    sent = record_sends(monkeypatch)
    solve_many(plan, F)          # sent now holds one (rank, dest, size)
                                 # per message, in the order they were sent

Record under the ``sim`` executor only: its order is deterministic, and it
starts no thread however many ranks the world has.
"""

from axisolver import comm as comm_module
from axisolver.comm import CommWorld


def record_sends(monkeypatch):
    """Patch :meth:`CommWorld.run` so that each rank program runs inside a
    generator that forwards every request unchanged and appends
    ``(rank, dest, size)`` for each message the rank sends; returns the
    list it appends to."""
    return _record(monkeypatch, lambda rank, dest, payload:
                   (rank, dest, payload.size))


def record_payloads(monkeypatch):
    """As :func:`record_sends`, appending ``(rank, dest, payload bytes)``."""
    return _record(monkeypatch, lambda rank, dest, payload:
                   (rank, dest, payload.tobytes()))


def _record(monkeypatch, entry):
    sent = []
    real_run = CommWorld.run

    def run(self, program, executor="sim"):
        def recorded(comm):
            gen = program(comm)
            value = None
            while True:
                try:
                    request = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                if request[0] is comm_module._SEND:
                    sent.append(entry(comm.rank, request[1], request[2]))
                value = yield request

        return real_run(self, recorded, executor)

    monkeypatch.setattr(CommWorld, "run", run)
    return sent


def per_rank(sent, p):
    """(messages, scalars) sent by each rank 1..p, as two lists."""
    msgs, scalars = [0] * p, [0] * p
    for rank, _, size in sent:
        msgs[rank - 1] += 1
        scalars[rank - 1] += size
    return msgs, scalars


def split_levels(sent, p, size):
    """Splitting level of every rank 1..p, read from the corrections in
    ``sent``: the messages of ``size`` scalars, which only a middle sends.

    A middle corrects its neighbours only after the corrections of the
    middle above it have reached its reduce groups, so in send order the
    first middle inside an interval is the one that splits it.  Walking the
    middles in that order halves [1, p] down to each rank: a middle's level
    is the number of intervals down to its own split, and a rank that sends
    no correction is a singleton one level below its last split.  (When p
    is a power of two the plan clamps one singleton into the last level;
    this reads it one level deeper.)
    """
    middles = list(dict.fromkeys(rank for rank, _, n in sent if n == size))
    levels = {}
    for rank in range(1, p + 1):
        lo, hi, level = 1, p, 1
        for mid in middles:
            if mid == rank:
                break
            if lo <= mid <= hi:
                lo, hi = (lo, mid - 1) if rank < mid else (mid + 1, hi)
                level += 1
        levels[rank] = level
    return levels
