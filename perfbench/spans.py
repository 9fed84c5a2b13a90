"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions each axisolver layer exposes, at the
binding the calling module looks up (``axisolver.sov.dct_forward`` is the
name the preconditioner calls, so that is the one replaced).  No file of the
program changes: the wrappers are installed for the traced repetitions only
and the original bindings are put back afterwards.

Every call of a wrapped function becomes a :class:`Span` that records its
parent.  Spans nest through a per-thread stack; a span opened on a rank
thread of :class:`axisolver.comm.CommWorld` (whose stack is empty) is
parented to the enclosing ``comm.run`` span.  A span's self time is its
duration minus its children's durations (:func:`self_times`).  Children
never overlap: spans on one thread nest, and the ``sim`` executor runs one
rank at a time.

Besides spans the tracer keeps work counts that only the call arguments or
results reveal (rows eliminated, PCG iterations, messages, plan bytes).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")


class Tracer:
    """Span list, per-thread span stacks and work counts of one traced pass."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.launch: Optional[int] = None    # the open comm.run span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.launch
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, parent, time.perf_counter()))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its children's durations."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class LayerTotals:
    """Per span name: call count, inclusive seconds and self seconds; plus
    the inclusive seconds of spans opened on rank threads."""

    calls: Counter
    incl: Dict[str, float]
    self_s: Dict[str, float]
    rank_side_s: float


def layer_totals(spans: Sequence[Span]) -> LayerTotals:
    calls: Counter = Counter()
    incl: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    rank_side = 0.0
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        self_s[s.name] += own
        if s.parent is not None and spans[s.parent].name == LAUNCH_SPAN:
            rank_side += s.end - s.start
    return LayerTotals(calls, incl, self_s, rank_side)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def array_bytes(obj) -> int:
    """Bytes of every numpy array reachable through dataclass fields and
    tuples of ``obj``, except a plan's ``matrix`` and ``world`` (computed
    from array sizes; views are counted at their own size)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)
                   if f.name not in ("matrix", "world"))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    return 0


def _count_rows(tracer, args, result):
    tracer.add("kernels.rows", int(np.size(result)))


def _count_pcg(tracer, args, result):
    report = result[1]
    tracer.add("iterative.iterations", report.iterations)
    tracer.add("iterative.binv", report.binv_applications)


def _count_plan(tracer, args, result):
    tracer.add("dichotomy.plan_bytes", array_bytes(result))


def _count_series(tracer, args, result):
    tracer.add("dichotomy.systems", len(args[0]))


def _count_one_system(tracer, args, result):
    tracer.add("dichotomy.systems", 1)


def _count_table(tracer, args, result):
    tracer.add("laguerre.table_entries", int(np.size(result)))


@dataclass(frozen=True)
class Target:
    """``owner`` is a module path, or ``module:Class`` for a method."""

    owner: str
    attr: str
    span: str
    count: Optional[Callable] = None


LAUNCH_SPAN = "comm.run"

TARGETS: Tuple[Target, ...] = (
    Target("axisolver.sov", "dct_forward", "fourier.dct"),
    Target("axisolver.sov", "dct_inverse", "fourier.dct"),
    Target("axisolver.sov", "multi_apply", "kernels.solve", _count_rows),
    Target("axisolver.sov", "multi_factor", "kernels.factor"),
    Target("axisolver.dichotomy", "thomas_apply", "kernels.solve", _count_rows),
    Target("axisolver.dichotomy", "thomas_factor", "kernels.factor"),
    Target("axisolver.elliptic:DiscreteOperator", "apply_spd", "elliptic.apply"),
    Target("axisolver.elliptic:DiscreteOperator", "checksum",
           "elliptic.checksum"),
    Target("axisolver.elliptic", "assemble", "elliptic.assemble"),
    Target("axisolver.acoustic", "assemble", "elliptic.assemble"),
    Target("axisolver.sov:SovPreconditioner", "__init__", "sov.build"),
    Target("axisolver.sov:SovPreconditioner", "apply_inverse", "sov.apply"),
    Target("axisolver.iterative", "pcg_solve", "iterative.pcg", _count_pcg),
    Target("axisolver.acoustic", "pcg_solve", "iterative.pcg", _count_pcg),
    Target("axisolver.comm:CommWorld", "run", LAUNCH_SPAN),
    Target("axisolver.dichotomy", "build_plan", "dichotomy.build", _count_plan),
    Target("axisolver.sov", "build_plan", "dichotomy.build", _count_plan),
    Target("axisolver.sov", "solve_series", "dichotomy.solve", _count_series),
    Target("axisolver.dichotomy", "solve_many", "dichotomy.solve",
           _count_one_system),
    Target("axisolver.dichotomy", "local_betas", "dichotomy.betas"),
    Target("axisolver.acoustic", "project_source", "laguerre.project"),
    Target("axisolver.laguerre", "laguerre_function_table", "laguerre.table",
           _count_table),
    Target("axisolver.acoustic", "laguerre_function_table", "laguerre.table",
           _count_table),
    Target("axisolver.acoustic", "harmonic_rhs", "acoustic.rhs"),
    Target("axisolver.acoustic:RunningSums", "absorb", "acoustic.absorb"),
    Target("axisolver.acoustic", "reconstruct", "acoustic.reconstruct"),
)


class MissingTarget(RuntimeError):
    """A wrapped public name no longer exists; the layer would read zero."""


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
        return getattr(obj, class_name) if class_name else obj
    except (ImportError, AttributeError) as exc:
        raise MissingTarget(f"cannot trace {owner}: {exc}") from None


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if target.count is not None:
            target.count(tracer, args, result)
        return result

    return traced


def _wrap_launch(tracer: Tracer, fn: Callable) -> Callable:
    """``CommWorld.run``: rank-thread spans hang below this one, and the
    world's own counters give the traffic the launch caused."""

    @functools.wraps(fn)
    def traced(world, *args, **kwargs):
        before = traffic(world)
        idx = tracer.open(LAUNCH_SPAN)
        tracer.launch = idx
        try:
            return fn(world, *args, **kwargs)
        finally:
            tracer.launch = None
            tracer.close(idx)
            for key, count in traffic(world).items():
                tracer.add(f"comm.{key}", count - before[key])

    return traced


_MISSING = object()


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` bindings; restore the originals after."""
    saved = [(owner, attr, vars(owner).get(attr, _MISSING))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


@contextmanager
def installed(tracer: Tracer, targets: Sequence[Target] = TARGETS):
    """Wrap every target for the duration of the block.

    Raises :class:`MissingTarget` before patching anything when a target
    name no longer exists, so a refactor cannot silently zero a layer.
    """
    replacements = []
    for target in targets:
        owner = _resolve(target.owner)
        fn = getattr(owner, target.attr, None)
        if not callable(fn):
            raise MissingTarget(
                f"cannot trace {target.owner}.{target.attr}: no such function")
        wrapper = (_wrap_launch(tracer, fn) if target.span == LAUNCH_SPAN
                   else _wrap(tracer, target, fn))
        replacements.append((owner, target.attr, wrapper))
    with patched(replacements):
        yield tracer


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Metric name -> (value, unit) over everything ``tracer`` recorded.

    ``*_self_s`` and ``self_s`` are self times; the other ``*_s`` figures
    are inclusive span times.  ``comm.overhead_s`` is the launch time minus
    the spans on the rank threads.
    """
    t = layer_totals(tracer.spans)
    c = tracer.counts

    def ms_per(total_s, n):
        return 1000.0 * total_s / n if n else 0.0

    return {
        "fourier.transforms": (t.calls["fourier.dct"], "count"),
        "fourier.self_s": (t.self_s["fourier.dct"], "s"),
        "fourier.ms_per_call": (ms_per(t.incl["fourier.dct"],
                                       t.calls["fourier.dct"]), "ms"),
        "kernels.rows": (c["kernels.rows"], "count"),
        "kernels.self_s": (t.self_s["kernels.solve"]
                           + t.self_s["kernels.factor"], "s"),
        "kernels.factor_s": (t.incl["kernels.factor"], "s"),
        "elliptic.applies": (t.calls["elliptic.apply"], "count"),
        "elliptic.apply_self_s": (t.self_s["elliptic.apply"], "s"),
        "elliptic.assemble_s": (t.incl["elliptic.assemble"], "s"),
        "elliptic.checksum_s": (t.incl["elliptic.checksum"], "s"),
        "sov.applies": (t.calls["sov.apply"], "count"),
        "sov.apply_self_s": (t.self_s["sov.apply"], "s"),
        "sov.build_s": (t.incl["sov.build"], "s"),
        "iterative.iterations": (c["iterative.iterations"], "count"),
        "iterative.binv": (c["iterative.binv"], "count"),
        "iterative.self_s": (t.self_s["iterative.pcg"], "s"),
        "iterative.ms_per_iter": (ms_per(t.incl["iterative.pcg"],
                                         c["iterative.iterations"]), "ms"),
        "comm.launches": (t.calls[LAUNCH_SPAN], "count"),
        "comm.msgs": (c["comm.msgs"], "count"),
        "comm.scalars": (c["comm.scalars"], "count"),
        "comm.reduces": (c["comm.reduces"], "count"),
        "comm.run_s": (t.incl[LAUNCH_SPAN], "s"),
        "comm.overhead_s": (t.self_s[LAUNCH_SPAN], "s"),
        "dichotomy.plans": (t.calls["dichotomy.build"], "count"),
        "dichotomy.plan_mb": (c["dichotomy.plan_bytes"] / 1e6, "MB"),
        "dichotomy.build_s": (t.incl["dichotomy.build"], "s"),
        "dichotomy.systems": (c["dichotomy.systems"], "count"),
        "dichotomy.rank_compute_s": (t.rank_side_s, "s"),
        "laguerre.project_s": (t.incl["laguerre.project"], "s"),
        "laguerre.table_entries": (c["laguerre.table_entries"], "count"),
        "laguerre.table_s": (t.incl["laguerre.table"], "s"),
        "acoustic.harmonics": (t.calls["acoustic.rhs"], "count"),
        "acoustic.rhs_s": (t.incl["acoustic.rhs"], "s"),
        "acoustic.absorb_s": (t.incl["acoustic.absorb"], "s"),
        "acoustic.reconstruct_s": (t.incl["acoustic.reconstruct"], "s"),
    }


# ---------------------------------------------------------------------------
# communication counters without tracing
# ---------------------------------------------------------------------------


def traffic(world) -> Dict[str, int]:
    """Messages, scalars and reduce calls ``world`` has counted so far."""
    stats = world.stats_snapshot()
    return {"msgs": stats.total_msgs(), "scalars": stats.total_scalars(),
            "reduces": sum(stats.reduces)}


class WorldRegistry:
    """Every :class:`CommWorld` built while :meth:`tracking` is active, held
    weakly, so the untraced run can read message counts without wrapping
    anything on the message path."""

    def __init__(self):
        self._worlds = weakref.WeakSet()

    @contextmanager
    def tracking(self):
        cls = _resolve("axisolver.comm:CommWorld")
        init = cls.__init__

        @functools.wraps(init)
        def register(world, *args, **kwargs):
            init(world, *args, **kwargs)
            self._worlds.add(world)

        with patched([(cls, "__init__", register)]):
            yield self

    def totals(self) -> Dict[str, int]:
        totals = Counter()
        for world in list(self._worlds):
            totals.update(traffic(world))
        return {f"comm_{key}": totals[key]
                for key in ("msgs", "scalars", "reduces")}
