"""Benchmark of the axisolver solver stack.

    python3 perfbench/run.py --workload acoustic-fault --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process runs one workload as a closed loop with a
single client: an untimed warm-up repetition, then repetitions of "rebuild
the set-up, run the unit, check the outputs" back to back until
``--seconds`` are used up (at least three).  Every repetition is one
attempted operation; it fails when it raises or its check rejects an output.

``--trace 0`` prints the end-to-end metrics.  ``solve_s`` is best-of-k
taken step by step: the unit is timed at its natural step boundaries (each
harmonic, each PCG iteration; the tridiagonal solve is a single step), and
the best time of every step over the repetitions is summed.  ``setup_s`` is
the best time over every set-up build (a repetition rebuilds a short set-up
until it has spent ``SETUP_BUDGET_S`` on it, so short set-ups get many
samples).  Both are scaled by the host's speed during the run, measured by
a fixed reference kernel timed after every repetition (:func:`reference_s`),
and so read as seconds on a host whose reference pass takes
``REF_NOMINAL_S``; the unscaled times are printed too.  ``peak_rss_mb`` is
the process peak resident set.  The cyclic garbage collector is paused
inside the timed code, as ``timeit`` does.  NOTES.md gives the
measurements behind the choice of statistics.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the fastest traced one, plus the tracing overhead.

The work counters, host facts and a pure-Python host-speed probe are
printed before the result.  The last line of standard output is the result
as one JSON object.  NOTES.md explains the workloads and the metric choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# one BLAS thread and one CPU: the sim executor runs one rank at a time, and
# both sides of a comparison must run the same thread budget.  Pinned to one
# CPU, a rank hand-off is a same-CPU thread switch; left free, each hand-off
# wakes the other virtual CPU, whose latency depends on the load of the
# machine underneath (on a 2-vCPU virtual machine, elliptic-p4 took 1.5 s
# pinned against 4-6.5 s free in back-to-back runs)
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
SETUP_BUDGET_S = 0.25
PROBE_REPS = 5
# host-speed reference (NOTES.md explains it): timed REF_SAMPLES times after
# every untraced repetition; the reported times are scaled to a host on
# which its best time is REF_NOMINAL_S
REF_SAMPLES = 3
REF_NOMINAL_S = 0.018

# traced per-layer count -> untraced work counter it must equal, with the
# factor that converts the counter into the metric's unit
MATCHES = {
    "iterative.iterations": ("pcg_iterations", 1.0),
    "elliptic.applies": ("pcg_iterations", 1.0),
    "iterative.binv": ("binv", 1.0),
    "sov.applies": ("binv", 1.0),
    "acoustic.harmonics": ("harmonics", 1.0),
    "comm.msgs": ("comm_msgs", 1.0),
    "comm.scalars": ("comm_scalars", 1.0),
    "comm.reduces": ("comm_reduces", 1.0),
    "dichotomy.plan_mb": ("plan_bytes", 1e-6),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> int:
    """Restrict the process to its lowest allowed CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_facts(np, kernels, cpu) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "pinned_cpu": cpu,
            "have_numba": bool(kernels.HAVE_NUMBA)}


def python_loop() -> None:
    """A fixed pure-Python loop."""
    acc = 0
    for i in range(200_000):
        acc += i * i


def host_probe_s() -> float:
    """Best-of-``PROBE_REPS`` time of :func:`python_loop`: tells a slow host
    apart from slow code.  Run metadata, not a metric."""
    best = math.inf
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        python_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def reference_s() -> float:
    """Time of one pass of the host-speed reference: :func:`python_loop` and
    400 small (64 x 64) matrix products, which cost numpy call overhead more
    than arithmetic -- the two kinds of work the solver mixes.  It calls no
    axisolver code, so a change to the program cannot move it; its arrays
    are 32 KiB, so it never asks the allocator for fresh pages."""
    import numpy as np
    m = np.random.default_rng(0).standard_normal((64, 64))
    x = m
    t0 = time.perf_counter()
    python_loop()
    for _ in range(400):
        x = (m @ x) * 0.125    # keeps x of order one
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


class Tally:
    """Attempts, failures, timings and work counters of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.steps = []           # per repetition: step times of the unit
        self.counters = []
        self.reference_s = []     # host-speed reference timings
        self.layers = []          # (set-up + unit time, steps, layer metrics)

    def host_scale(self) -> float:
        """Factor that turns this run's times into times on the nominal
        host: ``REF_NOMINAL_S`` over the best reference time."""
        return REF_NOMINAL_S / min(self.reference_s, default=REF_NOMINAL_S)


def all_equal(what, values) -> bool:
    if all(v == values[0] for v in values):
        return True
    print(f"{what} differ between repetitions: {values}", file=sys.stderr)
    return False


def best_of_steps(step_lists) -> float:
    """Sum over the unit's steps of each step's best time."""
    return sum(min(times) for times in zip(*step_lists))


@contextmanager
def gc_paused():
    """Collect, then keep the cyclic collector out of the timed code."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def tracing(spans, tracer, name):
    """Trace the block as span ``name``, or run it plainly without tracer."""
    if tracer is None:
        yield
    else:
        with spans.installed(tracer), tracer.span(name):
            yield


def repetition(wl, registry, spans, tracer=None):
    """Set-up, unit and check once; returns (set-up times, step times,
    counters).  An untraced repetition rebuilds the set-up until
    ``SETUP_BUDGET_S`` is spent; a traced one builds it once, and traces it
    only when the unit does not rebuild it itself."""
    setup_tracer = None if wl.SETUP_IN_UNIT else tracer
    setup_times = []
    with gc_paused():
        while True:
            with tracing(spans, setup_tracer, "setup"):
                t0 = time.perf_counter()
                state = wl.setup()
                setup_times.append(time.perf_counter() - t0)
            if tracer or sum(setup_times) >= SETUP_BUDGET_S:
                break
            del state
        comm_before = registry.totals()
        marks = []
        with tracing(spans, tracer, "unit"):
            marks.append(time.perf_counter())
            out = wl.unit(state, lambda *_: marks.append(time.perf_counter()))
            marks.append(time.perf_counter())
        comm_after = registry.totals()
    wl.check(state, out)
    counters = wl.counters(state, out)
    counters.update({k: comm_after[k] - comm_before[k] for k in comm_after})
    counters["steps"] = len(marks) - 1
    return setup_times, [b - a for a, b in zip(marks, marks[1:])], counters


def attempt(tally, wl, registry, spans, tracer=None):
    tally.attempted += 1
    try:
        return repetition(wl, registry, spans, tracer)
    except spans.MissingTarget:
        raise
    except Exception:   # a failed operation is counted; the run goes on
        tally.failed += 1
        traceback.print_exc()
        return None


def measure(wl, registry, spans, seconds: float, traced: bool) -> Tally:
    tally = Tally()
    attempt(tally, wl, registry, spans)                       # warm-up
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        order = (False, True) if rounds % 2 else (True, False)
        for with_trace in (order if traced else (False,)):
            tracer = spans.Tracer() if with_trace else None
            result = attempt(tally, wl, registry, spans, tracer)
            if result is None:
                continue
            setup_times, steps, counters = result
            if with_trace:
                tally.layers.append((setup_times[0] + sum(steps), steps,
                                     spans.layer_metrics(tracer)))
            else:
                tally.setup_s.extend(setup_times)
                tally.steps.append(steps)
                tally.counters.append(counters)
                with gc_paused():
                    tally.reference_s.extend(
                        reference_s() for _ in range(REF_SAMPLES))
        elapsed = time.perf_counter() - start
        need = MIN_TRACED_PAIRS if traced else MIN_REPS
        if rounds >= need and elapsed * (rounds + 1) / rounds > seconds:
            return tally


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def end_to_end(tally) -> dict:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = tally.host_scale()
    return {
        "solve_s": {"value": best_of_steps(tally.steps) * scale, "unit": "s"},
        "setup_s": {"value": min(tally.setup_s, default=0.0) * scale,
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer(tally) -> tuple:
    """Metrics of the fastest traced repetition; False when counts differ
    between traced repetitions or from the untraced work counters."""
    if not tally.layers:
        return {}, False
    layers = min(tally.layers, key=lambda item: item[0])[2]
    ok = all_equal(
        "traced counts", [{k: v for k, (v, unit) in lay.items()
                           if unit == "count"} for _, _, lay in tally.layers])
    counters = tally.counters[0] if tally.counters else {}
    for name, (key, scale) in MATCHES.items():
        if key in counters and not math.isclose(
                layers[name][0], counters[key] * scale, rel_tol=1e-12):
            print(f"traced {name} = {layers[name][0]} but the untraced run "
                  f"counted {key} = {counters[key]}", file=sys.stderr)
            ok = False
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layers.items()}
    untraced = best_of_steps(tally.steps)
    traced_solve = best_of_steps([steps for _, steps, _ in tally.layers])
    metrics["trace.solve_s"] = {"value": traced_solve, "unit": "s"}
    metrics["trace.untraced_solve_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_solve / untraced - 1.0) if untraced else 0.0,
        "unit": "%"}
    return metrics, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "axisolver" / "__init__.py").is_file():
        print(f"no axisolver sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    cpu = pin_to_one_cpu()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy as np
    from axisolver import kernels
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        try:
            with spans.installed(spans.Tracer()):
                pass
        except spans.MissingTarget as exc:
            print(f"traced run impossible: {exc}", file=sys.stderr)
            return 3

    print("host " + json.dumps(host_facts(np, kernels, cpu)))
    print(f"host_probe_s {host_probe_s():.6f}")
    registry = spans.WorldRegistry()
    with registry.tracking():
        wl = WORKLOADS[args.workload](args.seed)
        tally = measure(wl, registry, spans, args.seconds, bool(args.trace))

    correct = tally.failed == 0 and bool(tally.counters)
    correct &= all_equal("work counters", tally.counters)
    if tally.counters:
        print("counters " + json.dumps(tally.counters[0]))
    setups = sorted(tally.setup_s) or [0.0]
    print(f"repetitions {len(tally.steps)} untraced, {len(tally.layers)} "
          f"traced; unit times {[round(sum(s), 4) for s in tally.steps]}; "
          f"set-up times min/median/max {setups[0]:.4f}/"
          f"{setups[len(setups) // 2]:.4f}/{setups[-1]:.4f} over "
          f"{len(tally.setup_s)} builds")
    print(f"host reference best {min(tally.reference_s, default=0.0):.6f} s; "
          f"scale {tally.host_scale():.4f}; unscaled solve "
          f"{best_of_steps(tally.steps):.4f} s, set-up "
          f"{min(tally.setup_s, default=0.0):.4f} s")
    if args.trace:
        metrics, ok = per_layer(tally)
        correct &= ok
    else:
        metrics = end_to_end(tally)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
