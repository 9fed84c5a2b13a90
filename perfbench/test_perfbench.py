"""Tests of the benchmark itself: self-time arithmetic, tracer installation,
failure accounting, and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from axisolver import comm, dichotomy, sov  # noqa: E402
from axisolver.tridiag import TridiagonalMatrix  # noqa: E402

TINY = {
    "acoustic-fault": dict(nr=17, nz=16, n_terms=4, n_times=11),
    "elliptic-p4": dict(nr=17, nz=15),
    "tridiag-batch": dict(n=64, batch=3),
}


def test_self_time_of_a_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("root", None, 0.0, 10.0),
        S("a", 0, 1.0, 4.0),
        S("b", 0, 5.0, 6.0),
        S("c", 1, 2.0, 3.0),       # grandchild: counts against a, not root
        S("d", 0, 7.5, 9.5),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 1.0, 2.0])
    totals = spans.layer_totals(tree + [S("a", 0, 6.5, 7.0)])
    assert totals.calls["a"] == 2
    assert totals.incl["a"] == pytest.approx(3.5)
    assert totals.self_s["a"] == pytest.approx(2.5)
    assert totals.self_s["root"] == pytest.approx(3.5)


def test_best_of_steps_sums_each_step_minimum():
    assert run.best_of_steps([[1.0, 5.0, 2.0], [2.0, 3.0, 2.5]]) == 6.0
    assert run.best_of_steps([[0.7]]) == 0.7


def test_end_to_end_times_are_scaled_to_the_nominal_host():
    tally = run.Tally()
    tally.steps = [[1.0, 2.0], [0.5, 3.0]]
    tally.setup_s = [0.4, 0.2]
    tally.reference_s = [3 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S]
    e2e = run.end_to_end(tally)
    assert e2e["solve_s"]["value"] == pytest.approx(1.25)
    assert e2e["setup_s"]["value"] == pytest.approx(0.1)


def test_rank_thread_spans_hang_below_the_launch():
    n, p = 40, 2
    A = TridiagonalMatrix.constant(n, -1.0, 4.0, -1.0)
    plan = dichotomy.build_plan(A, dichotomy.Partition.balanced(n, p),
                                comm.CommWorld(p))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("unit"):
            X = dichotomy.solve_many(plan, np.ones((n, 2)), executor="sim")
    assert X.shape == (n, 2)
    names = [s.name for s in tracer.spans]
    launch = names.index(spans.LAUNCH_SPAN)
    betas = [s for s in tracer.spans if s.name == "dichotomy.betas"]
    assert len(betas) == p and all(s.parent == launch for s in betas)
    assert tracer.spans[launch].parent == names.index("dichotomy.solve")
    assert tracer.counts["comm.msgs"] == \
        plan.world.stats_snapshot().total_msgs()


def test_installed_restores_bindings_and_refuses_missing_names():
    before = (sov.dct_forward, sov.SovPreconditioner.apply_inverse)
    with spans.installed(spans.Tracer()):
        assert sov.dct_forward is not before[0]
    assert (sov.dct_forward, sov.SovPreconditioner.apply_inverse) == before
    gone = spans.TARGETS + (spans.Target("axisolver.sov", "no_such_fn", "x"),)
    with pytest.raises(spans.MissingTarget, match="no_such_fn"):
        with spans.installed(spans.Tracer(), gone):
            pass
    assert sov.dct_forward is before[0]


def test_failed_checks_are_counted_and_make_the_run_incorrect():
    wl = workloads.TridiagBatch(0, **TINY["tridiag-batch"])

    def reject(state, out):
        raise workloads.CheckFailed("rejected")

    wl.check = reject
    registry = spans.WorldRegistry()
    with registry.tracking():
        tally = run.measure(wl, registry, spans, 0.0, traced=False)
    assert tally.attempted == run.MIN_REPS + 1
    assert tally.failed == tally.attempted and not tally.steps


def test_traced_acoustic_run_counts_the_program_build_once():
    wl = workloads.AcousticFault(7, **TINY["acoustic-fault"])
    tracer = spans.Tracer()
    registry = spans.WorldRegistry()
    with registry.tracking():
        run.repetition(wl, registry, spans, tracer)
    names = [s.name for s in tracer.spans]
    assert "setup" not in names
    assert names.count("sov.build") == names.count("laguerre.project") == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_traced_and_untraced(name):
    wl = workloads.WORKLOADS[name](7, **TINY[name])
    registry = spans.WorldRegistry()
    with registry.tracking():
        plain = run.measure(wl, registry, spans, 0.0, traced=False)
        traced = run.measure(wl, registry, spans, 0.0, traced=True)
    assert plain.failed == 0 and traced.failed == 0
    assert run.all_equal("counters", plain.counters + traced.counters)
    metrics, ok = run.per_layer(traced)
    assert ok
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in metrics.items()}
    counters = plain.counters[0]
    if "pcg_iterations" in counters:
        assert metrics["iterative.iterations"]["value"] == \
            counters["pcg_iterations"] > 0
    if counters["comm_msgs"]:
        assert metrics["comm.run_s"]["value"] > 0.0
    e2e = run.end_to_end(plain)
    assert all(m["value"] > 0.0 for m in e2e.values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "elliptic-p4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
