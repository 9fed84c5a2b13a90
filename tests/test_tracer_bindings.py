"""The benchmark's span tracer wraps library functions by module binding
(``perfbench/spans.py``, ``TARGETS``).  Installing it raises
``MissingTarget`` when a refactor removes or renames one of those bindings,
so this test keeps the library and the benchmark in step without running
the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import axisolver.dichotomy as dichotomy
import axisolver.sov as sov
from axisolver.comm import CommWorld
from axisolver.elliptic import Grid2D
from axisolver.tridiag import TridiagonalMatrix

from oracles import plan_arrays

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    with spans.installed(spans.Tracer()):
        pass


def test_plan_bytes_count_every_array_of_the_plan(monkeypatch):
    # dichotomy.plan_mb walks the plan's dataclass fields and tuples; it
    # must reach every array of the blocked eliminations, nested records
    # included, and count each once
    spans = load_spans(monkeypatch)
    A = TridiagonalMatrix.constant(40, -1.0, 2.5, -1.0)
    for sizes in ((40,), (3, 14, 2, 21)):
        plan = dichotomy.build_plan(A, dichotomy.Partition(sizes),
                                    CommWorld(len(sizes)))
        held = sum(arr.nbytes for arr in plan_arrays(plan))
        assert held > 0 and spans.array_bytes(plan) == held


def count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name; returns the live call counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_p1_preconditioner_calls_the_kernels_through_dichotomy_bindings(
        monkeypatch):
    # the tracer times the kernels layer by wrapping these two names; a p = 1
    # build or apply that reached the kernels another way would read 0 there
    calls = count_calls(monkeypatch, dichotomy,
                        ("thomas_factor", "thomas_apply"))
    g = Grid2D(65, 16, 1.0, 1.0)
    M = sov.SovPreconditioner(g, 1.0, 0.5)
    assert calls["thomas_factor"] >= 1
    built = dict(calls)
    M.apply_inverse(np.ones(g.unknown_shape))
    assert calls["thomas_factor"] == built["thomas_factor"]
    assert calls["thomas_apply"] > built["thomas_apply"]


def test_distributed_apply_reaches_the_traced_layers_through_bindings(
        monkeypatch):
    # the traced elliptic-p4 run reads its fourier, dichotomy.solve,
    # dichotomy.betas and kernels layers from these names: one apply makes
    # one call of each of the first three and one local_betas call on every
    # rank (the 22 radial rows split 6, 6, 5, 5).  Interiors of 3 or 4
    # rows are held as their inverses, so an apply makes no kernel call;
    # forced blocked (a cap of 0), each rank makes two thomas_apply calls,
    # blocks and separators (each interior spans two blocks of 2)
    p = 4
    for cap, kernel_solves in ((dichotomy.DENSE_INTERIOR_CAP, 0), (0, 2)):
        monkeypatch.setattr(dichotomy, "DENSE_INTERIOR_CAP", cap)
        M = sov.SovPreconditioner(Grid2D(23, 9, 1.0, 1.0), 1.3, 0.4,
                                  ranks=p)
        with monkeypatch.context() as mp:
            calls = count_calls(mp, sov, ("dct_forward", "dct_inverse",
                                          "solve_series"))
            ranks = count_calls(mp, dichotomy,
                                ("local_betas", "thomas_apply"))
            M.apply_inverse(np.ones(M.grid.unknown_shape))
        assert calls == {"dct_forward": 1, "dct_inverse": 1,
                         "solve_series": 1}
        assert ranks == {"local_betas": p, "thomas_apply": kernel_solves * p}


def test_dense_interior_build_factors_through_the_traced_binding(
        monkeypatch):
    # the tracer's kernels.factor span wraps dichotomy.thomas_factor; a
    # p >= 2 build with dense interiors factors through it twice: the
    # interiors and their reversals side by side, then the whole family
    # and its reversal
    calls = count_calls(monkeypatch, dichotomy, ("thomas_factor",))
    plan = dichotomy.build_plan(
        TridiagonalMatrix.constant(40, -1.0, 2.5, -1.0),
        dichotomy.Partition((3, 14, 2, 21)), CommWorld(4))
    assert all(isinstance(rp.interior_fact, dichotomy._DenseInverse)
               for rp in plan.ranks if rp.m_R - rp.m_L > 1)
    assert calls == {"thomas_factor": 2}
