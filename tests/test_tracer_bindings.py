"""The benchmark's span tracer wraps library functions by module binding
(``perfbench/spans.py``, ``TARGETS``).  Installing it raises
``MissingTarget`` when a refactor removes or renames one of those bindings,
so this test keeps the library and the benchmark in step without running
the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

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
