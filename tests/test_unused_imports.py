"""Every name a module of ``src/axisolver`` imports is used in it or listed
in its ``__all__``.

A binding counts as used when its name occurs as a name anywhere in the
module (an attribute access ``np.x`` reads the name ``np``); ``from
__future__`` imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module.name -> why it stays unused
ALLOWED = {
    "sov.multi_apply": "the benchmark's tracer wraps it through sov; it "
                       "leaves with the tracer's next change",
    "sov.multi_factor": "the benchmark's tracer wraps it through sov; it "
                        "leaves with the tracer's next change",
}


def _unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return {f"{path.stem}.{name}" for name in bound - used}


def test_every_import_is_used_or_exported():
    unused = set().union(*(_unused(path) for path in
                           (ROOT / "src" / "axisolver").glob("*.py")))
    assert sorted(unused) == sorted(ALLOWED)
