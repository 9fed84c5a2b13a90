"""List every statement of ``src/axisolver`` that a pytest run never executes.

    python3 tests/linecov.py [pytest arguments]

Runs pytest in this process (by default the whole suite, as Tier-1 does)
under a line tracer made of the standard library alone: ``sys.settrace``
for the main thread and ``threading.settrace`` for the threads the
``threads`` executor starts.  A statement counts as executed when any of
its own lines ran: the whole span of a simple statement, the header of a
compound one (its decorators included).  Docstrings, and statements that
compile to no bytecode, are not listed.  Code that runs only in a child
process, such as ``cli.py``'s ``__main__`` block under ``python -m
axisolver.cli`` in ``tests/test_cli.py``, is listed: the tracer follows
this process's threads alone.  Prints ``path:line: source`` for each
statement never executed, then exits with pytest's status.  The file name
keeps pytest from collecting it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "axisolver"
NESTED = ("body", "orelse", "finalbody", "handlers")


def _bytecode_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _bytecode_lines(const)
    return lines


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
            and parent.body[0] is node)


def _nested(node) -> list:
    """The statements (and except clauses) directly inside ``node``."""
    return [child for field in NESTED
            if isinstance(getattr(node, field, None), list)
            for child in getattr(node, field)]


def _own_lines(node) -> range:
    """A simple statement's whole span; a compound statement's header, from
    its first decorator to the line before its first nested statement."""
    nested = [child.lineno for child in _nested(node)]
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return range(first, min(nested, default=node.end_lineno + 1))


def statements(path: Path):
    """``(own lines, first line)`` of every statement in ``path`` that
    compiles to bytecode, docstrings left out."""
    source = path.read_text()
    compiled = _bytecode_lines(compile(source, str(path), "exec"))
    for parent in ast.walk(ast.parse(source)):
        for node in _nested(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                own = _own_lines(node)
                if compiled.intersection(own):
                    yield own, node.lineno


def run_traced(args) -> tuple:
    """pytest's exit status on ``args`` and, per file under the package,
    the set of lines that ran."""
    prefix = str(PACKAGE) + os.sep
    executed = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, executed


def main(argv) -> int:
    os.chdir(ROOT)
    status, executed = run_traced(argv or ["-q",
                                           "--continue-on-collection-errors"])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        text = path.read_text().splitlines()
        missed += sorted((path.relative_to(ROOT), line, text[line - 1].strip())
                         for own, line in statements(path)
                         if not ran.intersection(own))
    print(f"\n{len(missed)} statements of {PACKAGE.relative_to(ROOT)} "
          f"never executed:")
    for path, line, source in missed:
        print(f"{path}:{line}: {source}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
