"""Every public member of the library is reached from the library itself or
from its documented API.

A public module-level function or class of ``src/axisolver``, or a public
method or property of a public class, passes when its name occurs other
than in its own definition: as a name or an attribute in the library, in
``axisolver.__all__``, or in README inside backticks or a python block.
Reference implementations that only tests need live in ``tests/oracles.py``.

Matching is by name, not by binding, so a member passes on the references
of every member of the same name: a ``DichotomyPlan.checksum`` would pass
on the library's calls of ``DiscreteOperator.checksum``.
"""

import ast
import re
from pathlib import Path

import axisolver

ROOT = Path(__file__).resolve().parents[1]

# member -> why it stays without a reference
ALLOWED = {"CoefficientFields.from_samplers": "the benchmark's workloads "
           "build their fields with it; it leaves with the benchmark's "
           "next change"}


def _definitions(tree):
    """(qualified name, name) of each public function, class, method and
    property a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_member_is_referenced():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "axisolver").glob("*.py")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.compile(r"^```(\w*)\n(.*?)^```$", re.DOTALL | re.MULTILINE)
    code = [body for lang, body in fenced.findall(readme) if lang == "python"]
    code += re.findall(r"`([^`\n]+)`", fenced.sub("", readme))
    referenced = set(axisolver.__all__) | set(
        re.findall(r"\w+", "\n".join(code)))
    referenced.update(node.id if isinstance(node, ast.Name) else node.attr
                      for tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.Name, ast.Attribute)))
    unreferenced = sorted(qualified for tree in trees
                          for qualified, name in _definitions(tree)
                          if name not in referenced)
    assert unreferenced == sorted(ALLOWED)
