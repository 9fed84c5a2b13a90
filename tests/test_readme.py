"""The README's library examples run as written, and its CLI section
documents every configuration key."""

import re
from pathlib import Path

from axisolver.config import DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_in_order(tmp_path, monkeypatch):
    # later blocks reuse names (np, Grid2D, Partition, ...) of earlier ones
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 5
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
    assert namespace["results"][1].tolist() == [9.0]
    assert namespace["X"].shape == (4096, 16)


def test_readme_documents_every_config_key_under_its_section():
    # each "* `[section]` — ..." bullet of the CLI section, continuation
    # lines included, names every key of that section in backticks
    text = README.read_text(encoding="utf-8")
    cli = text[text.index("## Command-line interface"):]
    cli = cli[:cli.index("\n## ", 1)]
    bullets = dict(re.findall(r"^\* `\[(\w+)\]` (.*?)(?=^\S|^$)", cli,
                              flags=re.DOTALL | re.MULTILINE))
    missing = {section: [key for key in keys if f"`{key}`" not in
                         bullets.get(section, "")]
               for section, keys in DEFAULTS.items()}
    assert {s: k for s, k in missing.items() if k} == {}
