"""The README's library examples run as written."""

import re
from pathlib import Path

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
