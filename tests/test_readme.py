"""The Python examples of README.md run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """The code of every fenced ``python`` block of ``text``, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order_in_one_namespace():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, code in enumerate(blocks):
        exec(compile(code, f"{README.name}, python block {i + 1}", "exec"), namespace)
