"""The README's code runs as written.

Every fenced ``python`` block of ``README.md`` is executed in a fresh
namespace, so a renamed function or a changed result in the quick start
fails here rather than when a reader first tries it.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run():
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
