"""The README's code runs as written, and its names exist.

Every fenced ``python`` block of ``README.md`` is executed in a fresh
namespace, so a renamed function or a changed result in the quick start
fails here rather than when a reader first tries it. Every backticked
identifier in the "Library layout" table must resolve on the package, so
a deleted or renamed public name cannot stay documented.
"""

import importlib
import re
from pathlib import Path

import flatcusps

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# a name, dotted or not, optionally written as a call: `HolonomyGroup(group, witnesses)`
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def layout_rows():
    """(module, backticked spans of its contents) for each row of the table."""
    section = TEXT.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def importable(dotted):
    """Whether ``dotted`` is a name inside an importable module, such as
    `fractions.Fraction.limit_denominator`."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return False
    try:
        module = importlib.import_module(head)
    except ImportError:
        return False
    return resolves(module, rest)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run():
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_layout_names_resolve():
    # a formula such as `AᵀGA = G` is not an identifier and is skipped; an
    # identifier resolves on its row's module, on the package, or from an
    # importable module
    rows = list(layout_rows())
    assert len(rows) == 8  # one per module
    missing = []
    for module_name, spans in rows:
        module = importlib.import_module(module_name)
        for span in spans:
            match = IDENTIFIER.fullmatch(span)
            name = match and match[1]
            if name and not (
                resolves(module, name) or resolves(flatcusps, name) or importable(name)
            ):
                missing.append(f"{module_name}: {span}")
    assert missing == []
