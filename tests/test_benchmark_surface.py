"""The package names the benchmark in ``perfbench/`` relies on still exist.

The benchmark traces functions by ``(module, attribute)`` and its workloads
call the package through ``fc.<name>``; a rename or move in ``src/`` would
otherwise only show when the benchmark runs. Both files are read, never
changed.
"""

import importlib.util
import re
from pathlib import Path

import pytest

import flatcusps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_spans().TRACED, ids=lambda entry: entry[0])
def test_traced_functions_resolve(entry):
    _, module, attr = entry
    target = getattr(flatcusps, module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_workload_names_resolve():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bfc\.([A-Za-z_]\w*)", text)))
    assert names
    assert [name for name in names if not hasattr(flatcusps, name)] == []
