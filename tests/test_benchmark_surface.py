"""The package names the benchmark in ``perfbench/`` relies on still exist.

The benchmark traces functions by ``(module, attribute)`` and its workloads
call the package through ``fc.<name>``; a rename or move in ``src/`` would
otherwise only show when the benchmark runs. Its set-up also relies on
``run.clear_caches`` emptying every cache in the package. The anchor
digests that CI and the benchmark repeat must be the ones the tests pin.
The benchmark's and CI's files are read, never changed.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import flatcusps
from flatcusps import (
    ExperimentConfig,
    Matrix,
    MatrixGroupInput,
    catalog,
    good_prime,
    run_experiment,
)

from test_acceptance import ACCEPTANCE_SHA256
from test_cli import EMBED_ANCHOR_SHA256, SELBERG_ANCHOR_SHA256
from test_density import SIXTH_TURN_SHA256

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_perfbench("spans").TRACED, ids=lambda entry: entry[0])
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


def package_caches():
    """Every functools cache at module level in every flatcusps module,
    under the module that defines it rather than one that imports it."""
    caches = {}
    for info in pkgutil.iter_modules(flatcusps.__path__):
        module = importlib.import_module(f"flatcusps.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and value.__module__ == module.__name__:
                caches[f"{info.name}.{attr}"] = value
    return caches


def test_cache_info_reads_resolve():
    # the traced run reads cache statistics by dotted name; a cache that
    # moved or lost its lru_cache would only fail there
    text = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    reads = re.findall(r"\bpackage\.(\w+)\.(\w+)\.cache_info\(\)", text)
    assert reads
    for module, attr in reads:
        info = getattr(getattr(flatcusps, module), attr).cache_info()
        assert {"hits", "misses", "currsize"} <= set(info._fields)


def test_clear_caches_empties_every_package_cache():
    # set-up in the benchmark must pay for filling each cache anew
    catalog("hantzsche-wendt")
    good_prime(MatrixGroupInput(2, [-Matrix.identity(2)]))
    run_experiment(ExperimentConfig(catalog("torus-2"), 1, [10], 8, torus_manifold_mode=True))
    caches = package_caches()
    filled = {
        "density._degree_certificate",
        "exactlin.is_positive_definite",
        "bieberbach._checked_entry",
        "bieberbach._holonomy_witnesses",
        "bieberbach.translation_lattice",
        "bieberbach.is_torsion_free",
        "selberg._cyclotomic_factors",
        "selberg._residue_evidence",
    }
    assert filled <= caches.keys()
    assert all(caches[name].cache_info().currsize > 0 for name in filled)
    load_perfbench("run").clear_caches(flatcusps)
    left = {name: c.cache_info().currsize for name, c in caches.items()}
    assert {name: size for name, size in left.items() if size} == {}


def test_anchor_digests_match_the_tests():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    checks = [line for line in workflow.splitlines() if "sha256sum --check" in line]
    digests = [re.search(r'echo "([0-9a-f]{64})  \S+" \| sha256sum --check', line) for line in checks]
    assert all(digests), checks
    assert sorted(d.group(1) for d in digests) == sorted(
        [ACCEPTANCE_SHA256, SIXTH_TURN_SHA256, EMBED_ANCHOR_SHA256, SELBERG_ANCHOR_SHA256]
    )
    workloads = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    assert re.findall(r'^DENSITY_SHA256 = "(\w+)"$', workloads, re.M) == [ACCEPTANCE_SHA256]
