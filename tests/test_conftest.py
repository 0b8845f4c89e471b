"""The run refuses a ``PYTHONPATH`` whose package ``pytest.ini`` would shadow."""

import os
import subprocess
import sys
from pathlib import Path

import flatcusps
from conftest import shadowed_package

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(flatcusps.__file__).parent


def fake_tree(tmp_path):
    """A second ``src`` holding a ``flatcusps`` package."""
    (tmp_path / "src" / "flatcusps").mkdir(parents=True)
    (tmp_path / "src" / "flatcusps" / "__init__.py").write_text("")
    return tmp_path / "src"


def test_names_only_another_package(tmp_path):
    other = fake_tree(tmp_path)
    assert shadowed_package("", PACKAGE) is None
    assert shadowed_package(str(PACKAGE.parent), PACKAGE) is None
    # a first entry with no package, and another package after the first entry
    assert shadowed_package(os.pathsep.join([str(tmp_path), str(other)]), PACKAGE) is None
    assert shadowed_package(os.pathsep.join([str(other), str(PACKAGE.parent)]), PACKAGE) == (
        other / "flatcusps"
    ).resolve()


def test_run_stops_on_a_shadowed_package(tmp_path):
    other = fake_tree(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(other))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--co",
         "tests/test_conftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stdout + done.stderr
    assert f"PYTHONPATH names the flatcusps package in {(other / 'flatcusps').resolve()}" in (
        done.stdout + done.stderr
    )
