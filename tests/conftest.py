"""Stop a run that would test another package than the one ``PYTHONPATH`` names.

``pytest.ini`` sets ``pythonpath = src``, which puts this checkout's ``src``
ahead of ``PYTHONPATH``: ``PYTHONPATH=<other tree>/src python -m pytest``,
run from this checkout, would import and test this checkout's ``flatcusps``
and say nothing. The run stops instead when the first ``PYTHONPATH`` entry
holds a ``flatcusps`` package other than the one imported.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import flatcusps


def shadowed_package(pythonpath: str, imported: Path) -> Path | None:
    """The ``flatcusps`` package in the first entry of ``pythonpath``, when
    there is one and it is not the ``imported`` package directory."""
    first = pythonpath.split(os.pathsep)[0]
    if not first:
        return None
    named = Path(first, "flatcusps").resolve()
    if (named / "__init__.py").is_file() and named != imported.resolve():
        return named
    return None


def pytest_sessionstart(session):
    imported = Path(flatcusps.__file__).parent
    named = shadowed_package(os.environ.get("PYTHONPATH", ""), imported)
    if named is not None:
        pytest.exit(
            f"PYTHONPATH names the flatcusps package in {named}, but pytest.ini's "
            f"pythonpath = src imported {imported.resolve()}; run pytest from the "
            "checkout whose package is to be tested",
            returncode=pytest.ExitCode.USAGE_ERROR,
        )
