"""The runtime needs numpy only; scipy serves the test oracles alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pairstats

ROOT = Path(__file__).resolve().parents[1]


def fresh_import(code: str) -> list[str]:
    """The output lines of ``code``, run in a new interpreter that imports
    pairstats from the same checkout as this test."""
    src_dir = str(Path(pairstats.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    return out.stdout.splitlines()


def test_import_loads_no_scipy():
    code = (
        "import pairstats, sys; print(pairstats.__file__);"
        " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    loaded_from, scipy_modules = fresh_import(code)
    assert Path(loaded_from).resolve() == Path(pairstats.__file__).resolve()
    assert scipy_modules == "[]"


def test_import_makes_no_thread_pool():
    # concurrent.futures loads logging, so the pulse-block pool is imported
    # and made on first use, not when pairstats is imported
    code = "import pairstats, sys; print('concurrent.futures' in sys.modules)"
    assert fresh_import(code) == ["False"]


def test_pyproject_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in reqs}

    assert names(project["dependencies"]) == {"numpy"}
    assert names(project["optional-dependencies"]["test"]) >= {
        "pytest",
        "hypothesis",
        "scipy",
    }
