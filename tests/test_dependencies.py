"""The runtime needs numpy only; scipy serves the test oracles alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pairstats

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = (
        "import pairstats, sys; print(pairstats.__file__);"
        " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src_dir = str(Path(pairstats.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    loaded_from, scipy_modules = out.stdout.splitlines()
    assert Path(loaded_from).resolve() == Path(pairstats.__file__).resolve()
    assert scipy_modules == "[]"


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
