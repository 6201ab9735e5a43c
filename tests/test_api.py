"""The package namespace: every exported name is listed once, resolves and,
if a function, is named in the README, whose Python example runs."""

import inspect
import re
from pathlib import Path

import pairstats

README = Path(__file__).parents[1] / "README.md"


def test_all_has_no_duplicates():
    assert len(pairstats.__all__) == len(set(pairstats.__all__))


def test_all_names_resolve():
    missing = [name for name in pairstats.__all__ if not hasattr(pairstats, name)]
    assert missing == []


def test_public_functions_in_readme():
    readme = README.read_text(encoding="utf-8")
    functions = [n for n in pairstats.__all__ if inspect.isfunction(getattr(pairstats, n))]
    assert [n for n in functions if f"`{n}`" not in readme] == []


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
