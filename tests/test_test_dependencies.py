"""The ``test`` extra in pyproject.toml declares every third-party module the tests import.

A module missing from it makes a fresh ``pip install -e .[test]`` fail at
collection.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
LOCAL = {"hypergen", "conftest"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_extra_declares_every_test_import():
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    undeclared = {
        (path.name, name)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name not in LOCAL and name.lower() not in declared
    }
    assert undeclared == set()
