"""Every name a ``hypergen`` module imports is used in that module.

No linter runs on the package, so an import that a change leaves dead would
otherwise stay.  ``__init__`` imports only to re-export, and ``from
__future__`` imports are compiler directives; both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypergen"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_dead_import_is_found():
    assert unused_imports("import math\nimport operator\n\noperator.index(1)\n") == ["math"]
    assert unused_imports("from math import comb, prod\n\nprod(())\n") == ["comb"]
