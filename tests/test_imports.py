"""Dead-import guard: every module of the package and every test file
uses each name it imports. ``__init__.py`` only re-exports, and ``from
__future__`` imports are directives, so both are exempt."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "corrmatch"
CHECKED = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_flags_unused_names():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", CHECKED, ids=[p.name for p in CHECKED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
