"""Import guards. Every module of the package, every test file and every
demo uses each name it imports; ``__init__.py`` only re-exports, and
``from __future__`` imports are directives, so both are exempt. Every
name a demo imports from corrmatch exists, since the suite does not run
the demos. Every function that perfbench's tracer wraps still exists."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "corrmatch"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
CHECKED = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")) + DEMOS)


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


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    missing = [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "corrmatch"
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_tracer_layers_name_existing_functions():
    # perfbench's --trace wraps every function its LAYERS table names; read
    # the table from the source, without importing it, and check each name
    source = (TESTS.parent / "perfbench" / "tracer.py").read_text()
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(source).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("MODULES", "LAYERS")}
    modules = {mod: importlib.import_module(f"corrmatch.{mod}") for mod in tables["MODULES"]}
    missing = [f"{mod}.{name}" for mod, names in tables["LAYERS"].values() for name in names
               if not callable(getattr(modules[mod], name, None))]
    assert missing == []
