"""Import guards. Every module of the package, every test file and every
demo uses each name it imports; ``__init__.py`` only re-exports, and
``from __future__`` imports are directives, so both are exempt. Every
name a demo imports from corrmatch exists, since the suite does not run
the demos. perfbench's tracer binds every function it wraps."""

import ast
import importlib
import types
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


def test_tracer_binds_every_layer_function():
    # perfbench's --trace wraps every function its LAYERS table names; run
    # tracer.py from its source, so nothing is written under perfbench/, and
    # check that installing the tracer rebinds each of them and restores it
    path = TESTS.parent / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    names = [(mod, name) for mod, names in tracer.LAYERS.values() for name in names]
    assert len(names) == 38
    modules = {mod: importlib.import_module(f"corrmatch.{mod}") for mod in tracer.MODULES}
    originals = {(mod, name): getattr(modules[mod], name) for mod, name in names}
    with tracer.Tracer(importlib.import_module("corrmatch")).installed(run_id=0):
        unbound = [f"{mod}.{name}" for (mod, name), fn in originals.items()
                   if getattr(modules[mod], name) is fn]
    assert unbound == []
    assert all(getattr(modules[mod], name) is fn for (mod, name), fn in originals.items())
