"""Import guards. Every module of the package, every test file, every
demo and every tool uses each name it imports; ``__init__.py`` only
re-exports, and ``from __future__`` imports are directives, so both are
exempt. Every name a demo imports from corrmatch exists, since the suite
does not run the demos. Every name the package re-exports has a use
outside the unit tests and outside the module that defines it, and
importing the package leaves scipy.stats unloaded. perfbench's tracer
binds every function it wraps."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "corrmatch"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
CHECKED = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")) + DEMOS + sorted((TESTS.parent / "tools").glob("*.py")))
# Code that is not a unit test: the package, the demos, the acceptance
# criteria and the benchmark.
USERS = (sorted(SRC.glob("*.py")) + DEMOS + [TESTS / "test_acceptance.py"]
         + sorted((TESTS.parent / "perfbench").glob("*.py")))
# Exports that nothing outside their own module and the unit tests uses, and why each stays.
UNUSED_EXPORTS_KEPT = {
    "fixed_error_counts": "the paper's fixed addition/occlusion counts; an oracle tests it",
    "bernoulli_pair_mi": "the paper's per-pair closed form, which rho_sbm_mi sums",
    "graph_from_edges": "the graph constructor; graph_from_edges(n, ()) is the empty graph",
    "GmmModel": "the return type of fit_gmm",
    "MatchResult": "the return type of sgm_match and faq_match",
}


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


def used_names(source: str) -> set[str]:
    """Names read as a Name, an Attribute or a whole string constant (the
    benchmark names functions as strings), except inside the function or
    class that defines them."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return used


def test_guard_skips_a_name_inside_its_own_definition():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h.f, 'k'\n"
    assert used_names(source) == {"n", "f", "h", "k"}
    assert "f" not in used_names("def f(n):\n    return f(n - 1)\n")


def test_every_export_used_outside_unit_tests():
    # a use inside the module that defines the name does not count
    tree = ast.parse((SRC / "__init__.py").read_text())
    home = {alias.asname or alias.name: SRC / f"{node.module}.py" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = {path: used_names(path.read_text()) for path in USERS}
    unused = [name for name in home
              if not any(name in used for path, used in uses.items() if path != home[name])]
    assert UNUSED_EXPORTS_KEPT.keys() <= home.keys()
    assert sorted(unused) == sorted(UNUSED_EXPORTS_KEPT)


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter: this one has loaded scipy.stats for the tests
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    code = ("import sys, corrmatch, corrmatch.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


RNG_CONSTRUCTORS = {"default_rng", "SeedSequence", "PCG64"}


def rng_constructors(source: str, skip: str | None = None) -> set[str]:
    """The numpy generator constructors that ``source`` names, as a name,
    an attribute or an import, outside its top-level function ``skip``."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.FunctionDef) and node.name == skip)]
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            named.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    return named & RNG_CONSTRUCTORS


def test_guard_flags_rng_constructors():
    source = ("from numpy.random import PCG64\nimport numpy as np\n"
              "def stream(s):\n    return np.random.SeedSequence(s)\n"
              "def f():\n    return np.random.default_rng(0)\n")
    assert rng_constructors(source) == RNG_CONSTRUCTORS
    assert rng_constructors(source, skip="stream") == {"PCG64", "default_rng"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_streams_derived_only_by_stream(path):
    # one rule derives every generator: samplers.stream
    skip = "stream" if path.name == "samplers.py" else None
    assert rng_constructors(path.read_text(), skip) == set()


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
