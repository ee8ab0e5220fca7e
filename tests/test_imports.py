"""Every name that a module of the package imports is used in that module, and
every import of the package is at module level but specfun's lazy one of scipy."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmtkernels"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in ``source`` and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name():
    src = ("import os.path\nimport math\nfrom json import dumps as d, loads\n\n"
           "def f():\n    return math.pi, d\n")
    assert unused_imports(src) == ["loads", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# (module, imported module): the deliberate function-local imports.
# specfun imports scipy on first use, so that importing the package does
# not load it
LOCAL_IMPORTS_ALLOWED = {("specfun.py", "scipy")}


def local_imports(source: str) -> list:
    """(line, module) of every import statement inside a function of ``source``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [(node.lineno, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(set(found))


def test_local_imports_finds_a_nested_import():
    src = ("import math\n\ndef f():\n    import cmath\n    def g():\n"
           "        from .orthopoly import eval_monic\n    return cmath, g\n")
    assert local_imports(src) == [(4, "cmath"), (6, ".orthopoly")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    found = [(line, mod) for line, mod in local_imports(path.read_text())
             if (path.name, mod) not in LOCAL_IMPORTS_ALLOWED]
    assert found == []
