"""Every name that a module of the package imports is used in that module,
every import of the package is at module level but specfun's lazy one of
scipy, and every module-level function of the package has a caller in the
package or the benchmark."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmtkernels"
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


# functions that nothing in the package or the benchmark calls, kept on
# purpose, with the reason for each
UNCALLED_ALLOWED = {
    ("specfun.py", "bessel_y_reflection"):
        "independent reference: the tests compare scipy's Y against it",
    ("finite_kernels.py", "y_matrix"):
        "public API: README lists it among the one-point calls",
    ("cauchy.py", "plemelj_jump_check"):
        "public API: ACCEPTANCE 5 checks the boundary jump through it",
}


def _names(tree) -> Counter:
    """How often each name is read, imported or listed in a dotted string ("module.name") in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            found.update(node.value.split("."))
    return found


def uncalled_functions(package: dict, others=()) -> list:
    """(file, name) of each module-level function in ``package`` (file name -> source)
    that neither ``package`` nor the sources ``others`` name outside its own def.
    ``__init__.py`` only re-exports, so what it names is not called."""
    trees = {name: ast.parse(source) for name, source in package.items()
             if name != "__init__.py"}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(_names(tree))
    return sorted((name, node.name) for name, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and total[node.name] <= _names(node)[node.name])


def test_uncalled_functions_finds_a_function_without_a_caller():
    package = {
        "a.py": ("def f(n):\n    return f(n - 1)\n\ndef g():\n    return 1\n\n"
                 "def h():\n    return g()\n\ndef k():\n    pass\n\n"
                 "def m():\n    \"\"\"Not k.\"\"\"\n"),
        "b.py": "from .a import h\n",
        "__init__.py": "from .a import f, m\n\n__all__ = [\"f\", \"m\"]\n",
    }
    assert uncalled_functions(package, ['LAYERS = ("a.k",)\n']) == [("a.py", "f"), ("a.py", "m")]


def test_every_package_function_has_a_caller():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert set(uncalled_functions(sources, bench)) == set(UNCALLED_ALLOWED)
