"""Every name a package module imports from a sibling module is used, and
every function the package defines is named somewhere.

``from .x import name`` in a module of ``partial_hopf`` must be followed by
a use of ``name`` in that module; an import nothing uses keeps a deleted
helper's callers looking alive.  ``__init__.py`` is exempt, because it
imports to re-export.  A function or method defined under ``src/`` (other
than a dunder) must be named by some ``Name`` or ``Attribute`` node under
``src/``, ``tests/`` or ``bench/``; one that nothing names is dead code.
``partial_hopf.__all__`` lists exactly the names ``__init__.py`` imports,
so a re-export of a deleted name cannot linger there.  Checked with
``ast``, so no linter is needed.
"""
import ast
from pathlib import Path

import pytest

import partial_hopf

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "partial_hopf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_sibling_imports(source: str) -> list:
    """The names bound by relative ``from`` imports that no other node of
    ``source`` reads."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    assert unused_sibling_imports(
        "from .a import b, c as d\nfrom os import path\nd()\n") == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_sibling_imports(path):
    assert unused_sibling_imports(path.read_text()) == []


def unreferenced_functions(defining: list, naming: list) -> list:
    """The non-dunder functions and methods defined in the ``defining``
    sources that no ``Name`` or ``Attribute`` node of the ``naming``
    sources names."""
    defined = sorted({node.name for source in defining
                      for node in ast.walk(ast.parse(source))
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and not (node.name.startswith("__")
                               and node.name.endswith("__"))})
    named = set()
    for source in naming:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [name for name in defined if name not in named]


def test_detects_an_unreferenced_function():
    src = "def f():\n    g()\ndef g():\n    pass\ndef h():\n    pass\n" \
          "class C:\n    def __init__(self):\n        pass\n" \
          "    def m(self):\n        pass\n"
    assert unreferenced_functions([src], [src, "C().m()\n"]) == ["f", "h"]


def test_every_defined_function_is_named():
    sources = {path: path.read_text()
               for tree in ("src", "tests", "bench")
               for path in sorted((ROOT / tree).rglob("*.py"))}
    defining = [text for path, text in sources.items()
                if path.is_relative_to(ROOT / "src")]
    assert unreferenced_functions(defining, list(sources.values())) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(partial_hopf.__all__) == sorted(imported)
