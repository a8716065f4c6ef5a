"""Every name a package module imports from a sibling module is used, and
every function the package defines is named somewhere.

``from .x import name`` in a module of ``partial_hopf`` must be followed by
a use of ``name`` in that module; an import nothing uses keeps a deleted
helper's callers looking alive.  A function or method defined under
``src/`` (other than a dunder) must be named by some ``Name`` or
``Attribute`` node under ``src/``, ``tests/`` or ``bench/``; one that
nothing names is dead code.  A test module defines each top-level function
and class once: a second ``def`` of a name replaces the first, which
pytest then never collects.  No package module imports ``dataclasses`` or
``typing``: every CLI process imports the package, and ``dataclasses``
alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize`` at start-up.
Checked with ``ast``, so no linter is needed.

The package exports lazily from one table, ``partial_hopf._EXPORTS``
(module -> names).  ``__all__`` is exactly the table's names, each listed
once; each name resolves to the object its home module binds, which
defines it when it is the package's own; ``import *`` binds exactly
``__all__``; and a name outside the table is an ``AttributeError``, so a
re-export of a deleted name cannot linger.
"""
import ast
from importlib import import_module
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


def repeated_top_level_names(source: str) -> list:
    """The names that two or more top-level functions or classes of
    ``source`` define, in order of first definition."""
    names = [node.name for node in ast.parse(source).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
    return sorted({n for n in names if names.count(n) > 1}, key=names.index)


def test_detects_a_repeated_top_level_name():
    src = "def t():\n    pass\nclass C:\n    def m(self):\n        pass\n" \
          "    def m(self):\n        pass\ndef t():\n    pass\n"
    assert repeated_top_level_names(src) == ["t"]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_test_module_defines_a_name_twice(path):
    assert repeated_top_level_names(path.read_text()) == []


# modules no package module may import, for their cost at start-up
REFUSED_IMPORTS = frozenset(("dataclasses", "typing"))


def refused_imports(source: str) -> list:
    """The absolute imports of ``source``, ``import`` and ``from``, whose
    top-level module is in REFUSED_IMPORTS."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] in REFUSED_IMPORTS]


def test_detects_a_refused_import():
    src = "import os, typing\nfrom dataclasses import field\n" \
          "from .typing import x\ndef f():\n    import dataclasses\n"
    assert refused_imports(src) == ["typing", "dataclasses", "dataclasses"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_typing(path):
    assert refused_imports(path.read_text()) == []


def test_all_lists_each_exported_name_once():
    listed = [name for names in partial_hopf._EXPORTS.values()
              for name in names]
    assert len(listed) == len(set(listed))
    assert partial_hopf.__all__ == sorted(listed)
    assert set(partial_hopf.__all__) <= set(dir(partial_hopf))


@pytest.mark.parametrize("module,names", partial_hopf._EXPORTS.items(),
                         ids=list(partial_hopf._EXPORTS))
def test_each_export_is_its_home_module_binding(module, names):
    home = import_module("partial_hopf." + module)
    for name in names:
        obj = getattr(partial_hopf, name)
        assert obj is getattr(home, name), name
        defined_in = getattr(obj, "__module__", "")
        if defined_in.startswith("partial_hopf"):
            assert defined_in == home.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from partial_hopf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == partial_hopf.__all__


@pytest.mark.parametrize("name", ["no_such_name", "_mul", "invert_morphism",
                                  "Rational"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(partial_hopf, name)
    assert not hasattr(partial_hopf, name)
