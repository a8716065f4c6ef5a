"""Every name a package module imports from a sibling module is used.

``from .x import name`` in a module of ``partial_hopf`` must be followed by
a use of ``name`` in that module; an import nothing uses keeps a deleted
helper's callers looking alive.  ``__init__.py`` is exempt, because it
imports to re-export.  Checked with ``ast``, so no linter is needed.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partial_hopf"
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
