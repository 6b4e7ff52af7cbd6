"""Source hygiene of the package, checked with the standard-library ``ast``.

Two kinds of dead code fail here: a ``from``-import that its module never
reads, and a private module-level name that no module of ``src/morin``
reads. ``from __future__ import annotations`` is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "morin"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded(tree) -> set:
    """Identifiers a module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _referenced(tree) -> set:
    """Identifiers a module reads, as names, attributes or imports."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_from_imports(tree) -> list:
    loaded = _loaded(tree)
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in loaded
    ]


def _module_names(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def unreferenced_private_names(trees: dict) -> list:
    referenced = set().union(*(_referenced(tree) for tree in trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_from_imports(module):
    assert unused_from_imports(TREES[module]) == []


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(TREES) == []


def test_checks_catch_dead_code():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Mapping, Sequence\n"
        "from functools import cmp_to_key\n"
        "def _cmp(a, b): return 0\n"
        "_cmp_key = cmp_to_key(_cmp)\n"
        "def f(m: Mapping): return m\n"
    )
    assert unused_from_imports(tree) == ["Sequence"]
    assert unreferenced_private_names({"m.py": tree}) == ["m.py:_cmp_key"]
