"""Every name ``src/repro`` imports is referenced.

A stdlib-``ast`` stand-in for a linter's unused-import rule.  A name counts
as referenced when it appears as a name anywhere in the module (string
annotations included) or in the module's ``__all__``.  Imports in a
package ``__init__.py`` are its public surface (re-exports), and an import
marked ``# noqa: F401`` is kept for its side effect (registration).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _names_in(node: ast.AST) -> set:
    """Names referenced under ``node``, parsing string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _referenced(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _names_in(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            names |= _names_in(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _names_in(node.annotation)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            names |= {element.value for element in node.value.elts}
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append((node.lineno, alias.asname
                                 or alias.name.split(".")[0]))
    used = _referenced(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_only_unreferenced_names():
    source = ("from typing import Dict, List, Optional\n"
              "import os.path\n"
              "import json  # noqa: F401\n"
              "from a import b as c, d\n"
              "__all__ = ['d']\n"
              "def f(x: 'Optional[int]') -> Dict: return os.path\n")
    assert unused_imports(source) == [(1, "List"), (4, "c")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(path.relative_to(SRC)) for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
