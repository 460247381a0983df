"""Source checks that need no linter: every import in the package is used."""

import ast
from pathlib import Path

import pytest

import graftsim

PACKAGE = Path(graftsim.__file__).parent
# ``__init__`` imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads.  A
    read is a bare name or the head of an attribute chain; ``from
    __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import Dict, List as L\n"
              "def f(x: Dict) -> str:\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "L")]
