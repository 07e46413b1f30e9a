"""Every name a package module imports is used in that module.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard ``ast`` module. ``__init__.py``
imports only to re-export, and is left out.
"""

import ast
from pathlib import Path

import pytest

import vqesim

MODULES = sorted(p for p in Path(vqesim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = ("import json\nimport os.path\nfrom typing import Any as A, List\n"
              "x: List[int] = os.getcwd()\n")
    assert unused_imports(source) == ["line 1: json", "line 3: A"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
