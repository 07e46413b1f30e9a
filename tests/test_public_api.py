"""Every public function, class and method of the package has a use.

A name that only the tests call is API the program does not need. So
each public name defined in ``src/vqesim`` (dunders and ``_names`` left
out) must appear as a whole word in the package, in ``perfbench/`` or in
README.md, on some line other than a ``def`` or ``class`` line of that
name. Like ``test_imports.py``, this reads the syntax tree with the
standard ``ast`` module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vqesim"


def public_names(source: str) -> set[str]:
    """Top-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, defs))
    return {n for n in names if not n.startswith("_")}


def unreferenced(names: set[str], texts: list[str]) -> list[str]:
    lines = [line for text in texts for line in text.splitlines()]
    missing = []
    for name in sorted(names):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line)
                   for line in lines):
            missing.append(name)
    return missing


def test_unreferenced_name_is_found():
    source = ("class Circuit:\n"
              "    def bind(self):\n        return self\n"
              "    def planted(self):\n        return None\n"
              "    def __repr__(self):\n        return 'Circuit'\n"
              "def run(c):\n    return c.bind()\n"
              "def _helper():\n    planted_total = 1\n")
    readme = "`run(Circuit())` binds and runs a circuit; planted_list is a word"
    assert public_names(source) == {"Circuit", "bind", "planted", "run"}
    assert unreferenced(public_names(source), [source, readme]) == ["planted"]


def test_every_public_name_is_used_outside_the_tests():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    bench += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.md"))]
    names = set().union(*(public_names(s) for s in package))
    texts = package + bench + [(ROOT / "README.md").read_text()]
    assert unreferenced(names, texts) == []
