"""No module-level import goes unused in the package or its tests.

Each file of src/toricmult and tests is parsed with ast; a name bound by a
module-level import must be read somewhere in the file, or be listed in the
module's __all__ (a re-export). `from __future__` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "toricmult").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(name, line) per name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nimport os, sys\nfrom re import match as m\n\nprint(sys)\n")
    assert unused_imports(path) == [("os", 2), ("m", 3)]
    path.write_text("import os.path\nfrom re import match\n__all__ = ['match']\n\nos.path.join\n")
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path) == []
