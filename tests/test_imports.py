"""No module-level import goes unused in the package or its tests, and no
package module reaches into another for a private name.

Each file of src/toricmult and tests is parsed with ast; a name bound by a
module-level import must be read somewhere in the file, or be listed in the
module's __all__ (a re-export). `from __future__` imports bind no name. A
package module imports an `_`-prefixed name from another package module only
where PRIVATE_IMPORTS lists it with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "toricmult").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# (importer, source, name) of every private name a package module imports from another.
PRIVATE_IMPORTS = {
    ("geometry", "linalg", "_scaled"): "membership scales exact points to integers as linalg's elimination does",
    ("subadditivity", "ideals", "_same_ring"): "pair operations refuse ideals of different rings as product does",
    ("subadditivity", "rings", "_hermite_walk"): "a refutation's box size counts the uncut runs that the walk cuts",
}


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


def private_imports(path):
    """(importer, source, name) per `_`-prefixed name imported from a toricmult module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("toricmult")):
            source = (node.module or "toricmult").rpartition(".")[2]
            yield from ((path.stem, source, alias.name) for alias in node.names if alias.name.startswith("_"))


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nimport os, sys\nfrom re import match as m\n\nprint(sys)\n")
    assert unused_imports(path) == [("os", 2), ("m", 3)]
    path.write_text("import os.path\nfrom re import match\n__all__ = ['match']\n\nos.path.join\n")
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from .ideals import _anchored, product\nfrom toricmult.rings import _cut_point\nfrom os import _exit\n")
    assert list(private_imports(path)) == [("sample", "ideals", "_anchored"), ("sample", "rings", "_cut_point")]


def test_package_modules_import_only_the_listed_private_names():
    assert sorted(imp for path in PACKAGE for imp in private_imports(path)) == sorted(PRIVATE_IMPORTS)
