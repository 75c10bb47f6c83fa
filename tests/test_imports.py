"""No module-level import goes unused in the package or its tests, no
package module reaches into another for a private name, and no package
docstring names what the package does not define.

Each file of src/toricmult and tests is parsed with ast; a name bound by a
module-level import must be read somewhere in the file, or be listed in the
module's __all__ (a re-export). `from __future__` imports bind no name. A
package module imports an `_`-prefixed name from another package module only
where PRIVATE_IMPORTS lists it with its reason. `import toricmult` loads none
of the modules only the command line needs, so a library caller does not pay
for their import, and neither it nor `import toricmult.cli` loads the
dataclass code generator or the `inspect` module it pulls in: every record
type is a NamedTuple. Every snake_case word in a package docstring is a name
the package's code defines, binds or reads, a subscript such as n_i or H_ij,
or a word DOCSTRING_WORDS lists with its reason; so a docstring that names a
deleted function, even as rings.name, fails.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "toricmult").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# (importer, source, name) of every private name a package module imports from another.
PRIVATE_IMPORTS = {
    ("geometry", "linalg", "_scaled"): "membership scales exact points to integers as linalg's elimination does",
    ("subadditivity", "ideals", "_same_ring"): "pair operations refuse ideals of different rings as product does",
}

# snake_case words a package docstring may use though no package code binds them, with the reason.
DOCSTRING_WORDS = {
    "dual_cone_rays": "the problem file's ring key, which problemio reads as a string",
    "combinations_with_replacement": "the itertools order of generator pairs that the search decodes by hand",
}
SNAKE_CASE = re.compile(r"(?<!\w)_*[A-Za-z][A-Za-z0-9]*(?:_+[A-Za-z0-9]+)+")
# One or two letters, an underscore, and one or two letters or digits: n_i, k_0, H_ij.
SUBSCRIPT = re.compile(r"[A-Za-z]{1,2}_[A-Za-z0-9]{1,2}")

# Modules only the command line needs, none of which `import toricmult` may load.
COMMAND_LINE_ONLY = ("toricmult.cli", "toricmult.problemio", "toricmult.builtin_example", "argparse", "json")
# Modules that neither the package nor its command line may load, for their start-up cost.
NEVER_LOADED = ("dataclasses", "inspect")


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


def _bound_names(tree):
    """Every name a module's code defines, binds or reads, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield from (node.asname or node.name, node.name.rpartition(".")[2])


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def stale_docstring_words(paths):
    """(file name, word) per snake_case word of a docstring in paths that no code in
    paths defines, binds or reads, that is no subscript, and that DOCSTRING_WORDS omits."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    names = {path.stem for path in paths}
    for tree in trees.values():
        names.update(_bound_names(tree))
    stale = []
    for name, tree in trees.items():
        for doc in _docstrings(tree):
            for word in SNAKE_CASE.findall(doc):
                if word not in names and word not in DOCSTRING_WORDS and not SUBSCRIPT.fullmatch(word):
                    stale.append((name, word))
    return stale


def test_the_check_sees_a_stale_docstring_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Walks floors_i as _walk does for n_i, H_ij and k_0, once done by rings._cut_point."""\n\n'
        "def _walk(ring_dim):\n"
        '    """Reads ring_dim, and run_step on a ToricRing, but not old_name or floor_a."""\n'
        "    return ring_dim.run_step\n"
    )
    assert stale_docstring_words([path]) == [
        ("sample.py", "floors_i"), ("sample.py", "_cut_point"), ("sample.py", "old_name"), ("sample.py", "floor_a")
    ]


def test_package_docstrings_name_only_what_the_package_binds():
    assert stale_docstring_words(PACKAGE) == []


def test_every_listed_docstring_word_is_used_and_unbound():
    assert len(DOCSTRING_WORDS) <= 5
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    used = {word for tree in trees for doc in _docstrings(tree) for word in SNAKE_CASE.findall(doc)}
    bound = {name for tree in trees for name in _bound_names(tree)}
    assert set(DOCSTRING_WORDS) <= used - bound


def _loaded_after(module, names):
    """The names among names that `import module` leaves in sys.modules, in a fresh
    interpreter without site, so that no .pth file imports one of them first."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}; "
        f"print(*[name for name in {names!r} if name in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_importing_the_package_loads_no_command_line_module():
    assert _loaded_after("toricmult", COMMAND_LINE_ONLY) == []


@pytest.mark.parametrize("module", ["toricmult", "toricmult.cli"])
def test_importing_loads_no_dataclass_machinery(module):
    assert _loaded_after(module, NEVER_LOADED) == []
