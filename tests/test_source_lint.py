"""Checks on the package source text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hldecomp"


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so a check made with one
    # vanishes silently; the package raises an exception instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend("%s:%d" % (path.name, node.lineno)
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, "bare assert in %s" % ", ".join(found)


def _unused_imports(tree):
    """(line, name) for every name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport os.path\nfrom a import b, c as d\n"
                     "from __future__ import annotations\nos.sep\nd()\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "b")]


def test_no_unused_import_in_package():
    # a name imported but never read is dead weight at import time and
    # misleads a reader about what the module depends on
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend("%s:%d %s" % (path.name, line, name)
                     for line, name in _unused_imports(tree))
    assert not found, "unused import in %s" % ", ".join(found)


def _unreferenced_helpers(trees):
    """Names of the private top-level functions (a name starting with _,
    dunders aside) of the given module trees that no code reads outside
    their own definition."""
    defined = set()
    used = set()
    for tree in trees:
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                    owner = stmt.name
                    defined.add(owner)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    used.add(name)
    return sorted(defined - used)


def test_unreferenced_helper_is_found():
    trees = [ast.parse("def _kept():\n    return _chained()\n"
                       "def _chained():\n    return 1\n"
                       "def _recursive(k):\n    return _recursive(k - 1)\n"
                       "def _dead():\n    return _kept()\n"),
             ast.parse("import m\nm._kept()\ndef __getattr__(name):\n    pass\n")]
    assert _unreferenced_helpers(trees) == ["_dead", "_recursive"]


def test_no_unreferenced_helper_in_package():
    # a private helper whose last caller in the package is gone is kept
    # alive only by tests, and tests should check the package's own code
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = _unreferenced_helpers([ast.parse(path.read_text(), filename=str(path))
                                   for path in paths])
    assert not found, "helper read only by its own definition: %s" % ", ".join(found)
