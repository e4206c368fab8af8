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
