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
