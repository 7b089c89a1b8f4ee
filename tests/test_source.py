"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coneccp"


def assertion_sites(source):
    """(line, what) of each ``assert`` and ``raise AssertionError``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_assertion_sites_are_found():
    source = "assert x\nraise AssertionError\nraise AssertionError('y')\n"
    assert [line for line, _ in assertion_sites(source)] == [1, 2, 3]


def test_package_raises_real_exceptions():
    # assert statements vanish under python -O, and AssertionError is no
    # ConeCcpError, so runtime checks must raise the package's own errors
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in assertion_sites(path.read_text())]
    if found:
        pytest.fail("\n".join(found))
