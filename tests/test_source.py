"""Checks on the package source itself."""

import ast
import sys
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


def imported_roots(source):
    """(line, top-level name) of each module a source imports absolutely."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_imported_roots_are_found():
    source = ("import scipy.linalg\nfrom numpy import eye\nfrom . import lp\n"
              "from .dc import x\nimport os, json\n")
    assert [root for _, root in imported_roots(source)] == [
        "scipy", "numpy", "os", "json"]


def test_package_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the only dependency; scipy is
    # installed as a test oracle, so an import of it would pass every test
    allowed = set(sys.stdlib_module_names) | {"numpy", "coneccp"}
    found = [f"{path.name}:{line}: {root}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, root in imported_roots(path.read_text())
             if root not in allowed]
    if found:
        pytest.fail("\n".join(found))


def unused_imports(source):
    """(line, name) of each name a source imports and never uses.  A use is
    a bare name or the root of an attribute chain; ``__future__`` imports
    bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import os.path\nfrom . import lp\nfrom .dc import a, b as c\n"
              "x: a = np.eye(2)\ny = os.path.join(lp.ROOM)\n")
    assert unused_imports(source) == [(5, "c")]


# names a module imports only to re-export them
REEXPORTS = {("lp.py", "UNBOUNDED")}


def test_package_imports_only_what_it_uses():
    # an import kept for a caller's sake (a monkeypatch target, say) pins
    # a name the module itself does not need
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())
             if (path.name, name) not in REEXPORTS]
    if found:
        pytest.fail("\n".join(found))


def _private(dotted):
    """Whether a dotted name has a leading-underscore (not dunder) part."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in dotted.split("."))


def private_numpy_uses(source):
    """(line, name) of each private numpy module or attribute a source
    imports, or reaches by attribute from a name bound to numpy."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "numpy":
                    bound.add(alias.asname or "numpy")
                    if _private(alias.name):
                        yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == "numpy":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                name = f"{node.module}.{alias.name}"
                if _private(name):
                    yield node.lineno, name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            parts, root = [node.attr], node.value
            while isinstance(root, ast.Attribute):
                parts.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                yield node.lineno, ".".join([root.id] + parts[::-1])


def test_private_numpy_uses_are_found():
    source = ("import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
              "import numpy._core.umath\nx = np._core.multiarray\n"
              "y = np.linalg._umath_linalg.eigh(a)\nz = np.__version__\n"
              "from numpy import linalg as la\nw = la._umath_linalg\n"
              "v = a._private\nu = np.linalg.eigh(a).eigenvalues\n")
    assert sorted(private_numpy_uses(source)) == [
        (2, "numpy.linalg._umath_linalg"), (3, "numpy._core.umath"),
        (4, "np._core"), (5, "np.linalg._umath_linalg"),
        (8, "la._umath_linalg")]


def test_package_reaches_no_private_numpy_module():
    # numpy's underscore modules, such as numpy.linalg._umath_linalg, are
    # not its API and change between releases
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in private_numpy_uses(path.read_text())]
    if found:
        pytest.fail("\n".join(found))


def element_constructions(source):
    """Lines of each direct ``ConeElement(...)`` call in a source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name == "ConeElement":
                yield node.lineno


def test_element_constructions_are_found():
    source = ("a = ConeElement(c, b)\nb = cones.ConeElement(c, b)\n"
              "c = x.ConeElement\nd: ConeElement = e\nf = cone.element(b)\n")
    assert list(element_constructions(source)) == [1, 2]


def test_only_cones_constructs_elements():
    # an element keeps facts computed from its blocks, so every element must
    # come from Cone.element or element arithmetic, whose blocks are
    # read-only
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cones.py"
             for line in element_constructions(path.read_text())]
    if found:
        pytest.fail("\n".join(found))
