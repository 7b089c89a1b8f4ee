"""Problem-file loading and validation.

Files are JSON documents with a ``kind`` selector; see docs/problem-format.md
for the schema and annotated examples.  Validation failures raise
:class:`SchemaError` with a path-like message.

Loading certifies the convexity of every declared convex part exactly and
samples nothing: a ``quadratic_sdp`` constraint split by its regularization
bound, its objective parts by the eigenvalues of ``P``, and every polynomial
of a ``scalar_dc_polynomial`` file by
:func:`~coneccp.library.polynomial_nonconvexity` on the box.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dc import (ComponentwiseDcMatrix, ScalarDcFunction, quadratic_oracle,
                 regularized_dc_decomposition)
from .errors import ConeCcpError, SchemaError
from .feasible import FeasibleSet
from .library import (EXAMPLE29_G, EXAMPLE29_H, ProblemInstance,
                      _poly_oracle, builtin, diagonal_componentwise,
                      polynomial_constraint_map, polynomial_nonconvexity,
                      quadratic_componentwise, quadratic_hessian_bound,
                      quadratic_matrix_map)

KINDS = ("builtin", "quadratic_sdp", "scalar_dc_polynomial")

# the builtins with an entrywise-DC view, by name
_BUILTIN_VIEWS = {
    "example29": lambda: diagonal_componentwise([EXAMPLE29_G], [EXAMPLE29_H]),
}


def _read_source(source) -> dict:
    """The JSON object behind a problem source.

    A string whose first non-blank character is ``{`` is JSON text; any
    other string or a ``Path`` names a file; anything else is taken as the
    already-parsed document.
    """
    doc = source
    if isinstance(source, (str, Path)):
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            try:
                text = Path(source).read_text()
            except FileNotFoundError:
                raise SchemaError(f"problem file not found: {source}") from None
            except OSError as exc:
                raise SchemaError(f"cannot read problem file {source}: "
                                  f"{exc.strerror}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("problem file must be a JSON object")
    return doc


def load_problem(source) -> ProblemInstance:
    """Load an instance from a path, JSON string, or already-parsed dict."""
    return _load(source)[0]


def load_componentwise(source) -> tuple[ComponentwiseDcMatrix, FeasibleSet, str]:
    """Entrywise-DC matrix view of a problem file, for the eigenvalue split.

    Univariate polynomial problems (and the example29 builtin) become
    diagonal matrices of their constraint rows, certified convex as in
    :func:`load_problem`; quadratic instances are validated and split
    entrywise by curvature sign.
    """
    inst, view = _load(source)
    if view is None:
        raise SchemaError(
            "entrywise decomposition needs a scalar_dc_polynomial or "
            "quadratic_sdp problem (or the example29 builtin)")
    return view(), inst.feasible_set, inst.name


def _load(source):
    """The validated instance behind a source, and a function that builds
    its entrywise-DC view, or None when the problem has no such view."""
    doc = _read_source(source)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    with _schema_errors():
        if kind == "builtin":
            return _load_builtin(doc)
        if kind == "quadratic_sdp":
            return _load_quadratic(doc)
        return _load_polynomial(doc)


@contextmanager
def _schema_errors():
    """Report a library error raised while loading as a schema violation:
    a ValueError, or a ConeCcpError such as an unknown builtin, a box with
    lo > hi or a ``mu`` below its certified bound."""
    try:
        yield
    except SchemaError:
        raise
    except (ValueError, ConeCcpError) as exc:
        raise SchemaError(str(exc)) from exc


def _require(doc, key, typ, where="problem file"):
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = doc[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{where}: key {key!r} must be {typ}")
    return val


def _load_box(doc) -> FeasibleSet:
    raw = _require(doc, "box", list)
    shape = "box must be a non-empty list of [lo, hi] pairs"
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{shape}: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 2:
        raise SchemaError(f"{shape}, got shape {arr.shape}")
    # FeasibleSet rejects non-finite bounds and lo > hi
    return FeasibleSet(arr[:, 0], arr[:, 1])


def _known_facts(doc) -> dict:
    """The optional ``known_facts`` object; its ``multipliers``, if given,
    map points (as strings) to finite numbers."""
    facts = doc.get("known_facts", {})
    if not isinstance(facts, dict):
        raise SchemaError("known_facts must be an object")
    mults = facts.get("multipliers", {})
    if not isinstance(mults, dict):
        raise SchemaError("known_facts.multipliers must be an object")
    for key, val in mults.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Real) \
                or not math.isfinite(val):
            raise SchemaError(f"known_facts.multipliers[{key!r}] must be a "
                              f"finite number, got {val!r}")
    return facts


def _symmetric(raw, name, order=None):
    M = np.asarray(raw, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SchemaError(f"{name} must be a square matrix")
    if order is not None and M.shape[0] != order:
        raise SchemaError(f"{name} must have order {order}")
    if not np.all(np.isfinite(M)):
        raise SchemaError(f"{name} has non-finite entries")
    if np.max(np.abs(M - M.T)) > 1e-8 * (1.0 + np.max(np.abs(M))):
        raise SchemaError(f"{name} is not symmetric")
    return 0.5 * (M + M.T)


def _load_builtin(doc):
    name = _require(doc, "name", str)
    return builtin(name), _BUILTIN_VIEWS.get(name)


def _psd_quadratic(spec, dim, where):
    P = _symmetric(_require(spec, "P", list, where), f"{where}.P", dim)
    if float(np.linalg.eigvalsh(P)[0]) < -1e-8:
        raise SchemaError(f"{where}.P must be positive semidefinite")
    p = _finite(spec.get("p", np.zeros(dim)), f"{where}.p").reshape(-1)
    if p.size != dim:
        raise SchemaError(f"{where}.p must have length {dim}")
    c = _finite(spec.get("c", 0.0), f"{where}.c")
    if c.ndim != 0:
        raise SchemaError(f"{where}.c must be a number")
    return quadratic_oracle(P, p, float(c))


def _finite(raw, name) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{name} must be numeric") from None
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} must be finite")
    return arr


def _quadratic_constraint(doc, d):
    """The validated (C, B, A) of a quadratic_sdp constraint in d variables."""
    con = _require(doc, "constraint", dict)
    cone_desc = _require(doc, "cone", dict)
    if "psd" not in cone_desc:
        raise SchemaError("quadratic_sdp requires a {'psd': l} cone")
    order = cone_desc["psd"]
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise SchemaError(f"cone.psd must be a positive integer, got {order!r}")
    C = _symmetric(_require(con, "C", list, "constraint"), "constraint.C",
                   order)
    B_raw = _require(con, "B", list, "constraint")
    if len(B_raw) != d:
        raise SchemaError(f"constraint.B must list {d} matrices")
    B = np.array([_symmetric(Bi, f"constraint.B[{i}]", order)
                  for i, Bi in enumerate(B_raw)])
    A_raw = _require(con, "A", list, "constraint")
    if len(A_raw) != d or any(len(row) != d for row in A_raw):
        raise SchemaError(f"constraint.A must be a {d}x{d} grid of matrices")
    A = np.array([[_symmetric(A_raw[i][j], f"constraint.A[{i}][{j}]", order)
                   for j in range(d)] for i in range(d)])
    if np.max(np.abs(A - np.transpose(A, (1, 0, 2, 3)))) > 1e-8:
        raise SchemaError("constraint.A must satisfy A[i][j] == A[j][i]")
    return C, B, A


def _load_quadratic(doc):
    """The validated instance and its entrywise-DC view."""
    fs = _load_box(doc)
    d = fs.dim
    C, B, A = _quadratic_constraint(doc, d)
    obj = _require(doc, "objective", dict)
    objective = ScalarDcFunction(
        g0=_psd_quadratic(_require(obj, "g0", dict, "objective"), d,
                          "objective.g0"),
        h0=_psd_quadratic(_require(obj, "h0", dict, "objective"), d,
                          "objective.h0"),
        dim=d)
    constraint = regularized_dc_decomposition(
        quadratic_matrix_map(C, B, A),
        hessian_bound=quadratic_hessian_bound(A),
        mu=doc["constraint"].get("mu"), box=(fs.lo, fs.hi))
    inst = ProblemInstance(name=doc.get("name", "quadratic_sdp(file)"),
                           objective=objective,
                           constraint=constraint,
                           feasible_set=fs,
                           known_facts=_known_facts(doc))
    return inst, lambda: quadratic_componentwise(C, B, A)


def _coeffs(raw, where):
    arr = _finite(raw, where).reshape(-1)
    if arr.size == 0:
        raise SchemaError(f"{where} must be a nonempty list of finite "
                          "coefficients (ascending powers)")
    return arr


def _convex_coeffs(spec, key, where, fs):
    """The coefficients of spec[key], certified convex on the box."""
    c = _coeffs(_require(spec, key, list, where), f"{where}.{key}")
    defect = polynomial_nonconvexity(c, fs.lo[0], fs.hi[0])
    if defect is not None:
        t, curvature = defect
        raise SchemaError(f"{where}.{key} is not convex on the box: its "
                          f"second derivative is {curvature:.3e} at x = {t:.6g}")
    return c


def _load_polynomial(doc):
    """The validated instance and its entrywise-DC view."""
    fs = _load_box(doc)
    if fs.dim != 1:
        raise SchemaError("scalar_dc_polynomial is univariate: box needs "
                          "exactly one [lo, hi] pair")
    obj = _require(doc, "objective", dict)
    g0 = _poly_oracle(_convex_coeffs(obj, "g0", "objective", fs))
    h0 = _poly_oracle(_convex_coeffs(obj, "h0", "objective", fs))
    rows = _require(doc, "constraints", list)
    if not rows:
        raise SchemaError("constraints must list at least one row")
    g_coeffs, h_coeffs = [], []
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"constraints[{k}] must be an object")
        g_coeffs.append(_convex_coeffs(row, "G", f"constraints[{k}]", fs))
        h_coeffs.append(_convex_coeffs(row, "H", f"constraints[{k}]", fs))
    inst = ProblemInstance(
        name=doc.get("name", "scalar_dc_polynomial(file)"),
        objective=ScalarDcFunction(g0=g0, h0=h0, dim=1),
        constraint=polynomial_constraint_map(g_coeffs, h_coeffs),
        feasible_set=fs,
        known_facts=_known_facts(doc))
    return inst, lambda: diagonal_componentwise(g_coeffs, h_coeffs)
