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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dc import ComponentwiseDcMatrix, ScalarDcFunction, quadratic_oracle
from .errors import SchemaError
from .feasible import FeasibleSet
from .library import (ProblemInstance, _poly_oracle, builtin,
                      diagonal_componentwise, polynomial_constraint_map,
                      polynomial_nonconvexity, quadratic_componentwise,
                      quadratic_sdp)

KINDS = ("builtin", "quadratic_sdp", "scalar_dc_polynomial")


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
    doc = _read_source(source)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    with _schema_errors():
        if kind == "builtin":
            return _load_builtin(doc)
        if kind == "quadratic_sdp":
            return _load_quadratic(doc)[0]
        return _load_polynomial(doc)


def load_componentwise(source) -> tuple[ComponentwiseDcMatrix, FeasibleSet, str]:
    """Entrywise-DC matrix view of a problem file, for the eigenvalue split.

    Univariate polynomial problems (and the example29 builtin) become
    diagonal matrices of their constraint rows, certified convex as in
    :func:`load_problem`; quadratic instances are validated and split
    entrywise by curvature sign.
    """
    doc = _read_source(source)
    kind = doc.get("kind")
    if kind == "builtin" and doc.get("name") == "example29":
        doc = {"kind": "scalar_dc_polynomial", "name": "example29",
               "box": [[-10.0, 10.0]],
               "objective": {"g0": [0.25, -1.0, 1.0], "h0": [0.0]},
               "constraints": [{"G": [0.0, 0.0, 1.0],
                                "H": [0.0, 0.0, 0.0, 0.0, 1.0]}]}
        kind = "scalar_dc_polynomial"
    with _schema_errors():
        if kind == "scalar_dc_polynomial":
            inst = _load_polynomial(doc)
            rows = doc["constraints"]
            F = diagonal_componentwise([r["G"] for r in rows],
                                       [r["H"] for r in rows])
            return F, inst.feasible_set, inst.name
        if kind == "quadratic_sdp":
            inst, (C, B, A) = _load_quadratic(doc)
            return (quadratic_componentwise(C, B, A), inst.feasible_set,
                    inst.name)
    raise SchemaError(
        "entrywise decomposition needs a scalar_dc_polynomial or "
        "quadratic_sdp problem (or the example29 builtin)")


@contextmanager
def _schema_errors():
    """Report a ValueError raised while parsing as a schema violation."""
    try:
        yield
    except ValueError as exc:
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
    try:
        arr = np.asarray(raw, dtype=float).reshape(-1, 2)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"box must be a list of [lo, hi] pairs: {exc}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("box bounds must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise SchemaError("box has lo > hi")
    return FeasibleSet(arr[:, 0], arr[:, 1])


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


def _load_builtin(doc) -> ProblemInstance:
    name = _require(doc, "name", str)
    try:
        return builtin(name)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


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
    """The validated instance and its (C, B, A)."""
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
    mu = doc["constraint"].get("mu")
    inst = quadratic_sdp(C=C, B=B, A=A, objective=objective, mu=mu,
                         validate=False)
    # G and H add (mu/2)|x|^2 I, which must stay finite on the whole box
    if mu is None:
        mu = C.shape[0] * inst.known_facts["hessian_bound"]
    radius2 = sum(max(lo * lo, hi * hi)
                  for lo, hi in zip(fs.lo.tolist(), fs.hi.tolist()))
    if not math.isfinite(0.5 * mu * radius2):
        raise SchemaError(f"mu={mu!r} overflows (mu/2)|x|^2 on the box")
    inst = ProblemInstance(name=doc.get("name", "quadratic_sdp(file)"),
                           objective=inst.objective,
                           constraint=inst.constraint,
                           feasible_set=fs,
                           known_facts=doc.get("known_facts", {}))
    return inst, (C, B, A)


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


def _load_polynomial(doc) -> ProblemInstance:
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
    return ProblemInstance(
        name=doc.get("name", "scalar_dc_polynomial(file)"),
        objective=ScalarDcFunction(g0=g0, h0=h0, dim=1),
        constraint=polynomial_constraint_map(g_coeffs, h_coeffs),
        feasible_set=fs,
        known_facts=doc.get("known_facts", {}))
