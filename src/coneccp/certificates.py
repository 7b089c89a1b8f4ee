"""Computable optimality residuals at candidate points.

A feasible point is critical when it solves its own linearized subproblem,
so the criticality residual is the gap between the shifted objective at the
point and the subproblem optimum.  The KKT residuals test the multiplier
form of the same condition; the generalized residual does the analogous
comparison for the penalized subproblem at (possibly infeasible) points.
All residuals are computed for one supplied subgradient of the concave
objective part; oracles return single elements, never subdifferential sets.
Each function raises :class:`~coneccp.errors.ConeCcpError` for a point that
is not a finite vector of the problem's dimension; the criticality residuals
and :func:`certify` raise :class:`~coneccp.errors.InfeasibleStart` for one
outside the set A, box or affine rows, as the solvers do for a start there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inner
from .cones import (TOL_FEAS_POINT, ConeElement, dist_to_neg_cone,
                    eigenpairs, inner as cone_inner, project_pos)
from .errors import InfeasibleStart, InvariantViolation, SubproblemInfeasible
from .feasible import CONTAINS_TOL, as_point, point_of
from .subproblem import build_constrained, build_penalized, linearize_constraint

@dataclass
class KktResiduals:
    stationarity: float
    complementarity: float
    dual_feasibility: float

    def __iter__(self):
        return iter((self.stationarity, self.complementarity,
                     self.dual_feasibility))


@dataclass
class CriticalityCertificate:
    x: np.ndarray
    v: np.ndarray
    subproblem_gap: float
    kkt: KktResiduals | None
    slater: inner.SlaterProbe


def infeasibility(problem, x) -> float:
    """Distance from F(x) to the negated cone: zero exactly on feasible points."""
    x = as_point(x, problem.feasible_set.dim)
    return dist_to_neg_cone(problem.constraint.value(x))


def criticality_residual(problem, x, v=None) -> float:
    """Gap between x and the optimum of its own linearized subproblem.

    Nonnegative up to solver tolerance; at or below tolerance the point is
    critical for the supplied subgradient choice.  A negative gap is not
    checked: x may break its own linearization by up to ``TOL_FEAS_POINT``,
    and then lies outside its subproblem.
    """
    x = point_of(problem.feasible_set, x)
    if infeasibility(problem, x) > TOL_FEAS_POINT:
        raise InfeasibleStart("criticality residual needs a feasible point")
    if v is None:
        v = problem.objective.h0.subgrad(x)
    return _gap_at_base(build_constrained(problem, x, v))[0]


def generalized_criticality_residual(problem, x, tau, v=None) -> float:
    """Gap between (x, minimal slack) and the penalized subproblem optimum.

    Defined at points of A that violate the cone constraint as well; at or
    below tolerance the point is generalized-critical for penalty tau times
    the cone identity.  The subproblem is minimized over all of A, which
    holds x, so a gap below minus the solve's ``gap_bound`` and rounding
    raises :class:`InvariantViolation`.
    """
    x = point_of(problem.feasible_set, x)
    if v is None:
        v = problem.objective.h0.subgrad(x)
    gap, value, rep = _gap_at_base(build_penalized(problem, x, v, tau))
    if gap < -(rep.gap_bound + inner.SUBPROBLEM_TOL * (1.0 + abs(value))):
        raise InvariantViolation(
            f"penalized subproblem optimum {rep.objective_value} lies above "
            f"its value {value} at x")
    return gap


def _gap_at_base(spec):
    """The spec's objective at its base point minus the optimum of its solve,
    with that value and the solve's report."""
    rep = inner.solve_convex(spec, tol=inner.SUBPROBLEM_TOL)
    if rep.status == inner.INFEASIBLE:
        raise SubproblemInfeasible("subproblem infeasible at its base point")
    value = spec.objective.value(spec.lin.base_point)
    return float(value - rep.objective_value), value, rep


def kkt_residual(problem, x, v, lam: ConeElement) -> KktResiduals:
    """Multiplier-form residuals at (x, lam).

    stationarity: distance from v - (subgradient of g0) - (derivative of
    <lam, F>) to the normal cone of the box at x, measured coordinatewise
    (affine rows of the set are not modeled here).
    complementarity: |<lam, F(x)>|.
    dual feasibility: distance from lam to the cone.
    The pairing takes the eigenpairs (w, u) of lam's cone part with w > 0,
    as ``project_pos`` does; w = 0 weighs nothing, so skipping it is exact.
    """
    x = as_point(x, problem.feasible_set.dim)
    v = as_point(v, x.size)
    g0_sub = problem.objective.g0.subgrad(x)
    cmap = problem.constraint

    # Split lam into cone part (used for the derivative, keeping the pairing
    # convex) and report the residual of the split as dual infeasibility.
    lam_neg_part = project_pos(-lam)
    dual_feas = lam_neg_part.norm()
    lam_pos = lam + lam_neg_part

    d_pair = np.zeros(x.size)
    for k, w, vecs in eigenpairs(lam_pos):
        for idx in np.nonzero(w > 0.0)[0]:
            d_pair += w[idx] * cmap.G.quad_form_subgrad(x, k, vecs[:, idx])
    d_pair -= cmap.H.derivative(x).pair(lam_pos)

    r = v - g0_sub - d_pair
    fs = problem.feasible_set
    res = np.empty(x.size)
    for k in range(x.size):
        at_hi = x[k] >= fs.hi[k] - CONTAINS_TOL * (1.0 + abs(fs.hi[k]))
        at_lo = x[k] <= fs.lo[k] + CONTAINS_TOL * (1.0 + abs(fs.lo[k]))
        if at_hi and at_lo:
            res[k] = 0.0
        elif at_hi:
            res[k] = max(0.0, -r[k])
        elif at_lo:
            res[k] = max(0.0, r[k])
        else:
            res[k] = abs(r[k])
    stationarity = float(np.linalg.norm(res))

    fval = cmap.value(x)
    complementarity = abs(cone_inner(lam, fval))
    return KktResiduals(stationarity, complementarity, dual_feas)


def certify(problem, x, v=None, lam=None) -> CriticalityCertificate:
    """Assemble the certificate a solver run hands to a reviewer."""
    x = point_of(problem.feasible_set, x)
    if v is None:
        v = problem.objective.h0.subgrad(x)
    gap = criticality_residual(problem, x, v)
    kkt = kkt_residual(problem, x, v, lam) if lam is not None else None
    probe = inner.slater_probe(linearize_constraint(problem, x),
                               problem.feasible_set)
    return CriticalityCertificate(x, v, gap, kkt, probe)
