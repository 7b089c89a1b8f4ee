"""Inner solver for the convex subproblems.

Kelley cutting planes with an LP master over the box and affine rows: linear
underestimators of the objective (and of the single scalarized convex
constraint in constrained mode) accumulate until the certified gap between
the incumbent and the master lower bound drops below tolerance.  Master LPs
are solved by the dense simplex in :mod:`coneccp.lp`, each one warm started
from the previous master of the same loop.

One-dimensional subproblems take a bisection shortcut on the subgradient
sign change; it must agree with the general path within tolerance and is
what the analytic regression tests exercise.

A solver instance's mutable state is local to one call; distinct solves may
run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import InvariantViolation
from .feasible import FeasibleSet
from .subproblem import CONSTRAINED, LinearizedConstraint, SubproblemSpec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"

_LB_SLACK = 1e-7  # tolerance of the monotone-lower-bound check


@dataclass
class SolveReport:
    x_hat: np.ndarray | None
    objective_value: float
    constraint_violation: float
    gap_bound: float
    status: str
    certificate: float | None = None  # positive lower bound when infeasible
    cuts: int = 0


@dataclass
class SlaterProbe:
    holds: bool
    x_strict: np.ndarray | None
    min_value: float
    lower_bound: float
    status: str = OPTIMAL


def solve_convex(spec: SubproblemSpec, tol=1e-8, tol_feas=1e-8,
                 max_cuts=5000, feasible_hint=None,
                 force_general=False) -> SolveReport:
    """Epsilon-optimal minimization of a subproblem spec.

    Returns a point whose objective is within ``tol`` of the optimum and
    whose scalarized constraint is below ``tol_feas``; in constrained mode an
    empty feasible region is certified by a positive lower bound on the
    constraint minimum over the set.
    """
    if spec.feasible_set.dim == 1 and not force_general:
        return _solve_1d(spec, tol, tol_feas)
    return _solve_general(spec, tol, tol_feas, max_cuts, feasible_hint)


def slater_probe(constraint: LinearizedConstraint, fs: FeasibleSet,
                 tol=1e-8, max_cuts=5000) -> SlaterProbe:
    """Minimize the scalarized linearized constraint over the set.

    Holds (with a strictly feasible witness) when the minimum is below
    ``-tol``; otherwise Fails and carries the certified minimum.
    """
    if fs.dim == 1:
        lo, hi, empty = _bounds_1d(fs)
        if empty:
            return SlaterProbe(False, None, np.inf, np.inf)
        phi = lambda x: constraint.scalarized(np.array([x]))
        dphi = lambda x: float(constraint.scalarized_subgrad(np.array([x]))[0])
        xs, val, lbv = _bisect_min(phi, dphi, lo, hi)
        if val < -tol:
            return SlaterProbe(True, np.array([xs]), val, lbv)
        return SlaterProbe(False, None, val, lbv)
    best_x, best_val, lbv, status, _ = _kelley_min(
        lambda x: constraint.scalarized(x),
        lambda x: constraint.scalarized_subgrad(x),
        fs, tol, max_cuts, seeds=[fs.center()], stop_below=-2.0 * tol)
    if best_val < -tol:
        return SlaterProbe(True, best_x, best_val, lbv, status)
    return SlaterProbe(False, None, best_val, lbv, status)


# ---------------------------------------------------------------------------
# General path: Kelley cutting planes


class _Master:
    """The growing master LP of one Kelley loop: minimize the epigraph
    variable t over the set's affine rows and the cuts made so far.

    Rows are only ever appended, so each solve re-optimizes warm from the
    previous one; a new loop starts a fresh tableau.
    """

    def __init__(self, fs: FeasibleSet):
        self.lo = np.concatenate([fs.lo, [-np.inf]])
        self.hi = np.concatenate([fs.hi, [np.inf]])
        self.c = np.concatenate([np.zeros(fs.dim), [1.0]])
        self.rows = [np.append(a, 0.0) for a in fs.affine_A]
        self.rhs = [float(v) for v in fs.affine_b]
        self.n_affine = len(self.rows)
        self.state = None

    @property
    def cuts(self):
        return len(self.rows) - self.n_affine

    def cut(self, f, g, p, epigraph):
        """Add g'x - t <= g'p - f (an objective cut) when ``epigraph``,
        else g'x <= g'p - f (a constraint cut)."""
        self.rows.append(np.append(g, -1.0 if epigraph else 0.0))
        self.rhs.append(float(g @ p) - f)

    def solve(self):
        res = lp.solve_lp(self.c, np.array(self.rows), np.array(self.rhs),
                          self.lo, self.hi, warm=self.state)
        self.state = res.state
        return res


def _solve_general(spec, tol, tol_feas, max_cuts, feasible_hint):
    fs = spec.feasible_set
    d = fs.dim
    obj = spec.objective
    con = spec.constraint
    master = _Master(fs)
    con_points: list[np.ndarray] = []

    def add_point(x):
        f = obj.value(x)
        master.cut(f, obj.subgrad(x), x, epigraph=True)
        cv = 0.0
        if con is not None:
            cv = con.scalarized(x)
            master.cut(cv, con.scalarized_subgrad(x), x, epigraph=False)
            con_points.append(x)
        return f, cv

    seeds = [np.asarray(feasible_hint, dtype=float)] if feasible_hint is not None \
        else [fs.center()]
    incumbent = None  # (value, x, violation)
    for s in seeds:
        f, cv = add_point(s)
        if cv <= tol_feas:
            incumbent = (f, s, max(cv, 0.0))

    lb = -np.inf
    status = ITER_LIMIT
    while master.cuts < max_cuts:
        res = master.solve()
        if res.status == lp.INFEASIBLE:
            # Only the constraint cuts can exclude every box point, and each
            # underestimates the true constraint, so the problem is infeasible.
            return _certify_infeasible(spec, tol, tol_feas, max_cuts,
                                       con_points)
        if res.status != lp.OPTIMAL:
            break
        x_k = res.x[:d]
        r_k = res.value
        if r_k < lb - _LB_SLACK * (1.0 + abs(lb)):
            raise InvariantViolation(
                f"master lower bound decreased from {lb!r} to {r_k!r} as "
                f"cuts were added")
        lb = max(lb, r_k)

        f_k, cv_k = add_point(x_k)
        if cv_k <= tol_feas and (incumbent is None or f_k < incumbent[0]):
            incumbent = (f_k, x_k, max(cv_k, 0.0))
        if incumbent is not None and incumbent[0] - lb <= tol:
            status = OPTIMAL
            break
    else:
        status = ITER_LIMIT

    if incumbent is None:
        if con is not None:
            return _certify_infeasible(spec, tol, tol_feas, max_cuts,
                                       con_points)
        raise InvariantViolation(
            "penalized subproblem ended without an incumbent")
    value, x_best, viol = incumbent
    gap = max(value - lb, 0.0)
    if status != OPTIMAL and gap <= tol:
        status = OPTIMAL
    return SolveReport(x_best, value, viol, gap, status, cuts=master.cuts)


def _certify_infeasible(spec, tol, tol_feas, max_cuts, con_points):
    """Sharpen a positive lower bound on the constraint minimum over the set."""
    con = spec.constraint
    seeds = con_points[-4:] or [spec.feasible_set.center()]
    best_x, best_val, lbv, status, cuts = _kelley_min(
        lambda x: con.scalarized(x), lambda x: con.scalarized_subgrad(x),
        spec.feasible_set, min(tol, 1e-8), max_cuts, seeds=seeds)
    if best_val <= tol_feas:
        # The constraint minimum is attainable after all; report the point
        # as a feasible incumbent with unknown gap rather than mislabeling.
        return SolveReport(best_x, spec.objective.value(best_x),
                           max(best_val, 0.0), np.inf, ITER_LIMIT, cuts=cuts)
    return SolveReport(None, np.nan, best_val, np.nan, INFEASIBLE,
                       certificate=lbv, cuts=cuts)


def _kelley_min(value, subgrad, fs: FeasibleSet, tol, max_cuts, seeds,
                stop_below=None):
    """Cutting-plane minimization of one convex scalar function over fs.

    Returns (best_x, best_value, lower_bound, status, cuts).
    """
    d = fs.dim
    master = _Master(fs)
    best = None
    for s in seeds:
        s = np.asarray(s, dtype=float)
        f = value(s)
        master.cut(f, subgrad(s), s, epigraph=True)
        if best is None or f < best[0]:
            best = (f, s)
    lb = -np.inf
    status = ITER_LIMIT
    while master.cuts < max_cuts:
        if stop_below is not None and best[0] < stop_below:
            status = OPTIMAL
            break
        res = master.solve()
        if res.status != lp.OPTIMAL:
            break
        lb = max(lb, res.value)
        x_k = res.x[:d]
        f_k = value(x_k)
        master.cut(f_k, subgrad(x_k), x_k, epigraph=True)
        if f_k < best[0]:
            best = (f_k, x_k)
        if best[0] - lb <= tol:
            status = OPTIMAL
            break
    return best[1], best[0], lb, status, master.cuts


# ---------------------------------------------------------------------------
# One-dimensional specialization


def _bounds_1d(fs: FeasibleSet):
    lo, hi = float(fs.lo[0]), float(fs.hi[0])
    for a_row, b_val in zip(fs.affine_A, fs.affine_b):
        a = float(a_row[0])
        if a > 0:
            hi = min(hi, b_val / a)
        elif a < 0:
            lo = max(lo, b_val / a)
        elif b_val < 0:
            return lo, hi, True
    return lo, hi, lo > hi


def _bisect_min(f, df, lo, hi, iters=200):
    """Minimize a convex scalar function on [lo, hi] by subgradient bisection.

    Returns (x, f(x), certified lower bound).
    """
    glo = df(lo)
    if glo >= 0.0:
        return lo, f(lo), f(lo)
    ghi = df(hi)
    if ghi <= 0.0:
        return hi, f(hi), f(hi)
    a, b, ga, gb = lo, hi, glo, ghi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        gm = df(m)
        if gm < 0.0:
            a, ga = m, gm
        elif gm > 0.0:
            b, gb = m, gm
        else:
            fm = f(m)
            return m, fm, fm
    fa, fb = f(a), f(b)
    x = a if fa <= fb else b
    fx = min(fa, fb)
    # Lower bound from the two bracketing tangents.
    denom = gb - ga
    if denom > 0:
        xc = (fa - fb + gb * b - ga * a) / denom
        xc = min(max(xc, a), b)
        lbv = max(fa + ga * (xc - a), fb + gb * (xc - b))
        lbv = min(lbv, fx)
    else:
        lbv = fx
    return x, fx, lbv


def _solve_1d(spec: SubproblemSpec, tol, tol_feas) -> SolveReport:
    lo, hi, empty = _bounds_1d(spec.feasible_set)
    obj_f = lambda x: spec.objective.value(np.array([x]))
    obj_g = lambda x: float(spec.objective.subgrad(np.array([x]))[0])
    if empty:
        return SolveReport(None, np.nan, np.inf, np.nan, INFEASIBLE,
                           certificate=np.inf)

    if spec.mode == CONSTRAINED:
        con = spec.constraint
        phi = lambda x: con.scalarized(np.array([x]))
        dphi = lambda x: float(con.scalarized_subgrad(np.array([x]))[0])
        x_min, phi_min, phi_lb = _bisect_min(phi, dphi, lo, hi)
        if phi_min > tol_feas:
            return SolveReport(None, np.nan, phi_min, np.nan, INFEASIBLE,
                               certificate=max(phi_lb, 0.0))
        if phi_min > 0.0:
            a = b = x_min
        else:
            a = lo if phi(lo) <= 0.0 else _bisect_root(phi, lo, x_min)
            b = hi if phi(hi) <= 0.0 else _bisect_root(phi, hi, x_min)
        x, fx, lbv = _bisect_min(obj_f, obj_g, a, b)
        viol = max(phi(x), 0.0)
        return SolveReport(np.array([x]), fx, viol, max(fx - lbv, 0.0),
                           OPTIMAL)

    x, fx, lbv = _bisect_min(obj_f, obj_g, lo, hi)
    return SolveReport(np.array([x]), fx, 0.0, max(fx - lbv, 0.0), OPTIMAL)


def _bisect_root(phi, outside, inside, iters=200):
    """Boundary point of {phi <= 0} between an outside and an inside point."""
    for _ in range(iters):
        m = 0.5 * (outside + inside)
        if m == outside or m == inside:
            break
        if phi(m) <= 0.0:
            inside = m
        else:
            outside = m
    return inside
