"""Inner solver for the convex subproblems.

One Kelley cutting-plane engine, :func:`_kelley_min`, minimizes a convex
scalar function over the box and affine rows of a feasible set: linear
underestimators accumulate in an LP master until the certified gap between
the incumbent and the master lower bound drops below tolerance.  Given the
scalarized convex constraint of constrained mode, it cuts that constraint too
and takes only incumbents that satisfy it.  The same engine run on the
constraint alone gives the Slater probe and, when a subproblem's master LP
turns infeasible, the positive lower bound that certifies it.  Master LPs are
solved by the dense simplex in :mod:`coneccp.lp`, each one warm started from
the previous master of the same run.

One-dimensional subproblems take a shortcut: a safeguarded false-position
search brackets the sign change of the subgradient, and the boundary of the
constraint's sublevel set, down to adjacent floats.  It must agree with the
general path within tolerance and is what the analytic regression tests
exercise.

A solver instance's mutable state is local to one call; distinct solves may
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import InvariantViolation
from .feasible import FeasibleSet
from .subproblem import CONSTRAINED, LinearizedConstraint, SubproblemSpec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"

TOL_FEAS = 1e-8  # feasibility tolerance on constraint values
MAX_CUTS = 5000  # cuts one Kelley loop may make before ITER_LIMIT
_LB_SLACK = 1e-7  # tolerance of the monotone-lower-bound check
_BISECT_ITERS = 200  # steps of a 1-D search, and the halvings of its width


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


def solve_convex(spec: SubproblemSpec, tol=1e-8, tol_feas=TOL_FEAS,
                 max_cuts=MAX_CUTS, feasible_hint=None,
                 force_general=False) -> SolveReport:
    """Epsilon-optimal minimization of a subproblem spec.

    Returns a point whose objective is within ``tol`` of the optimum and
    whose scalarized constraint is below ``tol_feas``; in constrained mode an
    empty feasible region is certified by a positive lower bound on the
    constraint minimum over the set.  One-dimensional subproblems (unless
    ``force_general``) are bracketed down to adjacent floats whatever ``tol``
    is, and never end at ``ITER_LIMIT``.
    """
    if spec.feasible_set.dim == 1 and not force_general:
        return _solve_1d(spec, tol_feas)
    return _solve_general(spec, tol, tol_feas, max_cuts, feasible_hint)


def slater_probe(constraint: LinearizedConstraint,
                 fs: FeasibleSet) -> SlaterProbe:
    """Minimize the scalarized linearized constraint over the set.

    Holds (with a strictly feasible witness) when the minimum is below
    ``-TOL_FEAS``; otherwise Fails and carries the certified minimum.
    """
    if fs.dim == 1:
        lo, hi, empty = _bounds_1d(fs)
        if empty:
            return SlaterProbe(False, None, np.inf, np.inf)
        xs, val, lbv = _bisect_min(
            *_scalar(constraint.scalarized, constraint.scalarized_subgrad),
            lo, hi)
        if val < -TOL_FEAS:
            return SlaterProbe(True, np.array([xs]), val, lbv)
        return SlaterProbe(False, None, val, lbv)
    run = _kelley_min(constraint.scalarized, constraint.scalarized_subgrad,
                      fs, TOL_FEAS, MAX_CUTS, seeds=[fs.center()],
                      stop_below=-2.0 * TOL_FEAS)
    if run.value < -TOL_FEAS:
        return SlaterProbe(True, run.x, run.value, run.lower_bound, run.status)
    return SlaterProbe(False, None, run.value, run.lower_bound, run.status)


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


class _KelleyRun(NamedTuple):
    """One cutting-plane run; the benchmark's tracer reads ``cuts`` as [4]."""

    x: np.ndarray | None  # incumbent, None when no point met the constraint
    value: float
    lower_bound: float
    status: str
    cuts: int
    violation: float
    points: list  # every point cut at, in order


def _kelley_min(value, subgrad, fs: FeasibleSet, tol, max_cuts, seeds,
                stop_below=None, constraint=None, tol_feas=0.0) -> _KelleyRun:
    """Cutting-plane minimization of one convex scalar function over fs.

    With a scalarized ``constraint`` every point also yields a constraint
    cut, and only points where the constraint is at most ``tol_feas`` become
    incumbents.  Ends OPTIMAL once the incumbent is within ``tol`` of the
    master lower bound or below ``stop_below``, INFEASIBLE when the cuts
    exclude every point of fs, ITER_LIMIT otherwise.
    """
    master = _Master(fs)
    points: list[np.ndarray] = []
    best = None  # (value, x, violation)

    def visit(x):
        nonlocal best
        f = value(x)
        master.cut(f, subgrad(x), x, epigraph=True)
        cv = 0.0
        if constraint is not None:
            cv = constraint.scalarized(x)
            master.cut(cv, constraint.scalarized_subgrad(x), x, epigraph=False)
        points.append(x)
        if cv <= tol_feas and (best is None or f < best[0]):
            best = (f, x, max(cv, 0.0))

    for s in seeds:
        visit(np.asarray(s, dtype=float))
    lb = -np.inf
    status = ITER_LIMIT
    while master.cuts < max_cuts:
        if stop_below is not None and best is not None and best[0] < stop_below:
            status = OPTIMAL
            break
        res = master.solve()
        if res.status == lp.INFEASIBLE:
            status = INFEASIBLE
            break
        if res.status != lp.OPTIMAL:
            break
        if res.value < lb - _LB_SLACK * (1.0 + abs(lb)):
            raise InvariantViolation(
                f"master lower bound decreased from {lb!r} to {res.value!r} "
                f"as cuts were added")
        lb = max(lb, res.value)
        visit(res.x[:fs.dim])
        if best is not None and best[0] - lb <= tol:
            status = OPTIMAL
            break
    f, x, viol = best if best is not None else (np.inf, None, np.inf)
    return _KelleyRun(x, f, lb, status, master.cuts, viol, points)


def _solve_general(spec, tol, tol_feas, max_cuts, feasible_hint):
    fs = spec.feasible_set
    con = spec.constraint
    seed = fs.center() if feasible_hint is None else feasible_hint
    run = _kelley_min(spec.objective.value, spec.objective.subgrad, fs, tol,
                      max_cuts, [seed], constraint=con, tol_feas=tol_feas)
    if run.status != INFEASIBLE and run.x is not None:
        return SolveReport(run.x, run.value, run.violation,
                           max(run.value - run.lower_bound, 0.0), run.status,
                           cuts=run.cuts)
    if con is None:
        raise InvariantViolation(
            "penalized subproblem: the master LP excludes every point of a "
            "nonempty set")
    # Each constraint cut underestimates the constraint, so the set holds no
    # feasible point; sharpen a positive lower bound on the constraint
    # minimum over the set, starting from the last constraint points.
    cert = _kelley_min(con.scalarized, con.scalarized_subgrad, fs,
                       min(tol, 1e-8), max_cuts, seeds=run.points[-4:])
    cuts = run.cuts + cert.cuts
    if cert.value <= tol_feas:
        # The constraint minimum is attainable after all; report the point
        # as a feasible incumbent with unknown gap rather than mislabeling.
        return SolveReport(cert.x, spec.objective.value(cert.x),
                           max(cert.value, 0.0), np.inf, ITER_LIMIT, cuts=cuts)
    return SolveReport(None, np.nan, cert.value, np.nan, INFEASIBLE,
                       certificate=cert.lower_bound, cuts=cuts)


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


def _bracket(fn, a, fa, b, fb, stop_at_zero):
    """Shrink a bracket [a, b] or [b, a] of a sign change of fn, fa <= 0 < fb.

    Steps are Illinois false position (Dowell & Jarratt, BIT 11, 1971): the
    secant root of the end values, where an end kept twice running has its
    value halved.  A step is a midpoint instead whenever the steps so far
    have not halved the bracket twice per three steps, so after n steps it
    is at most 2**-(2n // 3) of its first width; after a midpoint the
    secant starts afresh from the end values.  An estimate that rounds
    onto an end steps one float into the bracket, or as far as the bracket
    width bisection has at its cap if that is farther.

    Stops where bisection stops: at adjacent floats, at the width of
    ``_BISECT_ITERS`` halvings, after ``_BISECT_ITERS`` steps, or, when
    ``stop_at_zero``, at an exact zero of fn, returned as both ends.  So a
    boundary at 0.0 below which fn underflows to zero is found at 0.0, as
    bisection finds it, not at a denormal.  Returns the final
    (a, fa, b, fb), with fa <= 0 < fb as on entry.
    """
    width = abs(b - a)
    res = width * 2.0 ** -_BISECT_ITERS
    wa, wb = fa, fb  # the end values the secant uses
    kept = 0  # +1 after a step moved a, -1 after one moved b
    for n in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        if m == a or m == b or abs(b - a) <= res:
            break
        # denormal end values can both halve to zero, leaving no secant
        if abs(b - a) > math.ldexp(width, -(2 * n // 3)) or wa == wb:
            x = m
        else:
            x = a + (b - a) * (wa / (wa - wb))
            toward_b, toward_a = math.nextafter(a, b), math.nextafter(b, a)
            if a < b:
                x = min(max(x, toward_b, a + res), toward_a, b - res)
            else:
                x = max(min(x, toward_b, a - res), toward_a, b + res)
        fx = fn(x)
        if fx == 0.0 and stop_at_zero:
            return x, fx, x, fx
        if fx <= 0.0:
            if kept == 1:
                wb *= 0.5
            a, fa, wa, kept = x, fx, fx, 1
        else:
            if kept == -1:
                wa *= 0.5
            b, fb, wb, kept = x, fx, fx, -1
        if x == m:  # the secant starts afresh after a midpoint
            wa, wb, kept = fa, fb, 0
    return a, fa, b, fb


def _bisect_min(f, df, lo, hi):
    """Minimize a convex scalar function on [lo, hi] by bracketing the sign
    change of its subgradient down to adjacent floats.

    Returns (x, f(x), certified lower bound).
    """
    glo = df(lo)
    if glo >= 0.0:
        flo = f(lo)
        return lo, flo, flo
    ghi = df(hi)
    if ghi <= 0.0:
        fhi = f(hi)
        return hi, fhi, fhi
    a, ga, b, gb = _bracket(df, lo, glo, hi, ghi, stop_at_zero=True)
    if ga == 0.0:
        fm = f(a)
        return a, fm, fm
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


def _scalar(value, subgrad):
    """A function on R^1 and its derivative, as functions of a float."""
    return (lambda x: value(np.array([x])),
            lambda x: float(subgrad(np.array([x]))[0]))


def _solve_1d(spec: SubproblemSpec, tol_feas) -> SolveReport:
    """A one-dimensional subproblem by bracketing, down to adjacent floats:
    the constraint's minimum first (infeasible when above ``tol_feas``),
    then the two ends of {constraint <= 0} around it, then the objective's
    minimum between them."""
    lo, hi, empty = _bounds_1d(spec.feasible_set)
    obj = _scalar(spec.objective.value, spec.objective.subgrad)
    if empty:
        return SolveReport(None, np.nan, np.inf, np.nan, INFEASIBLE,
                           certificate=np.inf)

    if spec.mode == CONSTRAINED:
        con = spec.constraint
        phi, dphi = _scalar(con.scalarized, con.scalarized_subgrad)
        x_min, phi_min, phi_lb = _bisect_min(phi, dphi, lo, hi)
        if phi_min > tol_feas:
            return SolveReport(None, np.nan, phi_min, np.nan, INFEASIBLE,
                               certificate=max(phi_lb, 0.0))
        if phi_min > 0.0:
            a = b = x_min
        else:
            a = _bisect_root(phi, lo, x_min, phi_min)
            b = _bisect_root(phi, hi, x_min, phi_min)
        x, fx, lbv = _bisect_min(*obj, a, b)
        viol = max(phi(x), 0.0)
        return SolveReport(np.array([x]), fx, viol, max(fx - lbv, 0.0),
                           OPTIMAL)

    x, fx, lbv = _bisect_min(*obj, lo, hi)
    return SolveReport(np.array([x]), fx, 0.0, max(fx - lbv, 0.0), OPTIMAL)


def _bisect_root(phi, outside, inside, phi_in):
    """The point of {phi <= 0} farthest from ``inside`` toward ``outside``,
    given phi_in = phi(inside) <= 0: ``outside`` itself when phi <= 0 there,
    else a point with phi <= 0 next to one with phi > 0."""
    phi_out = phi(outside)
    if phi_out <= 0.0:
        return outside
    return _bracket(phi, inside, phi_in, outside, phi_out,
                    stop_at_zero=False)[0]
