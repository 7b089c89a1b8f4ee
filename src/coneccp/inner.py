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

One-dimensional subproblems take a shortcut: a safeguarded search on the
end tangents brackets the minimizer until the certified gap closes, at the
latest at adjacent floats, and a safeguarded false-position search brackets
the boundary of the constraint's sublevel set down to adjacent floats.  A
constrained search starts from a feasible point, the subproblem's base point
when it is one, where the objective's subgradient tells on which side the
minimizer lies, and searches only the boundary on that side.  It must agree
with the general path within tolerance and is what the analytic regression
tests exercise.

A solver instance's mutable state is local to one call; distinct solves may
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .cones import TOL_FEAS
from .errors import InvariantViolation
from .feasible import FeasibleSet
from .subproblem import LinearizedConstraint, SubproblemSpec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"

# optimality tolerance of the penalized and certificate subproblem solves
SUBPROBLEM_TOL = 1e-9
MAX_CUTS = 5000  # cuts one Kelley loop may make before ITER_LIMIT
_LB_SLACK = 1e-7  # tolerance of the monotone-lower-bound check
_BISECT_ITERS = 200  # steps of a 1-D search, and the halvings of its width
# scale of a boundary search's truncated steps (_boundary); on the 1-D
# workloads 0.01 to 0.05 take the same linearizations to within 1 %, 0.1
# and 0.2 take 2 % more
_TRUNCATION = 0.05


@dataclass
class SolveReport:
    x_hat: np.ndarray | None
    objective_value: float
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


def solve_convex(spec: SubproblemSpec, tol=1e-8) -> SolveReport:
    """Epsilon-optimal minimization of a subproblem spec.

    Returns a point whose objective is within ``tol`` of the optimum and
    whose scalarized constraint is at most ``TOL_FEAS``; in constrained mode
    an empty feasible region is certified by a positive lower bound on the
    constraint minimum over the set.  A Kelley loop that makes ``MAX_CUTS``
    cuts ends at ``ITER_LIMIT``.  One-dimensional subproblems are bracketed
    until the certified gap closes, at the latest at adjacent floats,
    whatever ``tol`` is, and never end at ``ITER_LIMIT``.

    One-dimensional lower bounds (``gap_bound`` and the infeasibility
    ``certificate``) hold for the oracles as computed, with 4 ulps left for
    rounding between nearby floats, also where the computed constraint is
    <= 0 again past the boundary found; rounding inside the oracles
    themselves, such as an ``eigh``'s backward error, is outside the
    certificate.

    A solve starts at its linearization's base point when that lies in the
    set.  The Kelley loop makes its first cut there instead of at the set's
    center.  A one-dimensional constrained search starts there when it is
    in [lo, hi] after the affine rows and meets the constraint, and then
    runs no minimization of the constraint.
    """
    if spec.feasible_set.dim == 1:
        return _solve_1d(spec)
    return _solve_general(spec, tol)


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
                      fs, TOL_FEAS, seeds=[fs.center()],
                      stop_below=-2.0 * TOL_FEAS)
    if run.value < -TOL_FEAS:
        return SlaterProbe(True, run.x, run.value, run.lower_bound, run.status)
    return SlaterProbe(False, None, run.value, run.lower_bound, run.status)


# ---------------------------------------------------------------------------
# General path: Kelley cutting planes


class _Master:
    """The growing master LP of one Kelley loop: minimize the epigraph
    variable t over the set's affine rows and the cuts made so far.

    The rows live in preallocated buffers (``lp.ROOM`` spare rows, doubled
    when full); a cut is written into the next free row.  Rows are only ever
    appended, so each solve passes the prefix views ``A[:m], b[:m]`` and
    re-optimizes warm, in place, from the previous solve's state, which the
    master alone holds; a new loop starts a fresh tableau.
    """

    def __init__(self, fs: FeasibleSet):
        self.lo = np.concatenate([fs.lo, [-np.inf]])
        self.hi = np.concatenate([fs.hi, [np.inf]])
        self.c = np.concatenate([np.zeros(fs.dim), [1.0]])
        self.m = self.n_affine = len(fs.affine_b)
        self.A = np.zeros((self.m + lp.ROOM, fs.dim + 1))
        self.b = np.zeros(self.m + lp.ROOM)
        self.A[:self.m, :-1] = fs.affine_A
        self.b[:self.m] = fs.affine_b
        self.state = None

    @property
    def cuts(self):
        return self.m - self.n_affine

    def cut(self, f, g, p, epigraph):
        """Add g'x - t <= g'p - f (an objective cut) when ``epigraph``,
        else g'x <= g'p - f (a constraint cut)."""
        m = self.m
        if m == self.b.size:
            A = np.zeros((2 * m, self.A.shape[1]))
            b = np.zeros(2 * m)
            A[:m], b[:m] = self.A, self.b
            self.A, self.b = A, b
            if self.state is not None:
                self.state.rebase(A, b)
        self.A[m, :-1] = g
        self.A[m, -1] = -1.0 if epigraph else 0.0
        self.b[m] = float(g @ p) - f
        self.m = m + 1

    def solve(self):
        res = lp.solve_lp(self.c, self.A[:self.m], self.b[:self.m],
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
    points: list  # every point cut at, in order


def _kelley_min(value, subgrad, fs: FeasibleSet, tol, seeds,
                stop_below=None, constraint=None) -> _KelleyRun:
    """Cutting-plane minimization of one convex scalar function over fs.

    With a scalarized ``constraint`` every point also yields a constraint
    cut, and only points where the constraint is at most ``TOL_FEAS`` become
    incumbents.  Ends OPTIMAL once the incumbent is within ``tol`` of the
    master lower bound or below ``stop_below``, INFEASIBLE when the cuts
    exclude every point of fs, ITER_LIMIT after ``MAX_CUTS`` cuts.
    """
    master = _Master(fs)
    points: list[np.ndarray] = []
    best = None  # (value, x)

    def visit(x):
        nonlocal best
        f = value(x)
        master.cut(f, subgrad(x), x, epigraph=True)
        cv = 0.0
        if constraint is not None:
            cv = constraint.scalarized(x)
            master.cut(cv, constraint.scalarized_subgrad(x), x, epigraph=False)
        points.append(x)
        if cv <= TOL_FEAS and (best is None or f < best[0]):
            best = (f, x)

    for s in seeds:
        visit(np.asarray(s, dtype=float))
    lb = -np.inf
    status = ITER_LIMIT
    while master.cuts < MAX_CUTS:
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
    f, x = best if best is not None else (np.inf, None)
    return _KelleyRun(x, f, lb, status, master.cuts, points)


def _solve_general(spec, tol):
    fs = spec.feasible_set
    con = spec.constraint
    seed = (spec.lin.base_point if spec.lin is not None
            and fs.contains(spec.lin.base_point) else fs.center())
    run = _kelley_min(spec.objective.value, spec.objective.subgrad, fs, tol,
                      [seed], constraint=con)
    if run.status != INFEASIBLE and run.x is not None:
        return SolveReport(run.x, run.value,
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
                       min(tol, TOL_FEAS), seeds=run.points[-4:])
    cuts = run.cuts + cert.cuts
    if cert.value <= TOL_FEAS:
        # The constraint minimum is attainable after all; report the point
        # as a feasible incumbent with unknown gap rather than mislabeling.
        return SolveReport(cert.x, spec.objective.value(cert.x), np.inf,
                           ITER_LIMIT, cuts=cuts)
    return SolveReport(None, np.nan, np.nan, INFEASIBLE,
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


def _boundary(phi, inside, phi_in, outside):
    """The point of {phi <= 0} farthest from ``inside`` toward ``outside``,
    for a convex phi with phi_in = phi(inside) <= 0: ``outside`` itself when
    phi <= 0 there, else a point with phi <= 0 next to one with phi > 0.

    The search keeps a bracket of the boundary, its inside end a with
    phi(a) <= 0 and its outside end b with phi(b) > 0, and steps by false
    position: to the secant root of the two end values.  On a convex phi
    every secant root lands inside, so the outside end would move by
    midpoints alone; each step after the first is therefore truncated as in
    the ITP method (Oliveira & Takahashi, ACM TOMS 47, 2020): it moves from
    the secant root toward the midpoint by ITP's kappa1 |b - a|**2, with
    kappa1 ``_TRUNCATION`` over the first width so that the constant is
    unitless, or to the midpoint if that is nearer.  Near the boundary that
    lands it outside, so the bracket shrinks from both ends.  The first step
    is a plain secant step, so a search whose inside end already lies on the
    boundary, as at a fixed point of the outer loop, lands there and ends
    after two evaluations.  A step is a midpoint instead whenever the steps
    so far have not halved the bracket twice per three steps, so after n
    steps it is at most 2**-(2n // 3) of its first width.  An estimate that
    rounds onto an end steps one float into the bracket, or as far as the
    bracket width bisection has at its cap if that is farther.

    Stops where bisection stops: at adjacent floats, at the width of
    ``_BISECT_ITERS`` halvings or after ``_BISECT_ITERS`` steps.  So a
    boundary at 0.0 below which phi underflows to zero is found at 0.0, as
    bisection finds it, not at a denormal.  Returns the final inside end.
    """
    phi_out = phi(outside)
    if phi_out <= 0.0:
        return outside
    a, fa, b, fb = inside, phi_in, outside, phi_out
    width = abs(b - a)
    res = width * 2.0 ** -_BISECT_ITERS
    for n in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        if m == a or m == b or abs(b - a) <= res:
            break
        if abs(b - a) > math.ldexp(width, -(2 * n // 3)):
            x = m
        else:
            x = a + (b - a) * (fa / (fa - fb))
            if n:
                delta = _TRUNCATION * abs(b - a) * (abs(b - a) / width)
                x = x + math.copysign(delta, m - x) if delta < abs(m - x) else m
            toward_b, toward_a = math.nextafter(a, b), math.nextafter(b, a)
            if a < b:
                x = min(max(x, toward_b, a + res), toward_a, b - res)
            else:
                x = max(min(x, toward_b, a - res), toward_a, b + res)
        fx = phi(x)
        if fx <= 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a


def _bisect_min(f, df, lo, hi):
    """Minimize a convex scalar function on [lo, hi] until the certified gap
    closes, at the latest at adjacent floats.

    The search keeps a bracket a < b of the minimizer, with f' < 0 at a and
    f' > 0 at b, and f and f' at both ends.  At a float xc near where the
    two end tangents meet, the smaller tangent value bounds f from below on
    [lo, hi], however xc was rounded; the larger would overstate the bound
    by the slope times that rounding, many ulps of f at a steep kink.  Steps
    go, in alternation, to xc, a one-dimensional Kelley step (Kelley, J.
    SIAM 8, 1960) that lands on a kink, and to the secant root of f'.  A
    step is a midpoint instead whenever the steps so far have not halved
    the bracket twice per three steps.  An estimate that rounds onto
    an end steps one float into the bracket, or as far as the bracket width
    bisection has at its cap if that is farther.  The search stops once the
    tangents' bound reaches the best value found, at an exact zero of f',
    at adjacent floats, at the width of ``_BISECT_ITERS`` halvings or after
    ``_BISECT_ITERS`` steps.

    Returns (x, f(x), lower bound), x the best point found.  The bound is
    certified for f as the oracle computes it: it leaves 4 ulps of max(|f|
    at the ends and at x, 1) for the computed f to dip lower at nearby
    floats.  Rounding inside the oracle beyond that is outside the
    certificate.
    """
    ga, fa = df(lo), f(lo)
    if ga >= 0.0:
        return lo, fa, fa - _rounding_margin(fa)
    gb, fb = df(hi), f(hi)
    if gb <= 0.0:
        return hi, fb, fb - _rounding_margin(fb)
    a, b = lo, hi
    x, fx = (a, fa) if fa <= fb else (b, fb)
    width = b - a
    res = width * 2.0 ** -_BISECT_ITERS
    kelley = True  # the next estimate is the tangents' meeting point
    for n in range(_BISECT_ITERS + 1):
        # the smaller tangent value at any point bounds f on [a, b], and f is
        # at least fa left of a and fb right of b
        xc = min(max(a + (fa - fb + gb * (b - a)) / (gb - ga), a), b)
        lbv = min(fa + ga * (xc - a), fb + gb * (xc - b))
        m = 0.5 * (a + b)
        if (lbv >= fx or m == a or m == b or b - a <= res
                or n == _BISECT_ITERS):
            break
        if b - a > math.ldexp(width, -(2 * n // 3)):
            t = m
        else:
            t = xc if kelley else a + (b - a) * (ga / (ga - gb))
            kelley = not kelley
            t = min(max(t, math.nextafter(a, b), a + res),
                    math.nextafter(b, a), b - res)
        gt, ft = df(t), f(t)
        if ft < fx:
            x, fx = t, ft
        if gt == 0.0:
            lbv = ft
            break
        if gt < 0.0:
            a, fa, ga = t, ft, gt
        else:
            b, fb, gb = t, ft, gt
    return x, fx, min(lbv, fx) - _rounding_margin(fa, fb, fx)


def _rounding_margin(*values):
    """4 ulps of the largest of 1 and |values|."""
    return 4.0 * math.ulp(max(1.0, *map(abs, values)))


def _scalar(value, subgrad):
    """A function on R^1 and its derivative, as functions of a float."""
    return (lambda x: value(np.array([x])),
            lambda x: float(subgrad(np.array([x]))[0]))


def _solve_1d(spec: SubproblemSpec) -> SolveReport:
    """A one-dimensional subproblem by bracketing, until the certified gap
    closes, at the latest at adjacent floats.

    In constrained mode the search starts from a point c of
    {constraint <= 0}: the base point when it lies in [lo, hi] and meets
    the constraint, else the constraint's minimum (infeasible when above
    ``TOL_FEAS``).  A convex objective has f(x) >= f(c) + g (x - c) for its
    subgradient g at c, so only the end of {constraint <= 0} on the side
    where g descends is searched for, both ends when g is zero or NaN, and
    the objective is minimized between that end and c.  Where the minimum
    lies on an end found by that search, the lower bound reaches past it as
    far as the computed constraint may still be <= 0 (:func:`_beyond`), so
    it holds for {constraint <= 0} as computed, not for the end alone.
    """
    lo, hi, empty = _bounds_1d(spec.feasible_set)
    if empty:
        return SolveReport(None, np.nan, np.nan, INFEASIBLE,
                           certificate=np.inf)

    a, b = lo, hi
    f, df = _scalar(spec.objective.value, spec.objective.subgrad)
    con = spec.constraint
    if con is not None:
        phi, dphi = _scalar(con.scalarized, con.scalarized_subgrad)
        phi_c = np.nan
        if spec.lin is not None:
            c = float(spec.lin.base_point[0])
            if lo <= c <= hi:
                phi_c = phi(c)
        if not phi_c <= 0.0:
            c, phi_c, phi_lb = _bisect_min(phi, dphi, lo, hi)
            if phi_c > TOL_FEAS:
                return SolveReport(None, np.nan, np.nan, INFEASIBLE,
                                   certificate=max(phi_lb, 0.0))
        if phi_c > 0.0:
            a = b = c
        else:
            g = df(c)
            a = c if g < 0.0 else _boundary(phi, c, phi_c, lo)
            b = c if g > 0.0 else _boundary(phi, c, phi_c, hi)
    x, fx, lbv = _bisect_min(f, df, a, b)
    if con is not None and phi_c <= 0.0 and x in (a, b):
        g = df(x)
        for end, edge in ((a, lo), (b, hi)):
            slope = g * math.copysign(1.0, edge - end)
            if x == end and slope < 0.0:
                lbv += slope * _beyond(phi, dphi, end, edge)
    return SolveReport(np.array([x]), fx, max(fx - lbv, 0.0), OPTIMAL)


def _beyond(phi, dphi, end, edge):
    """How far past a boundary point ``end`` of {phi <= 0}, toward ``edge``,
    the computed phi may still be <= 0.

    The 1-D bounds take phi to be computed to a margin of 4 ulps of the
    largest of 1 and |phi|.  A computed phi(t) <= 0 then means the exact
    phi(t) is at most that margin, and the exact phi, convex, lies above
    its tangent at ``end``.  So t is at most (2 margin - phi(end)) / slope
    past ``end``, the slope taken toward ``edge``; when that slope is not
    positive, any point up to ``edge`` may be."""
    room = abs(edge - end)
    slope = dphi(end) * math.copysign(1.0, edge - end)
    if slope > 0.0:
        phi_end = phi(end)
        room = min(room, (2.0 * _rounding_margin(phi_end) - phi_end) / slope)
    return room
