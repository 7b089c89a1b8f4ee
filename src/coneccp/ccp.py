"""Convex-concave procedure: feasible-start outer loop.

Each iteration linearizes the concave parts at the current point, solves the
resulting convex subproblem, and stops at a fixed point (which is then a
critical point), on a small objective change, or on a small step when the
concave objective part is strongly convex.  Runtime checks enforce what the
theory guarantees along the way: every iterate stays feasible and the
objective strictly decreases until termination.

Both this loop and the penalty loop of :mod:`coneccp.penalty` return a
:class:`Trace` of :class:`Record` rows, one per iterate; the penalty fields of
a record (slack, its norm, penalty scale and merit) are None on a CCP run.

Runs are single threaded and deterministic given the oracles; independent
runs may proceed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inner
from .cones import TOL_FEAS, TOL_FEAS_POINT, ConeElement, dist_to_neg_cone
from .errors import (ConeCcpError, InfeasibleStart, InvariantViolation,
                     SubproblemInfeasible)
from .feasible import point_of
from .subproblem import build_constrained

CRITICAL_FIXED_POINT = "critical_fixed_point"
SMALL_OBJECTIVE_CHANGE = "small_objective_change"
SMALL_STEP = "small_step"
MAX_ITER = "max_iter"
# the inner solver stopped at its cut limit before certifying a subproblem
# optimum; its point is not taken as a step
INNER_ITER_LIMIT = "inner_iter_limit"

FIXED_POINT_RTOL = 1e-9  # inner solves are inexact; never test exact equality
SMALL_STEP_TOL = 1e-8  # step that ends a run with strongly convex h0
DESCENT_SLACK = 1e-8  # rounding allowance of the objective and merit tests


def is_fixed_point(step: float, x_new: np.ndarray) -> bool:
    """Whether a step of length ``step`` that ended at x_new stopped the run:
    at most ``FIXED_POINT_RTOL`` relative to |x_new|."""
    return step <= FIXED_POINT_RTOL * (1.0 + float(np.linalg.norm(x_new)))


def check_max_iter(max_iter) -> None:
    """Reject an outer iteration limit that is not a nonnegative integer."""
    if (isinstance(max_iter, bool) or not isinstance(max_iter, int)
            or max_iter < 0):
        raise ConeCcpError(
            f"max_iter must be a nonnegative integer, got {max_iter!r}")


@dataclass
class CcpConfig:
    eps_f: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not self.eps_f > 0:
            raise ConeCcpError("eps_f must be positive")
        check_max_iter(self.max_iter)


@dataclass
class Record:
    """One iterate of a CCP or penalty run.

    ``s``, ``s_norm``, ``tau`` and ``merit`` (the slack, its norm, the
    penalty scale and f0 + <tau e, s>) are None on a CCP run.
    """

    n: int
    x: np.ndarray
    f0: float
    infeas: float
    subproblem_status: str = "initial"
    s: ConeElement | None = None
    s_norm: float | None = None
    tau: float | None = None
    merit: float | None = None


@dataclass
class Trace:
    """The records of one run, one per iterate, and why the run stopped."""

    records: list[Record] = field(default_factory=list)
    termination: str = MAX_ITER

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    def jsonl_records(self) -> list[dict]:
        """One JSONL row per record; the last row's status is the
        termination reason."""
        last = len(self.records) - 1
        return [{"n": r.n, "x": [float(c) for c in r.x], "f0": r.f0,
                 "infeas": r.infeas, "s_norm": r.s_norm, "tau": r.tau,
                 "merit": r.merit,
                 "status": self.termination if k == last
                 else r.subproblem_status}
                for k, r in enumerate(self.records)]


def run_ccp(problem, x0, config: CcpConfig | None = None) -> Trace:
    """Run the convex-concave procedure from a feasible point.

    Raises :class:`ConeCcpError` when x0 is not a finite point of the
    problem's dimension, :class:`InfeasibleStart` when it is outside the
    set or violates the cone constraint beyond tolerance, and
    :class:`SubproblemInfeasible` if a subproblem turns out infeasible
    (impossible from a feasible start; it would indicate an oracle or
    solver defect).  A subproblem the inner solver leaves at its iteration
    limit ends the run with termination ``INNER_ITER_LIMIT`` at the last
    accepted iterate.
    """
    cfg = config or CcpConfig()
    x = point_of(problem.feasible_set, x0)
    infeas0 = dist_to_neg_cone(problem.constraint.value(x))
    if infeas0 > TOL_FEAS:
        raise InfeasibleStart(
            f"x0 violates the cone constraint by {infeas0:.3e}")

    f = problem.objective.f0(x)
    trace = Trace([Record(0, x, f, infeas0)])
    mu = problem.objective.strong_convexity_of_h
    for n in range(cfg.max_iter):
        v = problem.objective.h0.subgrad(x)
        spec = build_constrained(problem, x, v)
        # subproblems are solved ten times tighter than the stopping rule
        rep = inner.solve_convex(spec, tol=cfg.eps_f / 10.0, feasible_hint=x)
        if rep.status == inner.INFEASIBLE:
            raise SubproblemInfeasible(
                "subproblem infeasible despite a feasible base point")
        if rep.status == inner.ITER_LIMIT:
            trace.termination = INNER_ITER_LIMIT
            break
        x_new = rep.x_hat
        f_new = problem.objective.f0(x_new)
        infeas_new = dist_to_neg_cone(problem.constraint.value(x_new))
        trace.records.append(
            Record(n + 1, x_new, f_new, infeas_new, rep.status))
        if infeas_new > TOL_FEAS_POINT:
            raise InvariantViolation(
                f"iterate infeasibility {infeas_new:.3e} exceeds "
                f"{TOL_FEAS_POINT:g}")
        if f_new > f + DESCENT_SLACK * (1.0 + abs(f)):
            raise InvariantViolation(
                f"objective increased from {f} to {f_new}")
        step = float(np.linalg.norm(x_new - x))
        x, f_prev, f = x_new, f, f_new
        if is_fixed_point(step, x_new):
            trace.termination = CRITICAL_FIXED_POINT
            break
        if abs(f_prev - f) < cfg.eps_f:
            trace.termination = SMALL_OBJECTIVE_CHANGE
            break
        if mu > 0.0 and step < SMALL_STEP_TOL:
            trace.termination = SMALL_STEP
            break
    return trace


def check_strong_descent(trace: Trace, mu: float) -> bool:
    """Whether every step decreased f0 by at least (mu/2) step-size squared."""
    recs = trace.records
    for a, b in zip(recs, recs[1:]):
        drop = 0.5 * mu * float(np.sum((b.x - a.x) ** 2))
        if b.f0 > a.f0 - drop + DESCENT_SLACK * (1.0 + abs(a.f0)):
            return False
    return True
