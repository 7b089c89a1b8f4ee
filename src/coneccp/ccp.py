"""Convex-concave procedure: feasible-start outer loop.

Each iteration linearizes the concave parts at the current point, solves the
resulting convex subproblem, and stops at a fixed point (which is then a
critical point), on a small objective change, or on a small step when the
concave objective part is strongly convex.  Runtime checks enforce what the
theory guarantees along the way: every iterate stays feasible and the
objective strictly decreases until termination.

Runs are single threaded and deterministic given the oracles; independent
runs may proceed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inner
from .cones import dist_to_neg_cone
from .errors import (ConeCcpError, InfeasibleStart, InvariantViolation,
                     SubproblemInfeasible)
from .subproblem import build_constrained

CRITICAL_FIXED_POINT = "critical_fixed_point"
SMALL_OBJECTIVE_CHANGE = "small_objective_change"
SMALL_STEP = "small_step"
MAX_ITER = "max_iter"
# the inner solver stopped at its cut limit before certifying a subproblem
# optimum; its point is not taken as a step
INNER_ITER_LIMIT = "inner_iter_limit"

FIXED_POINT_RTOL = 1e-9  # inner solves are inexact; never test exact equality
DESCENT_SLACK = 1e-8


@dataclass
class CcpConfig:
    eps_f: float = 1e-8
    eps_x: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not (self.eps_f > 0 and self.eps_x > 0):
            raise ConeCcpError("eps_f and eps_x must be positive")


@dataclass
class CcpRecord:
    n: int
    x: np.ndarray
    f0: float
    infeas: float
    v: np.ndarray | None = None
    subproblem_status: str = "initial"


@dataclass
class IterationTrace:
    records: list[CcpRecord] = field(default_factory=list)
    termination: str = MAX_ITER

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    def jsonl_records(self) -> list[dict]:
        return jsonl_records(self)


def jsonl_records(trace) -> list[dict]:
    """One JSONL row per record of a CCP or penalty trace.

    The last row's status is the termination reason.  CCP records carry no
    slack, penalty or merit, so their rows hold null there.
    """
    last = len(trace.records) - 1
    return [{"n": r.n, "x": [float(c) for c in r.x], "f0": r.f0,
             "infeas": r.infeas, "s_norm": getattr(r, "s_norm", None),
             "tau": getattr(r, "tau", None), "merit": getattr(r, "merit", None),
             "status": trace.termination if k == last else r.subproblem_status}
            for k, r in enumerate(trace.records)]


def run_ccp(problem, x0, config: CcpConfig | None = None) -> IterationTrace:
    """Run the convex-concave procedure from a feasible point.

    Raises :class:`InfeasibleStart` when x0 is outside the set or violates
    the cone constraint beyond tolerance, and :class:`SubproblemInfeasible`
    if a subproblem turns out infeasible (impossible from a feasible start;
    it would indicate an oracle or solver defect).  A subproblem the inner
    solver leaves at its iteration limit ends the run with termination
    ``INNER_ITER_LIMIT`` at the last accepted iterate.
    """
    cfg = config or CcpConfig()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not problem.feasible_set.contains(x):
        raise InfeasibleStart("x0 is outside the feasible set")
    infeas0 = dist_to_neg_cone(problem.constraint.value(x))
    if infeas0 > inner.TOL_FEAS:
        raise InfeasibleStart(
            f"x0 violates the cone constraint by {infeas0:.3e}")

    f = problem.objective.f0(x)
    trace = IterationTrace([CcpRecord(0, x, f, infeas0)])
    mu = problem.objective.strong_convexity_of_h
    for n in range(cfg.max_iter):
        v = problem.objective.h0.subgrad(x)
        trace.records[-1].v = v
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
            CcpRecord(n + 1, x_new, f_new, infeas_new,
                      subproblem_status=rep.status))
        if infeas_new > 1e-7:
            raise InvariantViolation(
                f"iterate infeasibility {infeas_new:.3e} exceeds 1e-7")
        if f_new > f + DESCENT_SLACK * (1.0 + abs(f)):
            raise InvariantViolation(
                f"objective increased from {f} to {f_new}")
        step = float(np.linalg.norm(x_new - x))
        x, f_prev, f = x_new, f, f_new
        if step <= FIXED_POINT_RTOL * (1.0 + float(np.linalg.norm(x_new))):
            trace.termination = CRITICAL_FIXED_POINT
            break
        if abs(f_prev - f) < cfg.eps_f:
            trace.termination = SMALL_OBJECTIVE_CHANGE
            break
        if mu > 0.0 and step < cfg.eps_x:
            trace.termination = SMALL_STEP
            break
    else:
        trace.termination = MAX_ITER
    trace.records[-1].v = problem.objective.h0.subgrad(x)
    return trace


def check_strong_descent(trace: IterationTrace, mu: float) -> bool:
    """Whether every step decreased f0 by at least (mu/2) step-size squared."""
    recs = trace.records
    for a, b in zip(recs, recs[1:]):
        drop = 0.5 * mu * float(np.sum((b.x - a.x) ** 2))
        if b.f0 > a.f0 - drop + DESCENT_SLACK * (1.0 + abs(a.f0)):
            return False
    return True
