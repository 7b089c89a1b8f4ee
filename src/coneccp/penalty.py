"""Penalty convex-concave procedure: infeasible starts and penalty growth.

The cone constraint is relaxed with a slack block priced at <t, s>, t on the
ray tau * e along the cone identity.  The slack is eliminated in closed form
inside the subproblem; each outer step recovers it, applies the penalty
update (grow by a fixed factor while the slack norm exceeds the infeasibility
tolerance and the cap allows), and monitors the merit f0 + <t, s>, which
cannot increase while the penalty is held fixed.  The run returns the same
:class:`~coneccp.ccp.Trace` of :class:`~coneccp.ccp.Record` rows as the plain
CCP, with the slack, its norm, the penalty scale and the merit filled in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inner
from .ccp import (DESCENT_SLACK, INNER_ITER_LIMIT, Record, Trace,
                  check_max_iter, is_fixed_point)
from .cones import TOL_FEAS, dist_to_neg_cone, inner as cone_inner, project_pos
from .errors import ConeCcpError, InvariantViolation
from .feasible import point_of
from .subproblem import build_penalized, recover_slack

FIXED_POINT = "fixed_point"
SMALL_MERIT_CHANGE = "small_merit_change"


@dataclass
class PenaltyConfig:
    tau0: float
    mu: float
    kappa: float = 1e-6
    tau_max: float = float("inf")
    eps_merit: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0 < self.tau0 < math.inf:
            raise ConeCcpError(f"tau0 must be finite and > 0, got {self.tau0}")
        if not 1 < self.mu < math.inf:
            raise ConeCcpError(f"mu must be finite and > 1, got {self.mu}")
        if not self.kappa >= 0:
            raise ConeCcpError(f"kappa must be >= 0, got {self.kappa}")
        if not self.tau_max > 0:
            raise ConeCcpError(f"tau_max must be > 0, got {self.tau_max}")
        if not self.eps_merit > 0:
            raise ConeCcpError(f"eps_merit must be > 0, got {self.eps_merit}")
        check_max_iter(self.max_iter)


def _penalty_update(tau, s_norm, cfg: PenaltyConfig, e_norm: float) -> float:
    """One application of the growth rule; ||t|| is tau times ||e||.

    With kappa = 0 the literal rule would fire even at slack exactly zero, so
    growth additionally requires a genuinely nonzero slack.
    """
    if s_norm >= cfg.kappa and s_norm > 0.0 and cfg.mu * tau * e_norm <= cfg.tau_max:
        return cfg.mu * tau
    return tau


def run_penalty_ccp(problem, x0, config: PenaltyConfig) -> Trace:
    """Run the penalty CCP from any point of the set (feasibility not required).

    Raises :class:`ConeCcpError` when x0 is not a finite point of the
    problem's dimension, :class:`InfeasibleStart` when it is outside the set.

    A subproblem the inner solver leaves at its iteration limit ends the run
    with termination ``INNER_ITER_LIMIT`` at the last accepted iterate.
    """
    cfg = config
    x = point_of(problem.feasible_set, x0)
    identity = problem.constraint.cone.identity()
    e_norm = identity.norm()

    # The minimal feasible slack at x0 seeds the merit record.
    y = problem.constraint.value(x)
    s = project_pos(y)
    tau = float(cfg.tau0)
    f = problem.objective.f0(x)
    trace = Trace([Record(0, x, f, dist_to_neg_cone(y), s=s, s_norm=s.norm(),
                          tau=tau, merit=f + tau * cone_inner(identity, s))])

    for n in range(cfg.max_iter):
        v = problem.objective.h0.subgrad(x)
        spec = build_penalized(problem, x, v, tau)
        rep = inner.solve_convex(spec, tol=inner.SUBPROBLEM_TOL,
                                 feasible_hint=x)
        if rep.status == inner.ITER_LIMIT:
            trace.termination = INNER_ITER_LIMIT
            break
        x_new = rep.x_hat
        s_new = recover_slack(spec, x_new)
        f_new = problem.objective.f0(x_new)
        s_new_norm = s_new.norm()

        # the last record's merit is priced at tau, the scale in force now
        merit_old = trace.records[-1].merit
        price = cone_inner(identity, s_new)
        merit_new_held = f_new + tau * price
        if merit_new_held > merit_old + DESCENT_SLACK * (1.0 + abs(merit_old)):
            raise InvariantViolation(
                f"merit increased at fixed penalty: {merit_old} -> "
                f"{merit_new_held}")

        fixed = is_fixed_point(float(np.linalg.norm(x_new - x)), x_new)
        # The stop test precedes the penalty update.
        tau_next = tau if fixed else _penalty_update(tau, s_new_norm, cfg,
                                                     e_norm)
        trace.records.append(Record(
            n + 1, x_new, f_new,
            dist_to_neg_cone(problem.constraint.value(x_new)), rep.status,
            s=s_new, s_norm=s_new_norm, tau=tau_next,
            merit=f_new + tau_next * price))
        x = x_new
        if fixed:
            trace.termination = FIXED_POINT
            break
        if abs(merit_new_held - merit_old) < cfg.eps_merit:
            trace.termination = SMALL_MERIT_CHANGE
            break
        tau = tau_next
    return trace


def _penalty_records(trace: Trace) -> list[Record]:
    """The trace's records; a ConeCcpError when any lacks the penalty fields
    (a plain CCP run leaves them None)."""
    recs = trace.records
    if any(r.s is None or r.s_norm is None or r.tau is None for r in recs):
        raise ConeCcpError("the trace has no penalty fields (s, s_norm, tau); "
                           "pass the trace of a penalty run")
    return recs


def check_merit_decrease(trace: Trace) -> bool:
    """Whether f0 + <t_n, s> did not increase across any step.

    Both sides of each comparison use the penalty in force at step n (not the
    updated one), matching the descent guarantee for the method.
    """
    recs = _penalty_records(trace)
    if not recs:
        raise ConeCcpError("empty trace")
    for a, b in zip(recs, recs[1:]):
        e = a.s.cone.identity()
        lhs = b.f0 + a.tau * cone_inner(e, b.s)
        rhs = a.f0 + a.tau * cone_inner(e, a.s)
        if lhs > rhs + DESCENT_SLACK * (1.0 + abs(rhs)):
            return False
    return True


def detect_feasible_handoff(trace: Trace, tol_feas=TOL_FEAS) -> int | None:
    """Smallest index from which every recorded slack norm stays below tol.

    From that point on the run is feasible and behaves like the plain CCP
    (descent and feasibility invariants hold on the tail).
    """
    recs = _penalty_records(trace)
    m = None
    for r in recs:
        if r.s_norm <= tol_feas:
            if m is None:
                m = r.n
        else:
            m = None
    return m
