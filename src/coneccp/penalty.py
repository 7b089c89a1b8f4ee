"""Penalty convex-concave procedure: infeasible starts and penalty growth.

The cone constraint is relaxed with a slack block priced at <t, s>, t on the
ray tau * e along the cone identity.  The slack is eliminated in closed form
inside the subproblem; each outer step recovers it, applies the penalty
update (grow by a fixed factor while the slack norm exceeds the infeasibility
tolerance and the cap allows), and monitors the merit f0 + <t, s>, which
cannot increase while the penalty is held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inner
from .ccp import jsonl_records
from .cones import ConeElement, dist_to_neg_cone, inner as cone_inner, project_pos
from .errors import ConeCcpError, InfeasibleStart, InvariantViolation
from .subproblem import build_penalized, recover_slack

FIXED_POINT = "fixed_point"
SMALL_MERIT_CHANGE = "small_merit_change"
MAX_ITER = "max_iter"
INNER_ITER_LIMIT = "inner_iter_limit"  # a subproblem left unsolved; no step taken

FIXED_POINT_RTOL = 1e-9
MERIT_SLACK = 1e-8
INNER_TOL = 1e-9  # optimality tolerance of each penalized subproblem


@dataclass
class PenaltyConfig:
    tau0: float
    mu: float
    kappa: float = 1e-6
    tau_max: float = float("inf")
    eps_merit: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        if not self.tau0 > 0:
            raise ConeCcpError("tau0 must be positive")
        if not self.mu > 1:
            raise ConeCcpError("penalty growth factor must exceed 1")
        if self.kappa < 0 or not self.tau_max > 0:
            raise ConeCcpError("kappa must be >= 0 and tau_max positive")


@dataclass
class PenaltyRecord:
    n: int
    x: np.ndarray
    s: ConeElement
    s_norm: float
    tau: float
    f0: float
    merit: float
    infeas: float
    subproblem_status: str = "initial"


@dataclass
class PenaltyTrace:
    records: list[PenaltyRecord] = field(default_factory=list)
    termination: str = MAX_ITER
    e_norm: float = 1.0

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    def jsonl_records(self) -> list[dict]:
        return jsonl_records(self)


def _penalty_update(tau, s_norm, cfg: PenaltyConfig, e_norm: float) -> float:
    """One application of the growth rule; ||t|| is tau times ||e||.

    With kappa = 0 the literal rule would fire even at slack exactly zero, so
    growth additionally requires a genuinely nonzero slack.
    """
    if s_norm >= cfg.kappa and s_norm > 0.0 and cfg.mu * tau * e_norm <= cfg.tau_max:
        return cfg.mu * tau
    return tau


def run_penalty_ccp(problem, x0, config: PenaltyConfig) -> PenaltyTrace:
    """Run the penalty CCP from any point of the set (feasibility not required).

    A subproblem the inner solver leaves at its iteration limit ends the run
    with termination ``INNER_ITER_LIMIT`` at the last accepted iterate.
    """
    cfg = config
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not problem.feasible_set.contains(x):
        raise InfeasibleStart("x0 is outside the feasible set A")
    identity = problem.constraint.cone.identity()
    e_norm = identity.norm()

    # The minimal feasible slack at x0 seeds the merit record.
    s = project_pos(problem.constraint.value(x))
    tau = float(cfg.tau0)
    f = problem.objective.f0(x)
    trace = PenaltyTrace(e_norm=e_norm)
    trace.records.append(PenaltyRecord(
        0, x, s, s.norm(), tau, f, f + tau * cone_inner(identity, s),
        dist_to_neg_cone(problem.constraint.value(x))))

    for n in range(cfg.max_iter):
        v = problem.objective.h0.subgrad(x)
        spec = build_penalized(problem, x, v, tau)
        rep = inner.solve_convex(spec, tol=INNER_TOL, feasible_hint=x)
        if rep.status == inner.ITER_LIMIT:
            trace.termination = INNER_ITER_LIMIT
            break
        x_new = rep.x_hat
        s_new = recover_slack(spec, x_new)
        f_new = problem.objective.f0(x_new)
        s_new_norm = s_new.norm()

        merit_old = f + tau * cone_inner(identity, s)
        merit_new_held = f_new + tau * cone_inner(identity, s_new)
        if merit_new_held > merit_old + MERIT_SLACK * (1.0 + abs(merit_old)):
            raise InvariantViolation(
                f"merit increased at fixed penalty: {merit_old} -> "
                f"{merit_new_held}")

        step = float(np.linalg.norm(x_new - x))
        fixed = step <= FIXED_POINT_RTOL * (1.0 + float(np.linalg.norm(x)))
        # The stop test precedes the penalty update.
        tau_next = tau if fixed else _penalty_update(tau, s_new_norm, cfg,
                                                     e_norm)
        trace.records.append(PenaltyRecord(
            n + 1, x_new, s_new, s_new_norm, tau_next, f_new,
            f_new + tau_next * cone_inner(identity, s_new),
            dist_to_neg_cone(problem.constraint.value(x_new)),
            rep.status))
        x, s, f = x_new, s_new, f_new
        if fixed:
            trace.termination = FIXED_POINT
            break
        if abs(merit_new_held - merit_old) < cfg.eps_merit:
            tau = tau_next
            trace.termination = SMALL_MERIT_CHANGE
            break
        tau = tau_next
    else:
        trace.termination = MAX_ITER
    return trace


def check_merit_decrease(trace: PenaltyTrace) -> bool:
    """Whether f0 + <t_n, s> did not increase across any step.

    Both sides of each comparison use the penalty in force at step n (not the
    updated one), matching the descent guarantee for the method.
    """
    recs = trace.records
    if not recs:
        raise ConeCcpError("empty trace")
    for a, b in zip(recs, recs[1:]):
        e = a.s.cone.identity()
        lhs = b.f0 + a.tau * cone_inner(e, b.s)
        rhs = a.f0 + a.tau * cone_inner(e, a.s)
        if lhs > rhs + MERIT_SLACK * (1.0 + abs(rhs)):
            return False
    return True


def detect_feasible_handoff(trace: PenaltyTrace, tol_feas=1e-8) -> int | None:
    """Smallest index from which every recorded slack norm stays below tol.

    From that point on the run is feasible and behaves like the plain CCP
    (descent and feasibility invariants hold on the tail).
    """
    recs = trace.records
    m = None
    for r in recs:
        if r.s_norm <= tol_feas:
            if m is None:
                m = r.n
        else:
            m = None
    return m
