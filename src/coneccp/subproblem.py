"""Per-iteration convex subproblems of the CCP and its penalty variant.

At a base point the concave parts of the problem are replaced by their
affine minorants.  The cone constraint is carried as a scalar convex
inequality through the largest-eigenvalue scalarization, which keeps the
inner solver free of cone machinery; the penalized form eliminates the slack
in closed form through the cone's positive part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import (ConeElement, eigenpairs, lambda_max_scalarize,
                    project_pos, inner)
from .dc import ConeDerivative, ConvexOracle, KConvexOracle
from .errors import InvalidPenalty, OracleCheckError
from .feasible import FeasibleSet

CONSTRAINED = "constrained"
PENALIZED = "penalized"

# Eigenvalues inside [-EIG_ACTIVE_TOL, EIG_ACTIVE_TOL] contribute nothing to
# slack-cost subgradients (a valid selection on the boundary).
EIG_ACTIVE_TOL = 1e-12
# Positive parts this small (relative to the element size) are snapped to
# zero when recovering slacks, so exact penalty phases report slack zero
# despite inner-solver roundoff.
SLACK_ZERO_TOL = 1e-11
# SubproblemSpec.self_check: midpoints drawn, relative tolerance of each gap
SELF_CHECK_SAMPLES = 60
SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class LinearizedConstraint:
    """G(x) - H(x_n) - DH(x_n)(x - x_n), an outer approximation of F near x_n."""

    base_point: np.ndarray
    h_base: ConeElement
    dh_base: ConeDerivative
    gmap: KConvexOracle
    cone: object

    def value(self, x) -> ConeElement:
        x = np.asarray(x, dtype=float)
        step = self.dh_base.apply(x - self.base_point)
        return self.gmap.value(x) - self.h_base - step

    def scalarized(self, x) -> float:
        return lambda_max_scalarize(self.value(x)).value

    def scalarized_subgrad(self, x) -> np.ndarray:
        sc = lambda_max_scalarize(self.value(x))
        return (self.gmap.quad_form_subgrad(np.asarray(x, dtype=float),
                                            sc.block, sc.vector)
                - self.dh_base.quad_form_grad(sc.block, sc.vector))


@dataclass(frozen=True)
class SubproblemSpec:
    """Convex program snapshot handed to the inner solver.

    ``objective`` is g0(x) - <v, x - x_n>, with the closed-form slack cost
    added in penalized mode.  ``constraint`` is the scalarized linearization
    (absent in penalized mode).  Immutable: the linearization caches H(x_n)
    and DH(x_n) at build time.
    """

    objective: ConvexOracle
    feasible_set: FeasibleSet
    mode: str
    constraint: LinearizedConstraint | None = None
    lin: LinearizedConstraint | None = None

    def self_check(self, seed=0):
        """Midpoint convexity sampling of the assembled objective; raises
        :class:`OracleCheckError` on a midpoint above the chord."""
        rng = np.random.default_rng(seed)
        fs = self.feasible_set
        for _ in range(SELF_CHECK_SAMPLES):
            x = rng.uniform(fs.lo, fs.hi)
            y = rng.uniform(fs.lo, fs.hi)
            mid = 0.5 * (x + y)
            gap = (0.5 * self.objective.value(x) + 0.5 * self.objective.value(y)
                   - self.objective.value(mid))
            if gap < -SELF_CHECK_TOL * (1.0 + abs(self.objective.value(mid))):
                raise OracleCheckError(
                    f"subproblem objective not convex: {gap}")


def linearize_constraint(problem, x_n) -> LinearizedConstraint:
    x_n = np.asarray(x_n, dtype=float)
    cmap = problem.constraint
    return LinearizedConstraint(
        base_point=x_n,
        h_base=cmap.H.value(x_n),
        dh_base=cmap.H.derivative(x_n),
        gmap=cmap.G,
        cone=cmap.cone,
    )


def _shifted_objective(problem, x_n, v_n) -> ConvexOracle:
    g0 = problem.objective.g0
    x_n = np.asarray(x_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)

    def value(x):
        return g0.value(x) - float(v_n @ (np.asarray(x) - x_n))

    def subgrad(x):
        return g0.subgrad(x) - v_n

    return ConvexOracle(value, subgrad)


def build_constrained(problem, x_n, v_n) -> SubproblemSpec:
    """Feasible-phase subproblem: minimize the shifted objective over
    {x in A : scalarized linearization <= 0}."""
    lin = linearize_constraint(problem, x_n)
    return SubproblemSpec(
        objective=_shifted_objective(problem, x_n, v_n),
        constraint=lin,
        feasible_set=problem.feasible_set,
        mode=CONSTRAINED,
        lin=lin,
    )


def build_penalized(problem, x_n, v_n, tau) -> SubproblemSpec:
    """Penalty subproblem with the slack eliminated in closed form.

    The slack block s enters the objective as <tau e, s> subject to s >= 0
    and s >= linearization; its optimal value is the positive part, so the
    spec minimizes  g0(x) - <v, x - x_n> + tau * <e, pos(linearization(x))>
    over A alone.
    """
    if not tau > 0.0:
        raise InvalidPenalty(f"penalty scale must be positive, got {tau}")
    lin = linearize_constraint(problem, x_n)
    shifted = _shifted_objective(problem, x_n, v_n)
    identity = problem.constraint.cone.identity()

    def value(x):
        pos = project_pos(lin.value(x))
        return shifted.value(x) + tau * inner(identity, pos)

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        out = shifted.subgrad(x)
        for k, w, vecs in eigenpairs(lin.value(x)):
            for idx in np.nonzero(w > EIG_ACTIVE_TOL)[0]:
                u = vecs[:, idx]
                out = out + tau * (lin.gmap.quad_form_subgrad(x, k, u)
                                   - lin.dh_base.quad_form_grad(k, u))
        return out

    return SubproblemSpec(
        objective=ConvexOracle(value, subgrad),
        constraint=None,
        feasible_set=problem.feasible_set,
        mode=PENALIZED,
        lin=lin,
    )


def recover_slack(spec: SubproblemSpec, x) -> ConeElement:
    """Minimal feasible slack at x: the positive part of the linearization.

    Tiny positive parts (inner-solver roundoff on an exactly active
    constraint) are snapped to zero so that exact penalty phases are
    recognizable by slack == 0.
    """
    if spec.mode != PENALIZED:
        raise ValueError("slack recovery applies to penalized subproblems")
    y = spec.lin.value(x)
    pos = project_pos(y)
    cut = SLACK_ZERO_TOL * (1.0 + y.norm())
    blocks = []
    for b in pos.blocks:
        if b.ndim == 2:
            w, vecs = np.linalg.eigh(b)
            w = np.where(w <= cut, 0.0, w)
            blocks.append((vecs * w) @ vecs.T)
        else:
            blocks.append(np.where(b <= cut, 0.0, b))
    return pos._like(blocks)
