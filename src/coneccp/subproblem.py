"""Per-iteration convex subproblems of the CCP and its penalty variant.

At a base point the concave parts of the problem are replaced by their
affine minorants.  The cone constraint is carried as a scalar convex
inequality through the largest-eigenvalue scalarization, which keeps the
inner solver free of cone machinery; the penalized form eliminates the slack
in closed form through the cone's positive part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import (ConeElement, check_penalty_scale, eigenpairs, inner,
                    lambda_max_scalarize, project_pos)
from .dc import ConeDerivative, ConvexOracle, KConvexOracle
from .feasible import FeasibleSet

# Positive parts this small (relative to the element size) are snapped to
# zero when recovering slacks, so exact penalty phases report slack zero
# despite inner-solver roundoff.
SLACK_ZERO_TOL = 1e-11


@dataclass(frozen=True)
class LinearizedConstraint:
    """G(x) - H(x_n) - DH(x_n)(x - x_n), an outer approximation of F near x_n.

    The inner solver asks for a value and a subgradient at each point it
    visits, so the last point asked keeps its linearization in a one-entry
    memo keyed on the bytes of x: a point costs one evaluation of G, which
    still passes the full validation of :meth:`Cone.element`, and at most
    one eigendecomposition per PSD block, kept by the linearization.  The
    memo is one tuple replaced by a single assignment, so a concurrent reader
    sees a whole entry or none; it belongs to this object, one per
    subproblem.
    """

    base_point: np.ndarray
    h_base: ConeElement
    dh_base: ConeDerivative
    gmap: KConvexOracle
    # (bytes of x, linearization at x)
    _memo: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    def value(self, x) -> ConeElement:
        x = np.asarray(x, dtype=float)
        g = self.gmap.value(x)
        steps = self.dh_base.apply_blocks(x - self.base_point)
        return g._like((gb - hb) - step for gb, hb, step
                       in zip(g.blocks, self.h_base.blocks, steps))

    def at(self, x) -> ConeElement:
        """The linearization at x, through the memo."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        memo_key, y = self._memo
        if memo_key != key:
            y = self.value(x)
            object.__setattr__(self, "_memo", (key, y))
        return y

    def scalarized(self, x) -> float:
        return lambda_max_scalarize(self.at(x)).value

    def scalarized_subgrad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sc = lambda_max_scalarize(self.at(x))
        return self.quad_form_subgrad(x, sc.block, sc.vector)

    def quad_form_subgrad(self, x, k, u) -> np.ndarray:
        """A subgradient at x of u' [linearization(x)]_k u, block k."""
        return (self.gmap.quad_form_subgrad(x, k, u)
                - self.dh_base.quad_form_grad(k, u))


@dataclass(frozen=True)
class SubproblemSpec:
    """Convex program snapshot handed to the inner solver.

    ``objective`` is g0(x) - <v, x - x_n>, with the closed-form slack cost
    added in penalized mode.  ``constraint`` is the scalarized linearization
    in constrained mode; a spec without one is penalized (or has no cone
    constraint at all).  ``lin``, the linearization in either mode, gives
    the inner solver its start: the base point, where the spec is tight.
    Immutable: the linearization caches H(x_n) and DH(x_n) at build time;
    its only changing state is the memo of the last point asked.
    """

    objective: ConvexOracle
    feasible_set: FeasibleSet
    constraint: LinearizedConstraint | None = None
    lin: LinearizedConstraint | None = None


def linearize_constraint(problem, x_n) -> LinearizedConstraint:
    x_n = np.asarray(x_n, dtype=float)
    cmap = problem.constraint
    return LinearizedConstraint(
        base_point=x_n,
        h_base=cmap.H.value(x_n),
        dh_base=cmap.H.derivative(x_n),
        gmap=cmap.G,
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
        lin=lin,
    )


def build_penalized(problem, x_n, v_n, tau) -> SubproblemSpec:
    """Penalty subproblem with the slack eliminated in closed form.

    The slack block s enters the objective as <tau e, s> subject to s >= 0
    and s >= linearization; its optimal value is the positive part, so the
    spec minimizes  g0(x) - <v, x - x_n> + tau * <e, pos(linearization(x))>
    over A alone.  A tau that is not positive and finite raises
    :class:`InvalidPenalty`.  The subgradient takes each eigenvector of an
    eigenvalue w > 0, as ``project_pos`` prices them; w = 0 may take any
    weight in [0, 1] (Lewis 1996), so skipping it is valid.
    """
    check_penalty_scale(tau)
    lin = linearize_constraint(problem, x_n)
    shifted = _shifted_objective(problem, x_n, v_n)
    identity = problem.constraint.cone.identity()

    # value and subgradient at one point share one linearization and eigh
    def value(x):
        pos = project_pos(lin.at(x))
        return shifted.value(x) + tau * inner(identity, pos)

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        out = shifted.subgrad(x)
        for k, w, vecs in eigenpairs(lin.at(x)):
            for idx in np.nonzero(w > 0.0)[0]:
                u = vecs[:, idx]
                out = out + tau * lin.quad_form_subgrad(x, k, u)
        return out

    return SubproblemSpec(
        objective=ConvexOracle(value, subgrad),
        constraint=None,
        feasible_set=problem.feasible_set,
        lin=lin,
    )


def recover_slack(spec: SubproblemSpec, x) -> ConeElement:
    """Minimal feasible slack at x: the positive part of the linearization.

    Tiny positive parts (inner-solver roundoff on an exactly active
    constraint) are snapped to zero, along with the negative ones, so that
    exact penalty phases are recognizable by slack == 0.  The linearization
    comes through the memo, so at the inner solver's last point its
    eigenpairs are the ones the penalized objective used.
    """
    if spec.constraint is not None:
        raise ValueError("slack recovery applies to penalized subproblems")
    y = spec.lin.at(x)
    cut = SLACK_ZERO_TOL * (1.0 + y.norm())
    return y._like((v * np.where(w <= cut, 0.0, w)) @ v.T if a.ndim == 2
                   else np.where(w <= cut, 0.0, w)
                   for a, (_, w, v) in zip(y.blocks, eigenpairs(y)))
