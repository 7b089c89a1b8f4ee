import dataclasses

import numpy as np
import pytest

from coneccp.certificates import (certify, criticality_residual,
                                  generalized_criticality_residual,
                                  infeasibility, kkt_residual)
from coneccp.ccp import run_ccp
from coneccp.errors import ConeCcpError, InfeasibleStart
from coneccp.penalty import PenaltyConfig, run_penalty_ccp
from coneccp.library import example29, quadratic_sdp, zero_oracle
from coneccp.dc import ScalarDcFunction, quadratic_oracle
from coneccp.library import ProblemInstance, polynomial_constraint_map
from coneccp.feasible import FeasibleSet, box


class TestCriticalityResidual:
    def test_zero_at_known_critical_points(self):
        p = example29()
        for x in (-1.0, 0.0, 1.0):
            assert criticality_residual(p, [x]) <= 1e-8

    def test_positive_at_feasible_noncritical_point(self):
        # at base 2 the linearized region is [16 - sqrt(208), ...] and the
        # subproblem optimum sits at its left endpoint
        p = example29()
        res = criticality_residual(p, [2.0])
        left = 16.0 - np.sqrt(208.0)
        expect = (2.0 - 0.5) ** 2 - (left - 0.5) ** 2
        assert res == pytest.approx(expect, abs=1e-6)
        assert res >= 0.1

    def test_unconstrained_convex_minimum(self):
        # no concave parts anywhere and a slack constraint that never binds:
        # the residual at the box minimizer of g0 is zero
        objective = ScalarDcFunction(
            g0=quadratic_oracle(np.array([[2.0]]), np.array([-1.0])),
            h0=zero_oracle(1), dim=1)
        constraint = polynomial_constraint_map([[-1.0]], [[0.0]])  # -1 <= 0
        p = ProblemInstance("unconstrained", objective, constraint,
                            box([-2.0], [2.0]))
        assert criticality_residual(p, [0.5]) <= 1e-10

    def test_requires_feasible_point(self):
        with pytest.raises(InfeasibleStart):
            criticality_residual(example29(), [0.5])


class TestKktResidual:
    def test_local_solution_with_its_multiplier(self):
        p = example29()
        r = kkt_residual(p, [-1.0], np.zeros(1),
                         p.constraint.cone.element(np.array([1.5])))
        assert r.stationarity <= 1e-9
        assert r.complementarity <= 1e-9
        assert r.dual_feasibility <= 1e-9

    def test_global_solution_with_its_multiplier(self):
        p = example29()
        r = kkt_residual(p, [1.0], np.zeros(1),
                         p.constraint.cone.element(np.array([0.5])))
        assert tuple(r) <= (1e-9, 1e-9, 1e-9)

    def test_origin_fails_plain_kkt(self):
        # x = 0 is critical through the constraint geometry (the linearized
        # region is the single point 0), not through a multiplier: with
        # lambda = 0 stationarity is |d/dx (x - 0.5)^2| = 1
        p = example29()
        r = kkt_residual(p, [0.0], np.zeros(1),
                         p.constraint.cone.element(np.array([0.0])))
        assert r.stationarity == pytest.approx(1.0, abs=1e-12)
        assert criticality_residual(p, [0.0]) <= 1e-8

    def test_wrong_multiplier_detected(self):
        p = example29()
        r = kkt_residual(p, [-1.0], np.zeros(1),
                         p.constraint.cone.element(np.array([0.3])))
        assert r.stationarity > 1.0

    def test_dual_infeasibility_reported(self):
        p = example29()
        r = kkt_residual(p, [-1.0], np.zeros(1),
                         p.constraint.cone.element(np.array([-2.0])))
        assert r.dual_feasibility == pytest.approx(2.0, abs=1e-12)

    def test_active_box_bound(self):
        # minimize (x - 0.5)^2 on [-1, 0] with inactive cone constraint:
        # at the upper bound the gradient points inward and the residual
        # vanishes only through the normal cone
        objective = ScalarDcFunction(
            g0=quadratic_oracle(np.array([[2.0]]), np.array([-1.0])),
            h0=zero_oracle(1), dim=1)
        constraint = polynomial_constraint_map([[-1.0]], [[0.0]])
        p = ProblemInstance("boxed", objective, constraint, box([-1.0], [0.0]))
        r = kkt_residual(p, [0.0], np.zeros(1),
                         p.constraint.cone.element(np.array([0.0])))
        assert r.stationarity <= 1e-12

    @pytest.mark.parametrize("x, v, expect", [
        ([-1.0, -0.25], [0.0, 0.0], 3.0),
        ([-1.0, -0.25], [-4.0, 0.0], 0.0),
        ([1.0, -0.25], [0.0, 0.0], 1.0),
        ([1.0, -0.25], [4.0, 0.0], 0.0),
        ([-1.0, 0.25], [0.0, 0.0], np.sqrt(10.0)),
    ])
    def test_one_box_face(self, x, v, expect):
        # g0 = x1^2 - x1 + x2^2 + x2 / 2 on [-1, 1]^2 with lam = 0, so
        # r = v - (2 x1 - 1, 2 x2 + 1/2).  Its distance to the normal cone
        # is max(0, r1) on the face x1 = -1, max(0, -r1) on x1 = 1, and |r2|
        # in the interior coordinate: at (-1, -0.25), r = v + (3, 0)
        objective = ScalarDcFunction(
            g0=quadratic_oracle(2.0 * np.eye(2), np.array([-1.0, 0.5])),
            h0=zero_oracle(2), dim=2)
        constraint = quadratic_sdp(0).constraint
        p = ProblemInstance("faces", objective, constraint,
                            box([-1.0, -1.0], [1.0, 1.0]))
        lam = constraint.cone.identity().scale(0.0)
        r = kkt_residual(p, x, np.array(v), lam)
        assert r.stationarity == pytest.approx(expect, abs=1e-12)


class TestGeneralizedResidual:
    def test_threshold_penalty_is_generalized_critical(self):
        assert generalized_criticality_residual(example29(), [-1.0],
                                                1.5) <= 1e-8

    def test_below_threshold_has_positive_residual(self):
        res = generalized_criticality_residual(example29(), [-1.0], 1.0)
        assert res == pytest.approx(0.125, abs=1e-8)

    def test_critical_point_with_dominating_penalty(self):
        # a feasible critical point whose multiplier is dominated by the
        # penalty is generalized critical
        assert generalized_criticality_residual(example29(), [1.0],
                                                1.0) <= 1e-8

    def test_feasible_generalized_critical_implies_critical(self):
        p = example29()
        for x, tau in ((-1.0, 1.5), (-1.0, 2.0), (1.0, 0.6), (1.0, 5.0),
                       (0.0, 1.0)):
            gen = generalized_criticality_residual(p, [x], tau)
            if infeasibility(p, [x]) <= 1e-8 and gen <= 1e-8:
                assert criticality_residual(p, [x]) <= 1e-8

    def test_monotone_in_penalty_at_infeasible_point(self):
        p = example29()
        taus = np.linspace(0.1, 10.0, 34)
        vals = [generalized_criticality_residual(p, [-0.75], t)
                for t in taus]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    def test_defined_at_infeasible_points(self):
        res = generalized_criticality_residual(example29(), [0.5], 2.0)
        assert np.isfinite(res) and res >= -1e-10


class TestInfeasibilityMeasure:
    def test_scalar_value(self):
        assert infeasibility(example29(), [0.5]) == pytest.approx(0.1875,
                                                                  abs=1e-12)

    def test_zero_on_feasible_points(self):
        p = example29()
        for x in (-2.0, -1.0, 0.0, 1.0, 3.0):
            assert infeasibility(p, [x]) == 0.0

    def test_constant_semidefinite_map(self):
        # F(x) = diag(1, -2): distance to the negative cone is 1
        C = np.diag([1.0, -2.0])
        B = np.zeros((2, 2, 2))
        A = np.zeros((2, 2, 2, 2))
        p = quadratic_sdp(C=C, B=B, A=A)
        assert infeasibility(p, [0.3, -0.7]) == pytest.approx(1.0, abs=1e-12)


class TestTerminalConsistency:
    def test_fixed_point_terminations_are_certified_critical(self):
        # whenever a run stops at a fixed point, the certificate must agree
        from coneccp.ccp import CRITICAL_FIXED_POINT, CcpConfig, run_ccp
        from coneccp.library import stiefel11_builtin

        runs = [(example29(), [-1.0]), (example29(), [0.0]),
                (example29(), [4.0])]
        q = quadratic_sdp(13)
        runs.append((q, q.known_facts["strictly_feasible_point"]))
        s = stiefel11_builtin()
        runs.append((s, s.known_facts["orthonormal_point"]))
        seen = 0
        for problem, x0 in runs:
            tr = run_ccp(problem, x0, CcpConfig(max_iter=60))
            if tr.termination == CRITICAL_FIXED_POINT:
                seen += 1
                assert criticality_residual(problem, tr.final_x) <= 1e-6
        assert seen >= 3


class TestCertify:
    def test_bundle_at_known_solution(self):
        p = example29()
        cert = certify(p, [1.0], lam=p.constraint.cone.element(np.array([0.5])))
        assert cert.subproblem_gap <= 1e-8
        assert cert.kkt is not None and cert.kkt.stationarity <= 1e-9
        assert cert.slater is not None and cert.slater.holds


# A point outside A: example 29 at 12, outside its box [-10, 10], where
# x^2 - x^4 <= 0 holds; and 1.2 against the row x <= 1 added to the box.
def _with_row():
    p = example29()
    fs = FeasibleSet([-10.0], [10.0], affine_A=[[1.0]], affine_b=[1.0])
    return dataclasses.replace(p, feasible_set=fs)


ENTRY_POINTS = {
    "run_ccp": run_ccp,
    "run_penalty_ccp": lambda p, x: run_penalty_ccp(
        p, x, PenaltyConfig(tau0=1.0, mu=2.0)),
    "infeasibility": infeasibility,
    "criticality_residual": criticality_residual,
    "generalized_criticality_residual":
        lambda p, x: generalized_criticality_residual(p, x, 1.0),
    "kkt_residual": lambda p, x: kkt_residual(
        p, x, [0.0] * p.feasible_set.dim, p.constraint.cone.identity()),
    "certify": certify,
}
SET_CHECKED = ["run_ccp", "run_penalty_ccp", "criticality_residual",
               "generalized_criticality_residual", "certify"]


# the solvers and the certificates share one check of a point against A
@pytest.mark.parametrize("entry", [ENTRY_POINTS[k] for k in SET_CHECKED],
                         ids=SET_CHECKED)
@pytest.mark.parametrize("make, x", [(example29, [12.0]), (example29, [-10.5]),
                                     (_with_row, [1.2])],
                         ids=["above_box", "below_box", "past_row"])
def test_entry_points_refuse_a_point_outside_the_set(entry, make, x):
    with pytest.raises(InfeasibleStart,
                       match="^the point is outside the feasible set A$"):
        entry(make(), x)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("make, x, got", [
    (lambda: quadratic_sdp(0), [0.0], "dimension 2, got [0.0]"),
    (example29, [1.0, 2.0], "dimension 1, got [1.0, 2.0]"),
    (example29, [np.nan], "dimension 1, got [nan]"),
    (example29, np.inf, "dimension 1, got [inf]"),
], ids=["short", "long", "nan", "inf"])
def test_entry_points_check_the_point(entry, make, x, got):
    with pytest.raises(ConeCcpError) as err:
        entry(make(), x)
    assert not isinstance(err.value, InfeasibleStart)
    assert str(err.value) == f"expected a finite point of {got}"


def test_kkt_residual_checks_the_subgradient():
    p = example29()
    with pytest.raises(ConeCcpError, match=r"dimension 1, got \[0.0, 0.0\]"):
        kkt_residual(p, [1.0], [0.0, 0.0], p.constraint.cone.identity())
