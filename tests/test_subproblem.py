import numpy as np
import pytest

from coneccp import inner
from coneccp.cones import lambda_max_scalarize
from coneccp.dc import ConvexOracle
from coneccp.errors import InvalidPenalty, OracleCheckError
from coneccp.feasible import box
from coneccp.library import example29, quadratic_sdp, stiefel
from coneccp.subproblem import (PENALIZED, SubproblemSpec, build_constrained,
                                build_penalized, linearize_constraint,
                                recover_slack)


def interval_oracle(z):
    """Feasible interval of the linearized constraint at base z != 0.

    Completing the square in x^2 - z^4 - 4 z^3 (x - z) <= 0 gives
    (x - 2 z^3)^2 <= 4 z^6 - 3 z^4, so the half width is
    2 z^2 sqrt(z^2 - 3/4).
    """
    disc = 4.0 * z ** 6 - 3.0 * z ** 4
    if disc < 0:
        return None
    half = np.sqrt(disc)
    return 2.0 * z ** 3 - half, 2.0 * z ** 3 + half


class TestConstrainedGeometry:
    def test_interval_at_base_one(self):
        p = example29()
        lin = linearize_constraint(p, np.array([1.0]))
        a, b = interval_oracle(1.0)
        assert (a, b) == (1.0, 3.0)
        for t, sign in ((0.99, 1), (1.01, -1), (2.99, -1), (3.01, 1)):
            assert np.sign(lin.scalarized(np.array([t]))) == sign

    def test_minimizer_at_base_one(self):
        p = example29()
        spec = build_constrained(p, np.array([1.0]),
                                 p.objective.h0.subgrad(np.array([1.0])))
        rep = inner.solve_convex(spec)
        assert rep.status == inner.OPTIMAL
        assert rep.x_hat[0] == pytest.approx(1.0, abs=1e-8)

    def test_interval_and_minimizer_at_base_two(self):
        a, b = interval_oracle(2.0)
        assert a == pytest.approx(16.0 - np.sqrt(208.0), abs=1e-12)
        assert b == pytest.approx(16.0 + np.sqrt(208.0), abs=1e-12)
        p = example29()
        spec = build_constrained(p, np.array([2.0]),
                                 p.objective.h0.subgrad(np.array([2.0])))
        rep = inner.solve_convex(spec, tol_feas=1e-10)
        assert rep.x_hat[0] == pytest.approx(a, abs=1e-6)
        # endpoints of the linearized region are exactly on the boundary
        lin = spec.lin
        assert abs(lin.scalarized(np.array([a]))) < 1e-10
        assert abs(lin.scalarized(np.array([b]))) < 1e-10

    def test_single_point_region_at_base_zero(self):
        p = example29()
        lin = linearize_constraint(p, np.array([0.0]))
        for t in (-0.5, -1e-3, 1e-3, 0.5):
            assert lin.scalarized(np.array([t])) > 0.0
        assert lin.scalarized(np.array([0.0])) == 0.0
        spec = build_constrained(p, np.array([0.0]), np.zeros(1))
        rep = inner.solve_convex(spec)
        assert abs(rep.x_hat[0]) <= 1e-4
        assert rep.objective_value == pytest.approx(0.25, abs=1e-3)


class TestPenalizedForm:
    def test_objective_and_minimizer_at_minus_one(self):
        p = example29()
        spec = build_penalized(p, np.array([-1.0]), np.zeros(1), 1.0)
        # hand expansion: (x - 0.5)^2 + max(x^2 + 4x + 3, 0)
        for t in (-3.5, -2.0, -1.0, 0.0, 1.0):
            expect = (t - 0.5) ** 2 + max(t * t + 4 * t + 3.0, 0.0)
            assert spec.objective.value(np.array([t])) == pytest.approx(
                expect, abs=1e-12)
        rep = inner.solve_convex(spec)
        assert rep.x_hat[0] == pytest.approx(-0.75, abs=1e-10)
        assert rep.objective_value == pytest.approx(2.125, abs=1e-10)

    def test_guard_on_nonpositive_penalty(self):
        p = example29()
        for tau in (0.0, -2.0):
            with pytest.raises(InvalidPenalty):
                build_penalized(p, np.array([-1.0]), np.zeros(1), tau)

    def test_slack_cost_vanishes_on_feasible_points(self):
        p = example29()
        base = np.array([2.0])
        v = p.objective.h0.subgrad(base)
        pen = build_penalized(p, base, v, 3.0)
        con = build_constrained(p, base, v)
        a, b = interval_oracle(2.0)
        for t in np.linspace(a + 1e-6, min(b, 10.0) - 1e-6, 7):
            x = np.array([t])
            assert pen.objective.value(x) == pytest.approx(
                con.objective.value(x), abs=1e-12)

    def test_penalized_dominates_constrained_objective(self):
        p = example29()
        base = np.array([2.0])
        v = p.objective.h0.subgrad(base)
        pen = build_penalized(p, base, v, 1.5)
        con = build_constrained(p, base, v)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-10, 10, 1)
            assert pen.objective.value(x) >= con.objective.value(x) - 1e-12


class TestSlackRecovery:
    def test_scalar_slack_value(self):
        p = example29()
        spec = build_penalized(p, np.array([-1.0]), np.zeros(1), 1.0)
        s = recover_slack(spec, np.array([-0.75]))
        assert s.blocks[0][0] == pytest.approx(0.5625, abs=1e-12)

    def test_zero_on_feasible_points(self):
        p = example29()
        spec = build_penalized(p, np.array([2.0]), np.zeros(1), 1.0)
        a, _ = interval_oracle(2.0)
        s = recover_slack(spec, np.array([a + 0.5]))
        assert s.norm() == 0.0

    def test_psd_slack_is_positive_semidefinite(self):
        p = quadratic_sdp(11)
        rng = np.random.default_rng(1)
        base = rng.uniform(-1, 1, 2)
        spec = build_penalized(p, base, p.objective.h0.subgrad(base), 2.0)
        for _ in range(20):
            x = rng.uniform(-3, 3, 2)
            s = recover_slack(spec, x)
            assert np.linalg.eigvalsh(s.blocks[0])[0] >= -1e-12

    def test_mode_guard(self):
        p = example29()
        spec = build_constrained(p, np.array([1.0]), np.zeros(1))
        with pytest.raises(ValueError):
            recover_slack(spec, np.array([1.0]))


class TestOuterApproximation:
    @pytest.mark.parametrize("make,base,dim", [
        (example29, np.array([1.3]), 1),
        (lambda: quadratic_sdp(5), np.array([0.2, -0.4]), 2),
        (lambda: stiefel(2, 2), 0.6 * np.eye(2, 2).reshape(-1), 4),
    ])
    def test_linearization_dominates_map(self, make, base, dim):
        problem = make()
        lin = linearize_constraint(problem, base)
        rng = np.random.default_rng(42)
        fs = problem.feasible_set
        for _ in range(200):
            x = rng.uniform(fs.lo, fs.hi)
            lam_f = lambda_max_scalarize(problem.constraint.value(x)).value
            lam_lin = lin.scalarized(x)
            assert lam_f <= lam_lin + 1e-9 * (1.0 + abs(lam_lin))

    def test_subproblem_objective_midpoint_convex(self):
        p = quadratic_sdp(5)
        base = np.array([0.2, -0.4])
        v = p.objective.h0.subgrad(base)
        build_penalized(p, base, v, 2.0).self_check(seed=0)
        build_constrained(p, base, v).self_check(seed=1)

    def test_concave_objective_fails_the_self_check(self):
        concave = ConvexOracle(lambda x: -float(x @ x), lambda x: -2.0 * x)
        spec = SubproblemSpec(objective=concave,
                              feasible_set=box([-1.0, -1.0], [1.0, 1.0]),
                              mode=PENALIZED)
        with pytest.raises(OracleCheckError, match="not convex"):
            spec.self_check()
