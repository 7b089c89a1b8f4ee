from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coneccp import inner, lp
from coneccp.dc import ConvexOracle, quadratic_oracle
from coneccp.errors import ConeCcpError, InvariantViolation
from coneccp.feasible import FeasibleSet, box
from coneccp.library import example29
from coneccp.subproblem import (PENALIZED, build_constrained,
                                linearize_constraint)


from oracles import projected_gradient


def bare_spec(oracle, fs):
    from coneccp.subproblem import SubproblemSpec
    return SubproblemSpec(objective=oracle, feasible_set=fs, mode=PENALIZED)


class TestAgainstProjectedGradient:
    def test_strongly_convex_quadratics(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            d = int(rng.integers(1, 4))
            W = rng.normal(size=(d, d))
            Q = W @ W.T + 0.5 * np.eye(d)
            q = rng.normal(size=d)
            lo = rng.uniform(-2.0, -0.5, d)
            hi = rng.uniform(0.5, 2.0, d)
            rep = inner.solve_convex(bare_spec(quadratic_oracle(Q, q),
                                               box(lo, hi)),
                                     force_general=(d == 1 and trial % 2 == 0))
            x_pg, f_pg = projected_gradient(Q, q, lo, hi)
            assert rep.status == inner.OPTIMAL
            assert abs(rep.objective_value - f_pg) <= 1e-6
            assert rep.gap_bound <= 1e-8


class TestGeneralPath:
    def test_monotone_lower_bound_assertion_is_armed(self, monkeypatch):
        # a master whose lower bound drops as cuts are added must raise,
        # also under python -O, in the subproblem solve and in the Slater
        # probe alike
        bounds = None

        def decreasing(c, A, b, lo, hi, **kwargs):
            return lp.LpResult(lp.OPTIMAL, np.zeros(c.size), next(bounds))

        monkeypatch.setattr(inner.lp, "solve_lp", decreasing)
        fs = box([-1, -1], [1, 1])
        Q = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = bare_spec(quadratic_oracle(Q, np.array([0.4, -1.0])), fs)
        # positive on the whole box, so the probe never stops early
        positive = SimpleNamespace(scalarized=lambda x: 1.0 + float(x @ x),
                                   scalarized_subgrad=lambda x: 2.0 * x)
        for run in (lambda: inner.solve_convex(spec),
                    lambda: inner.slater_probe(positive, fs)):
            bounds = iter([-10.0, -20.0])
            with pytest.raises(InvariantViolation,
                               match="lower bound decreased"):
                run()

    def test_iter_limit_status(self):
        Q = np.array([[2.0, 0.0], [0.0, 1.0]])
        rep = inner.solve_convex(bare_spec(quadratic_oracle(Q, np.array([1.0, 1.0])),
                                           box([-1, -1], [1, 1])),
                                 tol=1e-14, max_cuts=4)
        assert rep.status == inner.ITER_LIMIT

    def test_nonsmooth_objective(self):
        # f(x) = |x1| + |x2 - 0.3| has its box minimum at (0, 0.3)
        def value(x):
            return abs(x[0]) + abs(x[1] - 0.3)

        def subgrad(x):
            return np.array([np.sign(x[0]) if x[0] != 0 else 1.0,
                             np.sign(x[1] - 0.3) if x[1] != 0.3 else 1.0])

        rep = inner.solve_convex(bare_spec(ConvexOracle(value, subgrad),
                                           box([-1, -1], [-0.2, 1])))
        assert rep.objective_value == pytest.approx(0.2, abs=1e-7)

    def test_affine_rows_respected(self):
        # min (x1-2)^2 + (x2-2)^2 over [0,2]^2 with x1 + x2 <= 2 -> (1,1)
        fs = FeasibleSet(np.zeros(2), 2.0 * np.ones(2),
                         affine_A=np.array([[1.0, 1.0]]),
                         affine_b=np.array([2.0]))
        Q = 2.0 * np.eye(2)
        rep = inner.solve_convex(bare_spec(
            quadratic_oracle(Q, np.array([-2.0, -2.0]), 4.0), fs))
        assert rep.objective_value == pytest.approx(2.0, abs=1e-7)
        assert np.allclose(rep.x_hat, [1.0, 1.0], atol=1e-3)

    def test_empty_feasible_set_rejected(self):
        with pytest.raises(ConeCcpError):
            FeasibleSet(np.zeros(1), np.ones(1),
                        affine_A=np.array([[1.0], [-1.0]]),
                        affine_b=np.array([-2.0, 1.0]))


@st.composite
def boxes_with_rows(draw):
    """A box in up to 4 dimensions and 1 to 3 affine rows that keep a drawn
    point of the box, so the set is nonempty."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    lo = draw(arrays(float, d, elements=coord))
    hi = lo + draw(arrays(float, d, elements=st.floats(0.0, 10.0,
                                                       allow_subnormal=False)))
    x = lo + draw(arrays(float, d, elements=st.floats(0.0, 1.0))) * (hi - lo)
    A = draw(arrays(float, (k, d), elements=st.floats(
        -5.0, 5.0, allow_subnormal=False)))
    b = A @ x + draw(arrays(float, k, elements=st.floats(
        0.0, 5.0, allow_subnormal=False)))
    return FeasibleSet(lo, hi, affine_A=A, affine_b=b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(boxes_with_rows())
def test_center_lies_in_the_set(fs):
    assert fs.contains(fs.center())


class TestPathsAgree:
    def test_one_dimensional_matches_general(self):
        p = example29()
        for z in (1.0, 2.0, -1.0, -1.5):
            v = p.objective.h0.subgrad(np.array([z]))
            spec = build_constrained(p, np.array([z]), v)
            r1 = inner.solve_convex(spec)
            r2 = inner.solve_convex(spec, force_general=True)
            assert abs(r1.objective_value - r2.objective_value) <= 2e-8
            assert abs(r1.x_hat[0] - r2.x_hat[0]) <= 1e-3


class TestInfeasibility:
    def test_certificate_matches_analytic_minimum(self, monkeypatch):
        # the general path's report counts the cuts of both of its Kelley
        # runs: the subproblem's and the certificate's
        added = 0
        cut = inner._Master.cut

        def counted(self, *args, **kwargs):
            nonlocal added
            added += 1
            return cut(self, *args, **kwargs)

        monkeypatch.setattr(inner._Master, "cut", counted)
        p = example29()
        for z in (0.3, 0.5, 0.7):
            v = p.objective.h0.subgrad(np.array([z]))
            spec = build_constrained(p, np.array([z]), v)
            analytic = z ** 4 * (3.0 - 4.0 * z * z)
            for force in (False, True):
                added = 0
                rep = inner.solve_convex(spec, force_general=force)
                assert rep.status == inner.INFEASIBLE
                assert rep.certificate > 0.0
                assert rep.certificate == pytest.approx(analytic, abs=1e-6)
                if force:
                    assert rep.cuts == added > 0


class TestSlaterProbe:
    def test_interior_base(self):
        p = example29()
        lin = linearize_constraint(p, np.array([1.0]))
        probe = inner.slater_probe(lin, p.feasible_set)
        assert probe.holds
        assert lin.scalarized(probe.x_strict) < -1e-8

    def test_boundary_and_origin_fail(self):
        p = example29()
        for z in (np.sqrt(3.0) / 2.0, 0.0):
            lin = linearize_constraint(p, np.array([z]))
            probe = inner.slater_probe(lin, p.feasible_set)
            assert not probe.holds
            assert abs(probe.min_value) <= 1e-9

    def test_multidimensional_interior(self):
        from coneccp.library import quadratic_sdp
        p = quadratic_sdp(7)
        x_bar = p.known_facts["strictly_feasible_point"]
        lin = linearize_constraint(p, x_bar)
        probe = inner.slater_probe(lin, p.feasible_set)
        assert probe.holds
