import math
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


from oracles import (bisect_min_reference, bisect_root_reference,
                     projected_gradient)


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


# ---------------------------------------------------------------------------
# The bracketing search of the 1-D path against plain bisection


def _counted(fn):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fn(x)
    return counted, calls


@st.composite
def convex_1d(draw):
    """(f, f') of a convex function of one variable, f' a subgradient:
    a quadratic, a kink |x - c|, a max of affine pieces, or the constraint
    x^2 - x^4 of example 29 linearized at some z."""
    coef = st.floats(-10.0, 10.0, allow_subnormal=False)
    kind = draw(st.sampled_from(["quadratic", "kink", "max_affine", "e29"]))
    if kind == "quadratic":
        q, c, s = draw(st.floats(1e-3, 10.0)), draw(coef), draw(coef)
        return (lambda x: 0.5 * q * (x - c) ** 2 + s), (lambda x: q * (x - c))
    if kind == "kink":
        c, s = draw(coef), draw(coef)
        return (lambda x: abs(x - c) + s), (lambda x: float(np.sign(x - c)))
    if kind == "max_affine":
        pieces = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=5))
        slopes = np.array([p[0] for p in pieces])
        offsets = np.array([p[1] for p in pieces])
        return (lambda x: float(np.max(slopes * x + offsets)),
                lambda x: float(slopes[np.argmax(slopes * x + offsets)]))
    z = draw(st.floats(-2.0, 2.0, allow_subnormal=False))
    return (lambda x: x * x - (z ** 4 + 4.0 * z ** 3 * (x - z)),
            lambda x: 2.0 * x - 4.0 * z ** 3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(convex_1d(), st.floats(-10.0, 0.0), st.floats(0.0, 10.0))
def test_bracketing_agrees_with_bisection(fdf, lo, hi):
    f, df = fdf
    scale = 4.0 * math.ulp(max(abs(f(lo)), abs(f(hi)), 1.0))
    (cf, nf), (cdf, ndf) = _counted(f), _counted(df)
    x, fx, lb = inner._bisect_min(cf, cdf, lo, hi)
    (rf, mf), (rdf, mdf) = _counted(f), _counted(df)
    _, f_ref, _ = bisect_min_reference(rf, rdf, lo, hi)
    assert abs(fx - f_ref) <= scale
    # near its minimum the computed f varies by rounding alone
    assert lb <= min(f(t) for t in np.linspace(lo, hi, 2001)) + scale
    assert nf[0] + ndf[0] <= 2 * (mf[0] + mdf[0])
    if fx > 0.0:
        return
    for out in (lo, hi):
        if f(out) <= 0.0:
            continue
        phi, n = _counted(f)
        root = inner._bisect_root(phi, out, x, fx)
        ref, m = _counted(f)
        ref(out)
        root_ref = bisect_root_reference(ref, out, x)
        beyond = math.nextafter(root, out)
        assert f(root) <= 0.0
        # past the root phi is positive, or zero to within rounding: where
        # the computed phi flickers in sign or underflows; so is phi between
        # the two roots
        assert f(beyond) > 0.0 or abs(f(beyond)) <= scale
        assert abs(f(0.5 * (root + root_ref))) <= scale
        assert n[0] <= 2 * m[0]


def test_bracketing_with_denormal_values():
    # phi = 1.5e-323 (x - c) is denormal or zero on the whole box, so the
    # halved end values of the secant can both reach zero
    for c, lo, hi in ((-0.052438944099000295, -7.69271694480658,
                       1.7570598508131703),
                      (-0.2824622222740931, -2.7900203241717145,
                       0.28526001289822067)):
        def phi(x):
            return 1.5e-323 * (x - c)
        root = inner._bisect_root(phi, hi, lo, phi(lo))
        assert phi(root) <= 0.0 < phi(math.nextafter(root, hi))


def test_boundary_at_zero_is_found_at_zero():
    # the linearization of example 29 at 0 is x^2, zero only at 0.0 but
    # underflowing to 0 below about 1e-162: bisection ends at 0.0 after its
    # 200 halvings, and so must the bracketing search, in two evaluations
    phi, n = _counted(lambda x: x * x)
    assert inner._bisect_root(phi, 10.0, 0.0, 0.0) == 0.0
    assert n[0] == 2
    p = example29()
    spec = build_constrained(p, np.array([0.0]),
                             p.objective.h0.subgrad(np.array([0.0])))
    assert inner.solve_convex(spec).x_hat[0] == 0.0


def test_one_dimensional_runs_evaluate_few_linearizations(monkeypatch):
    # a count, not a time: the CCP run of example 29 from 2 and the penalty
    # run of acceptance criterion 1 take 279 and 104 evaluations of the
    # linearization; plain bisection takes 1191 and 782
    from coneccp import subproblem
    from coneccp.ccp import CcpConfig, run_ccp
    from coneccp.penalty import PenaltyConfig, run_penalty_ccp

    calls = 0
    value = subproblem.LinearizedConstraint.value

    def counted(self, x):
        nonlocal calls
        calls += 1
        return value(self, x)

    monkeypatch.setattr(subproblem.LinearizedConstraint, "value", counted)
    run_ccp(example29(), [2.0], CcpConfig())
    assert calls <= 300
    calls = 0
    run_penalty_ccp(example29(), [-1.0], PenaltyConfig(
        tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0))
    assert calls <= 115
