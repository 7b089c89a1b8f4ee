import dataclasses
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coneccp import inner, lp
from coneccp.ccp import CcpConfig, run_ccp
from coneccp.dc import ConvexOracle, quadratic_oracle
from coneccp.errors import ConeCcpError, InvariantViolation
from coneccp.feasible import FeasibleSet, box
from coneccp.library import (example29, polynomial_constraint_map,
                              quadratic_sdp, stiefel, stiefel11_builtin)
from coneccp.penalty import PenaltyConfig, run_penalty_ccp
from coneccp.subproblem import (SubproblemSpec, build_constrained,
                                build_penalized, linearize_constraint)


from oracles import (bisect_min_reference, bisect_root_reference,
                     projected_gradient, solve_1d_reference)


def bare_spec(oracle, fs):
    return SubproblemSpec(objective=oracle, feasible_set=fs)


def same_report(a, b):
    """Two reports (or probes) agree in type and in every field's bits."""
    assert type(a) is type(b)
    for name in vars(a):
        assert np.asarray(getattr(a, name)).tobytes() == \
            np.asarray(getattr(b, name)).tobytes(), name


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
            spec = bare_spec(quadratic_oracle(Q, q), box(lo, hi))
            # half the one-dimensional trials take the general path
            rep = (inner._solve_general(spec, 1e-8) if d == 1 and trial % 2 == 0
                   else inner.solve_convex(spec))
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

    def test_iter_limit_status(self, monkeypatch):
        monkeypatch.setattr(inner, "MAX_CUTS", 4)
        Q = np.array([[2.0, 0.0], [0.0, 1.0]])
        rep = inner.solve_convex(bare_spec(quadratic_oracle(Q, np.array([1.0, 1.0])),
                                           box([-1, -1], [1, 1])),
                                 tol=1e-14)
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

    @pytest.mark.parametrize("rows, match", [
        # three rows of two read as two rows of three
        (dict(affine_A=np.ones((3, 2)), affine_b=np.ones(2)), "shape"),
        (dict(affine_A=[[1.0, np.nan, 0.0]], affine_b=[1.0]), "finite"),
        (dict(affine_A=[[1.0, 0.0, 0.0]], affine_b=[np.nan]), "finite"),
        (dict(affine_A=[[1.0, 0.0, 0.0]], affine_b=[-np.inf]), "finite"),
        (dict(affine_A=[[1.0, 0.0, 0.0]]), "both"),
        (dict(affine_A=[[1.0], [1.0, 2.0]], affine_b=[1.0, 1.0]), "numeric"),
        (dict(affine_A=[["a", "b"]], affine_b=[1.0]), "numeric"),
        (dict(affine_A=[[1.0, 0.0, 0.0]], affine_b=["one"]), "numeric"),
    ], ids=["wrong-shape", "nan-in-A", "nan-in-b", "minus-inf-b",
            "A-without-b", "ragged-A", "strings-in-A", "string-in-b"])
    def test_malformed_affine_rows_rejected(self, rows, match):
        with pytest.raises(ConeCcpError, match=match):
            FeasibleSet(np.zeros(3), np.ones(3), **rows)

    def test_non_numeric_box_rejected(self):
        for make in (FeasibleSet, box):
            with pytest.raises(ConeCcpError, match="numeric"):
                make(["a"], [1.0])


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
            r2 = inner._solve_general(spec, 1e-8)
            assert abs(r1.objective_value - r2.objective_value) <= 2e-8
            assert abs(r1.x_hat[0] - r2.x_hat[0]) <= 1e-3

    def test_one_dimensional_rows_bound_the_search(self):
        # 2x <= 3 and -4x <= 5 on [-10, 10] are the box [-1.25, 1.5]
        p = example29()
        rows = FeasibleSet([-10.0], [10.0], affine_A=[[2.0], [-4.0]],
                           affine_b=[3.0, 5.0])
        plain = box([-1.25], [1.5])
        assert inner._bounds_1d(rows) == (-1.25, 1.5, False)

        for z in (1.2, -1.2):
            x = np.array([z])
            v = p.objective.h0.subgrad(x)
            for build in (lambda q: build_constrained(q, x, v),
                          lambda q: build_penalized(q, x, v, 2.0)):
                reps = [inner.solve_convex(build(dataclasses.replace(
                    p, feasible_set=fs))) for fs in (rows, plain)]
                same_report(*reps)
            lin = linearize_constraint(p, x)
            same_report(inner.slater_probe(lin, rows),
                        inner.slater_probe(lin, plain))


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
                rep = (inner._solve_general(spec, 1e-8) if force
                       else inner.solve_convex(spec))
                assert rep.status == inner.INFEASIBLE
                assert rep.certificate > 0.0
                assert rep.certificate == pytest.approx(analytic, abs=1e-6)
                if force:
                    assert rep.cuts == added > 0

    def test_a_minimum_within_the_tolerance_is_the_only_point(self):
        # the constraint's least value 5e-9 lies in (0, TOL_FEAS]: its
        # minimizer is taken as the one feasible point, though the
        # objective x descends away from it
        stub = SimpleNamespace(
            scalarized=lambda x: (x[0] - 0.3) ** 2 + 5e-9,
            scalarized_subgrad=lambda x: np.array([2.0 * (x[0] - 0.3)]))
        spec = SubproblemSpec(objective=quadratic_oracle(np.zeros((1, 1)),
                                                         np.ones(1)),
                              feasible_set=box([-1.0], [1.0]),
                              constraint=stub)
        assert 0.0 < 5e-9 <= inner.TOL_FEAS
        rep = inner.solve_convex(spec)
        assert rep.status == inner.OPTIMAL
        assert rep.x_hat[0] == pytest.approx(0.3, abs=1e-12)


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


KINDS_1D = ("quadratic", "kink", "max_affine", "e29", "penalized")


def _penalized(q, c, tau, slope, offset):
    """(f, f') of 0.5 q (x - c)^2 + tau max(0, slope x + offset)."""
    return (lambda x: 0.5 * q * (x - c) ** 2
            + tau * max(0.0, slope * x + offset),
            lambda x: q * (x - c)
            + (tau * slope if slope * x + offset > 0.0 else 0.0))


@st.composite
def convex_1d(draw, kinds=KINDS_1D):
    """(f, f') of a convex function of one variable, f' a subgradient:
    a quadratic, a kink |x - c|, a max of affine pieces, the constraint
    x^2 - x^4 of example 29 linearized at some z, or a penalized objective
    shaped like the penalty method's, a quadratic plus tau max(0, affine)."""
    coef = st.floats(-10.0, 10.0, allow_subnormal=False)
    kind = draw(st.sampled_from(kinds))
    if kind == "quadratic":
        q, c, s = draw(st.floats(1e-3, 10.0)), draw(coef), draw(coef)
        return (lambda x: 0.5 * q * (x - c) ** 2 + s), (lambda x: q * (x - c))
    if kind == "penalized":
        q, c = draw(st.floats(1e-3, 10.0)), draw(coef)
        tau, slope, offset = draw(st.floats(0.1, 100.0)), draw(coef), draw(coef)
        return _penalized(q, c, tau, slope, offset)
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
    # the bound leaves the computed f room to dip by rounding near its minimum
    assert lb <= min(f(t) for t in np.linspace(lo, hi, 2001))
    assert nf[0] + ndf[0] <= 2 * (mf[0] + mdf[0])
    if fx > 0.0:
        return
    for out in (lo, hi):
        if f(out) <= 0.0:
            continue
        phi, n = _counted(f)
        root = inner._boundary(phi, x, fx, out)
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


def _floats_around(x, count):
    """x and the ``count`` floats on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        t = x
        for _ in range(count):
            t = math.nextafter(t, direction)
            out.append(t)
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(convex_1d(kinds=["penalized"]), st.floats(-10.0, 0.0),
       st.floats(0.0, 10.0))
# steep kinks at the minimum, where the larger tangent value at the rounded
# meeting point overstates the bound by more than the 4-ulp margin
@example(_penalized(1.0, 1.0, 100.0, 1.0, -1.0), 0.0, 10.0)
@example(_penalized(1e-3, 1.0, 100.0, 1.0, 1.0), -10.0, 10.0)
def test_penalized_kink_bound_holds_near_the_answer(fdf, lo, hi):
    # the search stops where its tangents certify the best value, often at
    # the kink; the bound must hold on a grid and at the floats around it
    f, df = fdf
    x, fx, lb = inner._bisect_min(f, df, lo, hi)
    near = [t for t in _floats_around(x, 64) if lo <= t <= hi]
    assert lb <= min(f(t) for t in np.linspace(lo, hi, 2001))
    assert lb <= min(f(t) for t in near)


def test_1d_lower_bound_holds_under_rounding():
    # the subgradient is exactly zero at m = 4 z^3 / 2, yet rounding makes
    # the computed f smaller at a grid point and at floats next to m
    z = 0.7

    def f(x):
        return x * x - (z ** 4 + 4.0 * z ** 3 * (x - z))

    m, fm, lb = inner._bisect_min(f, lambda x: 2.0 * x - 4.0 * z ** 3,
                                  0.0, 1.0)
    near = _floats_around(m, 64)
    grid = np.linspace(0.0, 1.0, 2001)
    assert min(f(t) for t in grid) < fm
    assert lb <= min(f(t) for t in np.concatenate([grid, near]))
    assert fm - lb == 4.0 * math.ulp(1.0)


def test_bracketing_with_denormal_values():
    # phi = 1.5e-323 (x - c) is denormal or zero on the whole box, so the
    # secant's end values carry a few bits at most
    for c, lo, hi in ((-0.052438944099000295, -7.69271694480658,
                       1.7570598508131703),
                      (-0.2824622222740931, -2.7900203241717145,
                       0.28526001289822067)):
        def phi(x):
            return 1.5e-323 * (x - c)
        root = inner._boundary(phi, lo, phi(lo), hi)
        assert phi(root) <= 0.0 < phi(math.nextafter(root, hi))


def test_boundary_at_zero_is_found_at_zero():
    # the linearization of example 29 at 0 is x^2, zero only at 0.0 but
    # underflowing to 0 below about 1e-162: bisection ends at 0.0 after its
    # 200 halvings, and so must the bracketing search, in two evaluations
    phi, n = _counted(lambda x: x * x)
    assert inner._boundary(phi, 0.0, 0.0, 10.0) == 0.0
    assert n[0] == 2
    p = example29()
    spec = build_constrained(p, np.array([0.0]),
                             p.objective.h0.subgrad(np.array([0.0])))
    assert inner.solve_convex(spec).x_hat[0] == 0.0


def test_boundary_searches_from_a_minimum_take_few_evaluations():
    # from a quadratic's minimum every secant root lands inside, and the
    # truncated steps then land outside near the boundary: 400 searches take
    # 7242 evaluations, and took 9919 when Illinois weights, restarted after
    # each midpoint, moved the outside end
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(200):
        q, c = rng.uniform(0.1, 10.0), rng.uniform(-2.0, 2.0)
        s = rng.uniform(-5.0, -0.1)
        def f(t):
            return 0.5 * q * (t - c) ** 2 + s
        phi, n = _counted(f)
        for outside in (-10.0, 10.0):
            root = inner._boundary(phi, c, f(c), outside)
            assert f(root) <= 0.0 < f(math.nextafter(root, outside))
        total += n[0]
    assert total <= 8500


@pytest.fixture
def linearizations(monkeypatch):
    """A list whose length counts the evaluations of any linearization."""
    from coneccp import subproblem

    calls = []
    value = subproblem.LinearizedConstraint.value
    monkeypatch.setattr(subproblem.LinearizedConstraint, "value",
                        lambda self, x: calls.append(None) or value(self, x))
    return calls


def test_one_dimensional_runs_evaluate_few_linearizations(linearizations):
    # a count, not a time: the CCP run of example 29 from 2 and the penalty
    # run of acceptance criterion 1 take 81 and 62 evaluations of the
    # linearization; the penalty run took 93 when its subgradient search
    # closed the bracket around each kink by halvings; the two-sided search
    # around the constraint's minimum, with untruncated steps, took 271 for
    # the CCP run, and plain bisection 1191 and 782
    run_ccp(example29(), [2.0], CcpConfig())
    assert len(linearizations) <= 100
    linearizations.clear()
    run_penalty_ccp(example29(), [-1.0], PenaltyConfig(
        tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0))
    assert len(linearizations) <= 70


def test_an_exact_penalty_run_evaluates_few_linearizations(linearizations):
    # acceptance criterion 3 stops at -1 after one subproblem in 14
    # evaluations; it took 40 when the subgradient skipped eigenvalues in
    # (0, 1e-12], whose false tangents kept the certified gap open
    run_penalty_ccp(example29(), [-1.0], PenaltyConfig(
        tau0=1.5, mu=2.0, kappa=1e-6, tau_max=1024.0))
    assert len(linearizations) <= 20


def test_a_penalized_kink_is_found_in_few_linearizations(linearizations):
    # the stiefel11 penalty subproblem at 0.3 has its minimum at the kink
    # where the linearization's largest eigenvalue crosses 0: the tangent
    # steps land on it in 18 evaluations, halvings of the bracket took 71
    p = stiefel11_builtin()
    x = np.array([0.3])
    rep = inner.solve_convex(build_penalized(p, x, p.objective.h0.subgrad(x),
                                             1.0))
    assert rep.status == inner.OPTIMAL
    assert len(linearizations) <= 25


# ---------------------------------------------------------------------------
# The one-sided 1-D search from a feasible point against the two-sided one


def _random_linearization(kind, rng):
    """(problem, base point): example 29, the scalar Stiefel instance, or up
    to three convex polynomial rows c0 + c1 x + c2 x^2 - (h2 x^2 + h4 x^4)."""
    if kind == "e29":
        return example29(), rng.uniform(-2.5, 2.5)
    if kind == "s11":
        return stiefel11_builtin(), rng.uniform(-2.0, 2.0)
    rows = int(rng.integers(1, 4))
    g = [[rng.uniform(-2.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)]
         for _ in range(rows)]
    h = [[0.0, 0.0, rng.uniform(0.0, 1.0), 0.0, rng.uniform(0.0, 0.5)]
         for _ in range(rows)]
    problem = dataclasses.replace(
        example29(), constraint=polynomial_constraint_map(g, h))
    return problem, rng.uniform(-2.5, 2.5)


def _ordinal(x):
    """The position of a float in the ordered floats, 0.0 and -0.0 at 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -2 ** 63 - i


def test_one_sided_search_agrees_with_the_two_sided_one():
    """Constrained 1-D subproblems with random convex quadratic objectives,
    solved from no hint, from the base point, from a random point of the box
    (often infeasible) and from a point outside the box, agree with the
    two-sided search of the constraint's minimum: same status, each lower
    bound at most the other's value, and x within 4 ulps on the boundary;
    an interior x within 64 floats, its value within 4 ulps."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(["e29", "s11", "poly"]),
           st.sampled_from(["none", "base", "box", "outside"]),
           st.integers(0, 2 ** 32 - 1))
    def check(kind, hint, seed):
        rng = np.random.default_rng(seed)
        problem, z = _random_linearization(kind, rng)
        lo, hi = rng.uniform(-3.0, -0.5), rng.uniform(0.5, 3.0)
        q = float(rng.choice([0.0, rng.uniform(1e-3, 10.0)], p=[0.1, 0.9]))
        m = rng.uniform(lo - 1.0, hi + 1.0)
        objective = quadratic_oracle(np.array([[q]]), np.array([-q * m]))
        lin = linearize_constraint(problem, np.array([z]))
        spec = SubproblemSpec(objective, box([lo], [hi]), lin, lin)
        x_hint = {"none": None, "base": [z], "box": [rng.uniform(lo, hi)],
                  "outside": [hi + 1.0]}[hint]
        rep = inner.solve_convex(spec, feasible_hint=x_hint)
        ref = solve_1d_reference(spec)
        assert rep.status == ref.status
        if ref.status == inner.INFEASIBLE:
            same_report(rep, ref)
            seen.add("infeasible")
            return
        x, x_ref = rep.x_hat[0], ref.x_hat[0]
        fx, f_ref = rep.objective_value, ref.objective_value
        inside = q > 0.0 and abs(x - m) <= 1e-9 * (1.0 + abs(m))
        if inside:
            # an interior minimum is flat across several floats, and each
            # search may stop at a different float of it
            assert abs(_ordinal(x) - _ordinal(x_ref)) <= 64
            assert abs(fx - f_ref) <= 4.0 * math.ulp(
                max(abs(fx), abs(f_ref), 1.0))
        else:
            assert abs(x - x_ref) <= 4.0 * math.ulp(max(abs(x), abs(x_ref)))
        assert fx - rep.gap_bound <= f_ref
        assert f_ref - ref.gap_bound <= fx
        seen.add(("interior" if inside else "boundary",
                  x_hint is not None and lo <= x_hint[0] <= hi
                  and lin.scalarized(np.array(x_hint)) <= 0.0))

    check()
    assert seen == {"infeasible", ("interior", True), ("interior", False),
                    ("boundary", True), ("boundary", False)}


def test_a_feasible_hint_is_searched_from_toward_descent(monkeypatch):
    """Example 29 linearized at 2 with objective (x - 0.5)^2 and hint 2: the
    objective rises at 2, so the constraint is evaluated only at 2 and
    toward the lower end, and never minimized."""
    from coneccp import subproblem

    p = example29()
    x = np.array([2.0])
    spec = build_constrained(p, x, p.objective.h0.subgrad(x))
    at, subgrads = [], []
    value = subproblem.LinearizedConstraint.value
    subgrad = subproblem.LinearizedConstraint.scalarized_subgrad
    monkeypatch.setattr(subproblem.LinearizedConstraint, "value",
                        lambda self, y: at.append(y[0]) or value(self, y))
    monkeypatch.setattr(subproblem.LinearizedConstraint, "scalarized_subgrad",
                        lambda self, y: subgrads.append(y[0]) or
                        subgrad(self, y))
    rep = inner.solve_convex(spec, feasible_hint=x)
    assert at and max(at) == 2.0
    assert subgrads == []
    same_report(rep, solve_1d_reference(
        build_constrained(p, x, p.objective.h0.subgrad(x))))


@pytest.mark.parametrize("hint", [[12.0], [-10.5], [np.nan], [0.5]],
                         ids=["above", "below", "nan", "infeasible"])
def test_a_1d_hint_outside_the_set_or_constraint_is_ignored(hint):
    p = example29()
    x = np.array([2.0])
    v = p.objective.h0.subgrad(x)
    plain = inner.solve_convex(build_constrained(p, x, v))
    same_report(inner.solve_convex(build_constrained(p, x, v),
                                    feasible_hint=hint), plain)


@pytest.mark.parametrize("hint", [[5.0, 5.0], [np.nan, np.nan],
                                  [0.0, np.inf]], ids=["far", "nan", "inf"])
def test_a_hint_outside_the_set_does_not_seed_kelley(hint):
    fs = box([-1.0, -1.0], [1.0, 1.0])
    assert not fs.contains(hint)
    spec = bare_spec(quadratic_oracle(np.eye(2), -10.0 * np.ones(2)), fs)
    plain = inner.solve_convex(spec)
    hinted = inner.solve_convex(spec, feasible_hint=np.array(hint))
    assert fs.contains(hinted.x_hat)
    assert hinted.x_hat == pytest.approx([1.0, 1.0])
    same_report(hinted, plain)


def test_master_outgrowing_its_buffers_keeps_every_bit(monkeypatch):
    """Masters that start with one or two spare rows and tableau columns
    grow by doubling, re-optimizing warm across every growth: the CCP and
    penalty runs match the default capacity bit for bit."""
    problems = [quadratic_sdp(seed, validate=False) for seed in range(6)]
    cfg = PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-7, tau_max=1e7,
                        max_iter=10)

    def fingerprint(trace):
        return (trace.termination, [
            (r.n, r.x.tobytes(), r.f0, r.infeas, r.subproblem_status,
             r.s_norm, r.tau, r.merit) for r in trace.records])

    def runs():
        rng = np.random.default_rng(0)
        out = []
        for q in problems:
            x_bar = q.known_facts["strictly_feasible_point"]
            out.append(run_ccp(q, x_bar, CcpConfig(max_iter=6)))
            out.append(run_penalty_ccp(q, rng.uniform(-2, 2, 2), cfg))
        s22 = stiefel(2, 2)
        out.append(run_ccp(s22, s22.known_facts["orthonormal_point"],
                           CcpConfig(max_iter=6)))
        out.append(run_penalty_ccp(s22, rng.uniform(-1.5, 1.5, 4), cfg))
        return [fingerprint(tr) for tr in out]

    grows = []   # (size, need) of each tableau dimension that had to grow
    rows = []    # (affine rows, row capacity) of each master solved
    grown, solve = lp._grown, inner._Master.solve

    def counted(size, need):
        if need > size:
            grows.append((size, need))
        return grown(size, need)

    def recorded(self):
        rows.append((self.n_affine, self.b.size))
        return solve(self)

    monkeypatch.setattr(lp, "_grown", counted)
    monkeypatch.setattr(inner._Master, "solve", recorded)
    default = runs()
    for room in (1, 2):
        monkeypatch.setattr(lp, "ROOM", room)
        grows.clear()
        rows.clear()
        assert runs() == default
        # tableaux outgrew their first doubling, row buffers their first
        # capacity
        assert any(size > 2 * room + 4 for size, _ in grows)
        assert any(cap > 2 * (n + room) for n, cap in rows)
