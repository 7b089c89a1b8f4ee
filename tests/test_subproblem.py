import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneccp import inner
from coneccp.cones import (Orthant, ProductCone, PsdCone, eigenpairs,
                          lambda_max_scalarize)
from coneccp.dc import (ConeDcMap, ConeDerivative, KConvexOracle,
                        ScalarDcFunction, SmoothKConvexOracle,
                        quadratic_oracle)
from coneccp.errors import InvalidPenalty
from coneccp.feasible import box
from coneccp.library import (ProblemInstance, example29, quadratic_sdp, stiefel,
                             stiefel11_builtin)
from coneccp.subproblem import (build_constrained, build_penalized,
                                linearize_constraint, recover_slack)

from oracles import constrained_reference, penalized_reference


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

    def test_interval_and_minimizer_at_base_two(self, monkeypatch):
        a, b = interval_oracle(2.0)
        assert a == pytest.approx(16.0 - np.sqrt(208.0), abs=1e-12)
        assert b == pytest.approx(16.0 + np.sqrt(208.0), abs=1e-12)
        p = example29()
        spec = build_constrained(p, np.array([2.0]),
                                 p.objective.h0.subgrad(np.array([2.0])))
        monkeypatch.setattr(inner, "TOL_FEAS", 1e-10)
        rep = inner.solve_convex(spec)
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
        for tau in (0.0, -2.0, np.nan, np.inf):
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
        # no midpoint of the built objectives lies above its chord
        p = quadratic_sdp(5)
        base = np.array([0.2, -0.4])
        v = p.objective.h0.subgrad(base)
        fs = p.feasible_set
        for seed, spec in enumerate((build_penalized(p, base, v, 2.0),
                                     build_constrained(p, base, v))):
            f = spec.objective.value
            rng = np.random.default_rng(seed)
            for _ in range(60):
                x, y = rng.uniform(fs.lo, fs.hi), rng.uniform(fs.lo, fs.hi)
                mid = f(0.5 * (x + y))
                assert mid <= 0.5 * (f(x) + f(y)) + 1e-9 * (1.0 + abs(mid))


# ---------------------------------------------------------------------------
# The penalized subgradient against its value across the kinks of pos(lin)


def _spectrum(lin, x):
    """The eigenvalues of every block of the linearization at x, in order."""
    return np.concatenate([w for _, w, _ in eigenpairs(lin.value(x))])


def _crossing(phi, level):
    """Adjacent floats a < b of [0, 1] across which phi crosses level."""
    a, b = 0.0, 1.0
    below = phi(a) <= level
    while (m := 0.5 * (a + b)) not in (a, b):
        if (phi(m) <= level) == below:
            a = m
        else:
            b = m
    return a, b


def _lin_scale(lin, x):
    """|G(x)| + |H(x_n)| + |DH(x_n)(x - x_n)|: the size of the terms whose
    rounding moves an eigenvalue of the linearization at x."""
    step = lin.dh_base.apply_blocks(x - lin.base_point)
    return (lin.gmap.value(x).norm() + lin.h_base.norm()
            + float(np.sqrt(sum(float(np.sum(s * s)) for s in step))))


def _subgradient_defect(spec, tau, points):
    """The largest f(x) + g(x)(y - x) - f(y) over the pairs of points, in
    units of its rounding: 4 ulps of max(|f|, 1), plus tau times 4 ulps of
    the linearization's terms, which the slack cost scales by tau."""
    f, g, lin = spec.objective.value, spec.objective.subgrad, spec.lin
    eps = np.finfo(float).eps
    worst = -np.inf
    for x in points:
        fx, gx, sx = f(x), g(x), _lin_scale(lin, x)
        for y in points:
            fy = f(y)
            tol = (4.0 * math.ulp(max(abs(fx), abs(fy), 1.0))
                   + 4.0 * eps * tau * (sx + _lin_scale(lin, y)))
            worst = max(worst, (fx + float(gx @ (y - x)) - fy) / tol)
    return worst


@pytest.mark.parametrize("tau", [1.0, 1e8, 1e14])
@pytest.mark.parametrize("make", [
    example29, stiefel11_builtin, *(
        (lambda s=s: quadratic_sdp(s)) for s in range(4))],
    ids=["example29", "stiefel11", *(f"quadratic_sdp{s}" for s in range(4))])
def test_penalized_subgradient_holds_across_the_kinks(make, tau):
    # the slack cost is priced on the eigenvalues w > 0; a subgradient that
    # left out those in (0, 1e-12] broke this inequality by up to tau 1e-12
    p = make()
    fs = p.feasible_set
    rng = np.random.default_rng(7)
    segments = 0
    for _ in range(2):
        x_n = rng.uniform(fs.lo, fs.hi)
        spec = build_penalized(p, x_n, p.objective.h0.subgrad(x_n), tau)
        for _ in range(200):
            u, w = rng.uniform(fs.lo, fs.hi), rng.uniform(fs.lo, fs.hi)
            flips = np.nonzero((_spectrum(spec.lin, u) <= 0.0)
                               != (_spectrum(spec.lin, w) <= 0.0))[0]
            if flips.size:
                break
        else:
            continue
        j = flips[0]
        phi = lambda t: _spectrum(spec.lin, u + t * (w - u))[j]
        # floats on each side of the kink, and where 0 < eigenvalue <= 1e-12
        points = [u + t * (w - u) for level in (-1e-12, 0.0, 1e-14, 5e-13)
                  for t in _crossing(phi, level)]
        assert _subgradient_defect(spec, tau, points) <= 1.0
        segments += 1
    assert segments


def test_penalized_subgradient_at_a_tiny_positive_linearization():
    # at -0.9999999999999989 the linearization is 2.2e-15 > 0: the value
    # prices it, so the subgradient must carry tau times its derivative
    p = example29()
    x, y = np.array([-0.9999999999999989]), np.array([-1.0])
    spec = build_penalized(p, x, p.objective.h0.subgrad(x), 1e14)
    assert 0.0 < spec.lin.scalarized(x) <= 1e-12
    f, g = spec.objective.value, spec.objective.subgrad
    assert g(x)[0] == pytest.approx(2e14, rel=1e-6)
    assert f(y) >= f(x) + float(g(x) @ (y - x)) - 4.0 * math.ulp(f(x))


# ---------------------------------------------------------------------------
# One evaluation per point: the memoized oracles against fresh evaluations


CONES = {
    "psd": lambda: PsdCone(3),
    "orthant": lambda: Orthant(3),
    "product": lambda: ProductCone((PsdCone(2), Orthant(2), PsdCone(1))),
}


def random_problem(cone, d, rng):
    """G(x) = C + sum_i x_i B_i + (mu/2)|x|^2 e and H(x) = (rho/2)|x|^2 E per
    block, with E in the cone; a quadratic objective on the box [-2, 2]^d."""
    mu, rho = 1.5, 2.0
    data = []
    for leaf in cone.leaves():
        if isinstance(leaf, PsdCone):
            l = leaf.order
            sym = lambda M: 0.5 * (M + M.T)
            W = rng.normal(size=(l, l))
            data.append((sym(rng.normal(size=(l, l))),
                         np.array([sym(rng.normal(size=(l, l)))
                                   for _ in range(d)]),
                         np.eye(l), W @ W.T))
        else:
            m = leaf.dim
            data.append((rng.normal(size=m), rng.normal(size=(d, m)),
                         np.ones(m), rng.uniform(0.0, 1.0, m)))

    def g_value(x):
        sq = 0.5 * mu * float(x @ x)
        return cone.element(tuple(
            C + np.einsum("i,i...->...", x, B) + sq * e
            for C, B, e, _ in data))

    def g_qf_subgrad(x, k, v):
        _, B, _, _ = data[k]
        lin = (np.einsum("kij,i,j->k", B, v, v) if B.ndim == 3
               else B @ (v * v))
        return lin + mu * float(v @ v) * x

    def h_value(x):
        sq = 0.5 * rho * float(x @ x)
        return cone.element(tuple(sq * E for _, _, _, E in data))

    def h_derivative(x):
        return ConeDerivative(cone, tuple(
            rho * np.multiply.outer(x, E) for _, _, _, E in data))

    W = rng.normal(size=(d, d))
    objective = ScalarDcFunction(
        g0=quadratic_oracle(W @ W.T + np.eye(d), rng.normal(size=d)),
        h0=quadratic_oracle(0.5 * np.eye(d)), dim=d)
    constraint = ConeDcMap(cone, KConvexOracle(g_value, g_qf_subgrad),
                           SmoothKConvexOracle(h_value, h_derivative))
    return ProblemInstance("random", objective, constraint,
                           box(-2.0 * np.ones(d), 2.0 * np.ones(d)))


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CONES)), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_memoized_oracles_match_fresh_evaluations(kind, d, seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(CONES[kind](), d, rng)
    x_n = rng.uniform(-2.0, 2.0, d)
    v_n = problem.objective.h0.subgrad(x_n)
    tau = float(rng.uniform(0.1, 10.0))
    con = build_constrained(problem, x_n, v_n)
    pen = build_penalized(problem, x_n, v_n, tau)
    x, y = rng.uniform(-2.0, 2.0, d), rng.uniform(-2.0, 2.0, d)
    # points close to y, then one bit away from that: a memo keyed on
    # anything coarser than the bytes of x answers for y there
    y_near = y.copy()
    y_near[0] += 1e-9
    y_ulp = y_near.copy()
    y_ulp[0] = np.nextafter(y_near[0], np.inf)
    # one buffer holds every point in turn, so a memo that kept the array
    # or its identity instead of its bytes answers for a stale point
    buf = np.empty(d)
    asks = {
        "scalarized": lambda s, p: s.constraint.scalarized(p),
        "scalarized_subgrad": lambda s, p: s.constraint.scalarized_subgrad(p),
        "value": lambda s, p: s.objective.value(p),
        "subgrad": lambda s, p: s.objective.subgrad(p),
    }
    for point in (x, y, x, y_near, y_ulp, y_ulp):
        buf[:] = point
        scal, scal_sub = constrained_reference(problem, x_n, point)
        val, sub = penalized_reference(problem, x_n, v_n, tau, point)
        expect = {"scalarized": scal, "scalarized_subgrad": scal_sub,
                  "value": val, "subgrad": sub}
        for name in rng.permutation(sorted(asks)):
            spec = con if name.startswith("scalarized") else pen
            fresh = (build_constrained(problem, x_n, v_n) if spec is con
                     else build_penalized(problem, x_n, v_n, tau))
            got = asks[name](spec, buf)
            assert bits(got) == bits(asks[name](fresh, point.copy())), name
            assert bits(got) == bits(expect[name]), name
        lin_y = pen.lin.at(buf)
        for _, w, vecs in eigenpairs(lin_y):
            assert not (w.flags.writeable or vecs.flags.writeable)
        assert not any(b.flags.writeable for b in lin_y.blocks)


# eighs counts the PSD blocks of order 2 or more: an order-1 block is read
# off without eigh
@pytest.mark.parametrize("make,eighs", [
    (lambda: quadratic_sdp(3), 1),
    (lambda: stiefel(2, 2), 2),
    (lambda: random_problem(CONES["product"](), 3,
                            np.random.default_rng(0)), 1),
    (stiefel11_builtin, 0),
], ids=["quadratic_sdp", "stiefel22", "product", "stiefel11"])
def test_one_eigh_per_psd_block_per_visited_point(make, eighs, monkeypatch):
    problem = make()
    fs = problem.feasible_set
    x_n = 0.3 * fs.hi
    v_n = problem.objective.h0.subgrad(x_n)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(1) or
                        real(a, *args, **kw))
    x = 0.1 * fs.lo
    # one constrained Kelley visit: objective and constraint, value and
    # subgradient, two cuts, then the cut limit ends the loop
    monkeypatch.setattr(inner, "MAX_CUTS", 2)
    con = build_constrained(problem, x_n, v_n)
    run = inner._kelley_min(con.objective.value, con.objective.subgrad, fs,
                            1e-9, seeds=[x], constraint=con.constraint)
    assert run.cuts == 2
    assert len(calls) == eighs
    # the penalized value and subgradient at one point share their eigh
    calls.clear()
    pen = build_penalized(problem, x_n, v_n, 2.0)
    pen.objective.subgrad(x)
    pen.objective.value(x)
    assert len(calls) == eighs
