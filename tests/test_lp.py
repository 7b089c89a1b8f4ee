import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneccp import lp

try:
    from scipy.optimize import linprog
except ImportError:
    linprog = None


def brute_force_box_lp(c, A, b, lo, hi, grid=41):
    """Grid search over the box, oracle for tiny LPs."""
    axes = [np.linspace(l, h, grid) for l, h in zip(lo, hi)]
    best = None
    for x in itertools.product(*axes):
        x = np.array(x)
        if A.shape[0] and np.any(A @ x > b + 1e-9):
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


class TestSolveLp:
    def test_simple_vertex(self):
        # max x+y on the unit box cut by x + y <= 1.5
        res = lp.solve_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
                          np.array([1.5]), np.zeros(2), np.ones(2))
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(-1.5, abs=1e-12)

    def test_negative_rhs_needs_phase_one(self):
        # x >= 1 encoded as -x <= -1 on [0, 3]
        res = lp.solve_lp(np.array([1.0]), np.array([[-1.0]]),
                          np.array([-1.0]), np.array([0.0]), np.array([3.0]))
        assert res.status == lp.OPTIMAL
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        res = lp.solve_lp(np.array([1.0]), np.array([[1.0], [-1.0]]),
                          np.array([1.0, -2.0]), np.array([-5.0]),
                          np.array([5.0]))
        assert res.status == lp.INFEASIBLE

    def test_unbounded(self):
        res = lp.solve_lp(np.array([-1.0]), None, None,
                          np.array([0.0]), np.array([np.inf]))
        assert res.status == lp.UNBOUNDED

    def test_free_variable(self):
        # minimize r subject to r >= 1 - x, r >= x - 1, x in [0, 2]
        c = np.array([0.0, 1.0])
        A = np.array([[-1.0, -1.0], [1.0, -1.0]])
        b = np.array([-1.0, 1.0])
        res = lp.solve_lp(c, A, b, np.array([0.0, -np.inf]),
                          np.array([2.0, np.inf]))
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 4))
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m) + 0.5
            lo, hi = -np.ones(n), np.ones(n)
            res = lp.solve_lp(c, A, b, lo, hi)
            oracle = brute_force_box_lp(c, A, b, lo, hi)
            if oracle is None:
                continue  # grid found nothing; skip rather than trust it
            assert res.status == lp.OPTIMAL
            assert res.value <= oracle + 1e-9
            assert res.value >= oracle - 0.2  # grid resolution slack

    @pytest.mark.skipif(linprog is None, reason="scipy unavailable")
    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 8))
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m) + 1.0
            lo = np.where(rng.random(n) < 0.85, rng.uniform(-3, 0, n), -np.inf)
            hi = np.where(rng.random(n) < 0.85, rng.uniform(0.5, 3, n), np.inf)
            res = lp.solve_lp(c, A, b, lo, hi)
            ref = linprog(c, A_ub=A if m else None, b_ub=b if m else None,
                          bounds=list(zip(
                              np.where(np.isfinite(lo), lo, None),
                              np.where(np.isfinite(hi), hi, None))),
                          method="highs")
            if ref.status == 2:
                assert res.status == lp.INFEASIBLE
            elif ref.status == 3:
                assert res.status == lp.UNBOUNDED
            elif ref.status == 0:
                assert res.status == lp.OPTIMAL
                assert res.value == pytest.approx(ref.fun, abs=1e-7,
                                                  rel=1e-7)

    def test_degenerate_does_not_cycle(self):
        # classic cycling-prone instance (degenerate vertex at the origin);
        # the Bland switch must still reach the optimum
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        A = np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        res = lp.solve_lp(c, A, b, np.zeros(4), np.full(4, np.inf))
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(-0.05, abs=1e-9)


def highs(c, A, b, lo, hi):
    """(status, value) of scipy's HiGHS, in lp's status names."""
    ref = linprog(c, A_ub=A if A.shape[0] else None,
                  b_ub=b if A.shape[0] else None,
                  bounds=[(l if np.isfinite(l) else None,
                           h if np.isfinite(h) else None)
                          for l, h in zip(lo, hi)],
                  method="highs")
    status = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[ref.status]
    return status, ref.fun


@contextmanager
def counting_kernel_calls():
    """Yields a list of [calls, pivots] pairs: append one before each
    solve, and the wrapped primal kernel counts into the last."""
    calls = []
    kernel = lp._kernel
    pivot_loop = kernel.pivot_loop

    def counted(*args, **kwargs):
        status, pivots = pivot_loop(*args, **kwargs)
        calls[-1][0] += 1
        calls[-1][1] += pivots
        return status, pivots

    kernel.pivot_loop = counted
    try:
        yield calls
    finally:
        kernel.pivot_loop = pivot_loop


HALVES = st.integers(-6, 6).map(lambda k: k / 2.0)


@st.composite
def master_chains(draw):
    """A chain of Kelley masters over a box in x and a free epigraph
    variable t: affine rows, then one or two rows appended per step.

    Rows repeat or scale earlier ones (degenerate masters), and a last
    constraint cut may exclude the whole box (an infeasible master).
    """
    d = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.integers(-3, 0), min_size=d, max_size=d)),
                  dtype=float)
    hi = lo + draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    vec = st.lists(HALVES, min_size=d, max_size=d).map(np.array)
    rows, rhs = [], []

    def add(g, t_coef, beta):
        rows.append(np.append(g, t_coef))
        rhs.append(float(beta))

    for _ in range(draw(st.integers(0, 2))):  # affine rows
        a = draw(vec)
        add(a, 0.0, a @ (lo + hi) / 2 + draw(st.integers(0, 2)))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(
                ["objective", "objective", "constraint", "repeat", "parallel"]))
            if kind in ("repeat", "parallel") and rows:
                k = draw(st.integers(0, len(rows) - 1))
                scale = 1.0 if kind == "repeat" else draw(
                    st.sampled_from([0.5, 2.0, 3.0]))
                rows.append(scale * rows[k])
                rhs.append(scale * rhs[k] + draw(st.sampled_from([0.0, 1.0])))
            else:
                add(draw(vec), -1.0 if kind == "objective" else 0.0,
                    draw(HALVES))
        steps.append(len(rows))
    if draw(st.integers(0, 3)) == 0:
        # a constraint cut g'x <= beta below the minimum of g'x over the box
        g = draw(vec)
        add(g, 0.0, np.minimum(g * lo, g * hi).sum() - 0.5)
        steps.append(len(rows))
    c = np.append(np.zeros(d), 1.0)
    lo = np.append(lo, -np.inf)
    hi = np.append(hi, np.inf)
    return c, np.array(rows), np.array(rhs), lo, hi, steps


@pytest.mark.skipif(linprog is None, reason="scipy unavailable")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(master_chains())
def test_warm_chain_matches_cold_and_highs(chain):
    c, A, b, lo, hi, steps = chain
    state = None
    with counting_kernel_calls() as calls:
        for m in steps:
            calls.append([0, 0])
            warm = lp.solve_lp(c, A[:m], b[:m], lo, hi, warm=state)
            kernel_warm = tuple(calls[-1])
            cold = lp.solve_lp(c, A[:m], b[:m], lo, hi)
            ref_status, ref_value = highs(c, A[:m], b[:m], lo, hi)
            assert warm.status == cold.status == ref_status
            if ref_status == lp.OPTIMAL:
                scale = max(1.0, abs(ref_value))
                assert abs(warm.value - ref_value) <= 1e-7 * scale
                assert abs(cold.value - ref_value) <= 1e-7 * scale
                assert np.all(A[:m] @ warm.x <= b[:m] + 1e-9)
                if state is not None:
                    # re-optimized from the previous basis: no phase 1, and
                    # the dual simplex kept every reduced cost nonnegative,
                    # so the primal clean-up has nothing left to do
                    assert kernel_warm == (1, 0)
            state = warm.state


# ---------------------------------------------------------------------------
# The warm state's ownership contract


@contextmanager
def counting_dual_loops():
    """Yields a one-element list counting calls of the dual kernel, which
    only a warm re-solve makes."""
    calls = [0]
    kernel = lp._kernel
    dual_loop = kernel.dual_loop

    def counted(*args, **kwargs):
        calls[0] += 1
        return dual_loop(*args, **kwargs)

    kernel.dual_loop = counted
    try:
        yield calls
    finally:
        kernel.dual_loop = dual_loop


def kelley_master():
    """c, lo, hi of a master over the box [-1, 1]^2 with a free epigraph
    variable t, and row buffers holding five cuts of |x|^2 - x_1."""
    f = lambda p: float(p @ p) - p[0]
    grad = lambda p: 2.0 * p - np.array([1.0, 0.0])
    points = [np.array(p) for p in
              ([0.0, 0.0], [0.9, -0.8], [-0.7, 0.6], [0.5, 0.5], [0.2, -0.3])]
    A = np.array([np.append(grad(p), -1.0) for p in points])
    b = np.array([float(grad(p) @ p) - f(p) for p in points])
    c = np.array([0.0, 0.0, 1.0])
    lo = np.array([-1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, np.inf])
    return c, A, b, lo, hi


def assert_solved_cold(res, c, A, b, lo, hi):
    """res is bit for bit the cold solve, and HiGHS agrees."""
    cold = lp.solve_lp(c, A, b, lo, hi)
    assert (res.status, res.value) == (cold.status, cold.value)
    assert res.x.tobytes() == cold.x.tobytes()
    ref_status, ref_value = highs(c, A, b, lo, hi)
    assert res.status == ref_status
    assert abs(res.value - ref_value) <= 1e-7 * max(1.0, abs(ref_value))


@pytest.mark.skipif(linprog is None, reason="scipy unavailable")
class TestWarmStateLifecycle:
    def test_consumed_state_is_solved_cold(self):
        c, A, b, lo, hi = kelley_master()
        state = lp.solve_lp(c, A[:2], b[:2], lo, hi).state
        with counting_dual_loops() as calls:
            lp.solve_lp(c, A[:3], b[:3], lo, hi, warm=state)
            assert calls == [1]
            again = lp.solve_lp(c, A[:4], b[:4], lo, hi, warm=state)
            assert calls == [1]
        assert_solved_cold(again, c, A[:4], b[:4], lo, hi)

    def test_branched_state_is_solved_cold(self):
        # one state extended twice with different third rows of its buffer
        c, A, b, lo, hi = kelley_master()
        state = lp.solve_lp(c, A[:2], b[:2], lo, hi).state
        with counting_dual_loops() as calls:
            lp.solve_lp(c, A[:3], b[:3], lo, hi, warm=state)
            A[2], b[2] = A[3], b[3]
            branch = lp.solve_lp(c, A[:3], b[:3], lo, hi, warm=state)
            assert calls == [1]
        assert_solved_cold(branch, c, A[:3], b[:3], lo, hi)

    def test_foreign_rows_or_objects_are_solved_cold(self):
        c, A, b, lo, hi = kelley_master()
        state = lp.solve_lp(c, A[:2], b[:2], lo, hi).state
        foreign = [
            (c, np.array(A[:3]), b[:3], lo, hi),          # a fresh array
            (c, A.copy()[:3], b.copy()[:3], lo, hi),      # other buffers
            (c, A[:3], np.array(b[:3]), lo, hi),          # a fresh rhs
            (c.copy(), A[:3], b[:3], lo, hi),             # an equal c
            (c, A[:3], b[:3], lo.copy(), hi),             # equal bounds
            (c, A[:3], b[:3], lo, hi.copy()),
        ]
        with counting_dual_loops() as calls:
            for args in foreign:
                assert_solved_cold(lp.solve_lp(*args, warm=state), *args)
            assert calls == [0]
            # none of them consumed the state: the owner still extends it
            warm = lp.solve_lp(c, A[:3], b[:3], lo, hi, warm=state)
            assert calls == [1]
        cold = lp.solve_lp(c, A[:3], b[:3], lo, hi)
        assert warm.status == cold.status == lp.OPTIMAL
        assert abs(warm.value - cold.value) <= 1e-9 * max(1.0, abs(cold.value))
