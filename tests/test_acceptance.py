"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from coneccp import ccp as ccp_mod
from coneccp import inner, penalty
from coneccp.ccp import CcpConfig, check_strong_descent, run_ccp
from coneccp.certificates import criticality_residual, kkt_residual
from coneccp.cones import PsdCone, inner as cone_inner, project_pos
from coneccp.convexity import verify_k_convexity
from coneccp.dc import (lambda_max_dc_decomposition, lambda_max_subgradient,
                        regularized_dc_decomposition)
from coneccp.feasible import box
from coneccp.library import (example29, nonconvex_witness, quadratic_sdp,
                             random_componentwise_dc, stiefel,
                             stiefel11_builtin, with_strong_convexity)
from coneccp.penalty import (PenaltyConfig, check_merit_decrease,
                             run_penalty_ccp)
from coneccp.subproblem import SubproblemSpec

from oracles import projected_gradient, replay_step4


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_penalty_reference_run():
    with criterion(1, "penalty CCP reference run escapes the local solution"):
        start = time.monotonic()
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        elapsed = time.monotonic() - start
        assert tr.records[1].x[0] == pytest.approx(-0.75, abs=1e-4)
        assert abs(tr.final_x[0]) <= 0.01
        assert elapsed < 2.0


def test_criterion_2_unbounded_penalty_run():
    with criterion(2, "penalty CCP with unbounded growth reaches the origin"):
        start = time.monotonic()
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0, tau_max=1e9)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        elapsed = time.monotonic() - start
        assert abs(tr.final_x[0]) <= 1e-3
        assert elapsed < 5.0


def test_criterion_3_threshold_penalty_freezes():
    with criterion(3, "penalty at the exactness threshold stops immediately"):
        cfg = PenaltyConfig(tau0=1.5, mu=2.0, kappa=1e-6, tau_max=1024.0)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        assert tr.iterations == 1
        assert abs(tr.records[1].x[0] - tr.records[0].x[0]) <= 1e-6


def test_criterion_4_ccp_reference_runs():
    with criterion(4, "CCP terminates critical / converges / stays per start"):
        p = example29()
        tr = run_ccp(p, [-1.0])
        assert tr.termination == ccp_mod.CRITICAL_FIXED_POINT
        assert tr.iterations == 1
        assert tr.final_x[0] == pytest.approx(-1.0, abs=1e-9)
        assert all(r.x[0] < 0 for r in tr.records)

        tr = run_ccp(p, [2.0])
        assert tr.iterations <= 50
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-4)
        f_vals = [r.f0 for r in tr.records]
        assert all(b < a for a, b in zip(f_vals, f_vals[1:]))
        assert all(r.x[0] > 0 for r in tr.records)

        tr = run_ccp(p, [0.0])
        assert all(abs(r.x[0]) <= 1e-9 for r in tr.records)


def test_criterion_5_certificates():
    with criterion(5, "KKT and criticality residuals at the known points"):
        p = example29()
        for x, lam in ((-1.0, 1.5), (1.0, 0.5)):
            res = kkt_residual(p, [x], np.zeros(1),
                               p.constraint.cone.element(np.array([lam])))
            assert res.stationarity <= 1e-8
            assert res.complementarity <= 1e-8
            assert res.dual_feasibility <= 1e-8
        for x in (-1.0, 0.0, 1.0):
            assert criticality_residual(p, [x]) <= 1e-8
        assert criticality_residual(p, [2.0]) >= 0.1


def test_criterion_6_eigenvalue_split():
    with criterion(6, "largest-eigenvalue DC split: identity, convexity, "
                      "subgradients"):
        rng = np.random.default_rng(0)
        for seed in range(10):
            F = random_componentwise_dc(seed, order=3, dim=2)
            split = lambda_max_dc_decomposition(F)
            for _ in range(100):
                x = rng.uniform(-2, 2, 2)
                lam = float(np.linalg.eigvalsh(F.value(x))[-1])
                assert abs(split.f0(x) - lam) <= 1e-10 * (1.0 + abs(lam))
            for orc in (split.g0, split.h0):
                for _ in range(30):
                    a = rng.uniform(-2, 2, 2)
                    b = rng.uniform(-2, 2, 2)
                    mid = 0.5 * (a + b)
                    gap = (0.5 * (orc.value(a) + orc.value(b))
                           - orc.value(mid))
                    assert gap >= -1e-9 * (1.0 + abs(orc.value(mid)))
        F = random_componentwise_dc(99, order=2, dim=2)
        split = lambda_max_dc_decomposition(F)
        for _ in range(500):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            xi_g, xi_h = lambda_max_subgradient(F, x)
            assert split.g0.value(y) >= split.g0.value(x) \
                + xi_g @ (y - x) - 1e-9 * (1.0 + abs(split.g0.value(x)))
            assert split.h0.value(y) >= split.h0.value(x) \
                + xi_h @ (y - x) - 1e-9 * (1.0 + abs(split.h0.value(x)))


def test_criterion_7_convexity_verifier():
    with criterion(7, "convexity verifier: witness, passes, negative control"):
        box1 = (np.array([-2.0]), np.array([2.0]))
        # componentwise-convex map that is not matrix convex: witness found
        verdict = verify_k_convexity(nonconvex_witness(), PsdCone(2), 200,
                                     box1, seed=0)
        assert not verdict.passed and verdict.witness.violation > 1e-9

        # orthogonality-constraint convex part passes
        st = stiefel(3, 2)
        assert verify_k_convexity(st.constraint.G, st.constraint.cone, 200,
                                  (st.feasible_set.lo, st.feasible_set.hi),
                                  seed=1).passed

        # regularized splits at and above the certified threshold pass
        rng = np.random.default_rng(2)
        for seed in range(3):
            inst = quadratic_sdp(seed, validate=False)
            bounds = (inst.feasible_set.lo, inst.feasible_set.hi)
            assert verify_k_convexity(inst.constraint.G,
                                      inst.constraint.cone, 200, bounds,
                                      seed=seed).passed

        # negative control at half the certified weight on the map derived
        # from the componentwise-convex witness: half the threshold is still
        # exactly convex for this map, so sampling finding no witness is the
        # expected inconclusive-pass; a quarter of the threshold must fail
        F = nonconvex_witness()
        bound = 2.0
        half = regularized_dc_decomposition(F, hessian_bound=bound / 2.0,
                                            mu=F.order * bound / 2.0)
        verdict = verify_k_convexity(half.G, half.cone, 200, box1, seed=3)
        if verdict.passed:
            print("note: no witness in 200 samples at half weight "
                  "(map is exactly convex there); inconclusive-pass")
        quarter = regularized_dc_decomposition(F, hessian_bound=bound / 4.0,
                                               mu=F.order * bound / 4.0)
        verdict = verify_k_convexity(quarter.G, quarter.cone, 200, box1,
                                     seed=4)
        assert not verdict.passed


def _strict_descent(trace):
    f_vals = [r.f0 for r in trace.records]
    for a, b in zip(f_vals[:-2], f_vals[1:-1]):
        assert b < a - 1e-10
    if len(f_vals) >= 2:
        assert f_vals[-1] <= f_vals[-2] + 1e-10


def _merit_segments(trace):
    for a, b in zip(trace.records, trace.records[1:]):
        if a.tau == b.tau:
            assert b.merit <= a.merit + 1e-8 * (1.0 + abs(a.merit))


def test_criterion_8_invariant_suite():
    with criterion(8, "invariant suite over the library times 20 seeds"):
        start = time.monotonic()
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)

            # scalar quartic instance: CCP from feasible starts on each
            # convex component, penalty from a random box point
            p = example29()
            for x0 in (-1.0 - rng.uniform(0, 3), 1.0 + rng.uniform(0, 3),
                       0.0):
                tr = run_ccp(p, [x0], CcpConfig(max_iter=40))
                assert all(r.infeas <= 1e-7 for r in tr.records)
                _strict_descent(tr)
            cfg = PenaltyConfig(tau0=float(rng.uniform(0.2, 1.5)), mu=2.0,
                                kappa=1e-6, tau_max=1024.0, max_iter=60)
            trp = run_penalty_ccp(p, rng.uniform(-3, 3, 1), cfg)
            assert check_merit_decrease(trp)
            _merit_segments(trp)
            assert replay_step4(trp, cfg)
            for r in trp.records[1:]:
                assert r.infeas <= r.s_norm + 1e-8

            # quadratic matrix-inequality instance
            q = quadratic_sdp(seed, validate=False)
            x_bar = q.known_facts["strictly_feasible_point"]
            tr = run_ccp(q, x_bar, CcpConfig(max_iter=25))
            assert all(r.infeas <= 1e-7 for r in tr.records)
            _strict_descent(tr)
            qreg = with_strong_convexity(q, 1.0)
            trr = run_ccp(qreg, x_bar, CcpConfig(max_iter=25))
            assert check_strong_descent(trr, 1.0)
            cfg = PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-7, tau_max=1e7,
                                max_iter=50)
            trp = run_penalty_ccp(q, rng.uniform(-2, 2, 2), cfg)
            assert check_merit_decrease(trp)
            _merit_segments(trp)
            assert replay_step4(trp, cfg)
            for r in trp.records[1:]:
                assert r.infeas <= r.s_norm + 1e-8

            # orthogonality instances: CCP from the orthonormal point plus a
            # penalty run from a random start
            s11 = stiefel11_builtin()
            tr = run_ccp(s11, s11.known_facts["orthonormal_point"],
                         CcpConfig(max_iter=10))
            assert all(r.infeas <= 1e-7 for r in tr.records)
            cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0,
                                max_iter=40)
            trp = run_penalty_ccp(s11, rng.uniform(-2, 2, 1), cfg)
            assert check_merit_decrease(trp)
            _merit_segments(trp)
            assert replay_step4(trp, cfg)

            s22 = stiefel(2, 2)
            tr = run_ccp(s22, s22.known_facts["orthonormal_point"],
                         CcpConfig(max_iter=10))
            assert all(r.infeas <= 1e-7 for r in tr.records)
            cfg = PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-6, tau_max=1e6,
                                max_iter=30)
            trp = run_penalty_ccp(s22, rng.uniform(-1.5, 1.5, 4), cfg)
            assert check_merit_decrease(trp)
            _merit_segments(trp)
            assert replay_step4(trp, cfg)
            for r in trp.records[1:]:
                assert r.infeas <= r.s_norm + 1e-8
        elapsed = time.monotonic() - start
        print(f"note: invariant suite took {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_9_inner_solver_equivalence():
    with criterion(9, "inner solver matches projected gradient; cone checks"):
        rng = np.random.default_rng(0)
        from coneccp.dc import quadratic_oracle
        for _ in range(50):
            d = int(rng.integers(1, 4))
            W = rng.normal(size=(d, d))
            Q = W @ W.T + 0.5 * np.eye(d)
            q = rng.normal(size=d)
            lo = rng.uniform(-2.0, -0.5, d)
            hi = rng.uniform(0.5, 2.0, d)
            spec = SubproblemSpec(objective=quadratic_oracle(Q, q),
                                  feasible_set=box(lo, hi))
            rep = inner.solve_convex(spec)
            _, f_pg = projected_gradient(Q, q, lo, hi)
            assert rep.status == inner.OPTIMAL
            assert abs(rep.objective_value - f_pg) <= 1e-6

        # Moreau identity and slack-cost brute force on random elements
        from coneccp.cones import Orthant, lambda_max_scalarize, slack_cost
        psd = PsdCone(2)
        for _ in range(200):
            M = rng.normal(size=(2, 2))
            y = psd.element(0.5 * (M + M.T))
            pos, neg = project_pos(y), project_pos(-y)
            assert (y - (pos - neg)).norm() <= 1e-9 * (1.0 + y.norm())
            assert cone_inner(pos, neg) <= 1e-9 * (1.0 + y.norm() ** 2)
            tau = float(rng.uniform(0.5, 2.0))
            cost, _ = slack_cost(tau, y)
            w = np.linalg.eigvalsh(y.blocks[0])
            assert cost == pytest.approx(tau * sum(max(wi, 0.0) for wi in w),
                                         abs=1e-10)
        orth = Orthant(3)
        for _ in range(200):
            y = orth.element(rng.normal(size=3))
            cost, s_star = slack_cost(1.0, y)
            assert cost == pytest.approx(
                float(np.maximum(y.blocks[0], 0.0).sum()), abs=1e-12)
            assert lambda_max_scalarize(-s_star).value <= 0.0
