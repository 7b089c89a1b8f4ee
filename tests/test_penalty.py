import copy

import numpy as np
import pytest

from coneccp import inner, penalty
from coneccp.ccp import Trace, run_ccp
from coneccp.errors import ConeCcpError, InfeasibleStart, InvariantViolation
from coneccp.library import example29, quadratic_sdp
from coneccp.penalty import (PenaltyConfig, _penalty_update,
                             check_merit_decrease, detect_feasible_handoff,
                             run_penalty_ccp)
from coneccp.subproblem import build_constrained, build_penalized, recover_slack

from oracles import replay_step4

REFERENCE_CFG = dict(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0)


class TestGoldenRuns:
    def test_escapes_local_solution(self):
        cfg = PenaltyConfig(**REFERENCE_CFG)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        assert tr.records[1].x[0] == pytest.approx(-0.75, abs=1e-4)
        assert abs(tr.final_x[0]) <= 0.01
        assert replay_step4(tr, cfg)

    def test_unbounded_penalty_reaches_global_solution(self):
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0, tau_max=1e9)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        assert abs(tr.final_x[0]) <= 1e-3
        assert replay_step4(tr, cfg)

    def test_large_initial_penalty_freezes_the_start(self):
        # 1.5 is the exact-penalty threshold at -1: the first subproblem
        # already has its optimum at the base point
        cfg = PenaltyConfig(tau0=1.5, mu=2.0, kappa=1e-6, tau_max=1024.0)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        assert tr.termination == penalty.FIXED_POINT
        assert tr.iterations == 1
        assert abs(tr.records[1].x[0] - tr.records[0].x[0]) <= 1e-6

    @pytest.mark.parametrize("tau0", [1e14, 1e300])
    def test_huge_initial_penalty_freezes_the_start(self, tau0):
        # the first subproblem's optimum is the base point at any scale
        # above 1.5; from 3e13 up a subgradient that skipped eigenvalues in
        # (0, 1e-12] stepped off -1 and raised "merit increased"
        tr = run_penalty_ccp(example29(), [-1.0],
                             PenaltyConfig(tau0=tau0, mu=2.0))
        assert tr.termination == penalty.FIXED_POINT
        assert tr.iterations == 1
        assert tr.final_x[0] == -1.0

    def test_start_outside_set_rejected(self):
        with pytest.raises(InfeasibleStart):
            run_penalty_ccp(example29(), [12.0], PenaltyConfig(**REFERENCE_CFG))


class TestMeritMonotonicity:
    def test_reference_parameter_run(self):
        tr = run_penalty_ccp(example29(), [-1.0], PenaltyConfig(**REFERENCE_CFG))
        assert check_merit_decrease(tr)

    def test_constant_penalty_segments_nonincreasing(self):
        tr = run_penalty_ccp(example29(), [-1.0],
                             PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0,
                                           tau_max=1e9))
        for a, b in zip(tr.records, tr.records[1:]):
            if a.tau == b.tau:
                assert b.merit <= a.merit + 1e-8 * (1.0 + abs(a.merit))

    def test_single_record_trace(self):
        tr = run_penalty_ccp(example29(), [-1.0], PenaltyConfig(**REFERENCE_CFG))
        one = Trace(records=tr.records[:1], termination=tr.termination)
        assert check_merit_decrease(one)

    def test_corrupted_record_detected(self):
        tr = run_penalty_ccp(example29(), [-1.0], PenaltyConfig(**REFERENCE_CFG))
        bad = copy.deepcopy(tr)
        bad.records[1].f0 += 5.0
        assert not check_merit_decrease(bad)

    def test_ccp_trace_is_refused(self):
        with pytest.raises(ConeCcpError, match="no penalty fields"):
            check_merit_decrease(run_ccp(example29(), [2.0]))


class TestPenaltySchedule:
    def test_monotone_and_capped(self):
        cfg = PenaltyConfig(**REFERENCE_CFG)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        taus = [r.tau for r in tr.records]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        assert max(taus) <= max(cfg.tau0, cfg.tau_max)
        assert replay_step4(tr, cfg)

    def test_replay_detects_tampering(self):
        cfg = PenaltyConfig(**REFERENCE_CFG)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        bad = copy.deepcopy(tr)
        bad.records[2].tau *= 2.0
        assert not replay_step4(bad, cfg)

    def test_update_rule_cases(self):
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=8.0)
        assert _penalty_update(1.0, 0.5, cfg, 1.0) == 2.0
        assert _penalty_update(1.0, 1e-7, cfg, 1.0) == 1.0  # below kappa
        assert _penalty_update(8.0, 0.5, cfg, 1.0) == 8.0   # cap reached
        zero = PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0, tau_max=8.0)
        assert _penalty_update(1.0, 0.0, zero, 1.0) == 1.0  # slack exactly 0
        assert _penalty_update(1.0, 1e-9, zero, 1.0) == 2.0


class TestSlackLink:
    def test_infeasibility_bounded_by_slack_norm(self):
        tr = run_penalty_ccp(example29(), [-1.0], PenaltyConfig(**REFERENCE_CFG))
        for r in tr.records[1:]:
            assert r.infeas <= r.s_norm + 1e-8


class TestFeasibleHandoff:
    def test_ccp_trace_is_refused(self):
        with pytest.raises(ConeCcpError, match="no penalty fields"):
            detect_feasible_handoff(run_ccp(example29(), [2.0]))

    def test_handoff_exists_on_penalty_growth_run(self):
        tr = run_penalty_ccp(example29(), [-1.0],
                             PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0,
                                           tau_max=1e9))
        m = detect_feasible_handoff(tr, tol_feas=0.0)
        assert m is not None
        tail = [r for r in tr.records if r.n >= m]
        assert all(r.infeas <= 1e-7 for r in tail)

    def test_tail_descends_once_slack_vanishes(self):
        # trajectory with exact subproblems throughout: slack is zero from
        # the start, so the whole run must behave like the feasible method
        tr = run_penalty_ccp(example29(), [2.0],
                             PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0,
                                           tau_max=float("inf")))
        m = detect_feasible_handoff(tr, tol_feas=0.0)
        assert m == 0
        tail = tr.records
        assert all(r.infeas <= 1e-7 for r in tail)
        assert len(tail) >= 4
        for a, b in zip(tail[:-2], tail[1:-1]):
            assert b.f0 < a.f0 - 1e-10

    def test_absent_on_all_infeasible_synthetic_trace(self):
        tr = run_penalty_ccp(example29(), [-1.0], PenaltyConfig(**REFERENCE_CFG))
        synthetic = copy.deepcopy(tr)
        for r in synthetic.records:
            r.s_norm = 1.0
        assert detect_feasible_handoff(synthetic, tol_feas=1e-7) is None

    def test_feasible_start_above_threshold(self):
        cfg = PenaltyConfig(tau0=2.0, mu=2.0, kappa=1e-6, tau_max=1024.0)
        tr = run_penalty_ccp(example29(), [-1.0], cfg)
        m = detect_feasible_handoff(tr, tol_feas=1e-9)
        assert m in (0, 1)


class TestExactness:
    def test_penalty_above_threshold_gives_zero_slack(self):
        # at base -1 the exact-penalty threshold is 1.5; at or above it the
        # penalized minimizer is the constrained one with slack zero
        p = example29()
        base = np.array([-1.0])
        v = p.objective.h0.subgrad(base)
        con = inner.solve_convex(build_constrained(p, base, v))
        for tau in (1.5, 2.0, 4.0):
            spec = build_penalized(p, base, v, tau)
            rep = inner.solve_convex(spec)
            s = recover_slack(spec, rep.x_hat)
            assert s.norm() == 0.0
            assert rep.x_hat[0] == pytest.approx(con.x_hat[0], abs=1e-8)

    def test_below_threshold_leaves_the_region(self):
        p = example29()
        base = np.array([-1.0])
        spec = build_penalized(p, base, p.objective.h0.subgrad(base), 1.0)
        rep = inner.solve_convex(spec)
        s = recover_slack(spec, rep.x_hat)
        assert s.norm() > 0.1

    def test_bounded_penalty_on_interior_trajectory(self):
        # from a feasible start inside the region where the linearized
        # problem has interior, exactness keeps every slack at zero and the
        # penalty never grows even with kappa = 0 and no cap
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=0.0, tau_max=float("inf"))
        tr = run_penalty_ccp(example29(), [2.0], cfg)
        assert all(r.tau == 1.0 for r in tr.records)
        assert all(r.s_norm == 0.0 for r in tr.records)
        assert all(r.infeas <= 1e-7 for r in tr.records)
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-4)


class TestOnSemidefiniteInstance:
    def test_infeasible_start_reaches_feasibility(self):
        p = quadratic_sdp(9)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-2.5, 2.5, 2)
        cfg = PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-7, tau_max=1e7,
                            max_iter=80)
        tr = run_penalty_ccp(p, x0, cfg)
        assert check_merit_decrease(tr)
        assert replay_step4(tr, cfg)
        assert tr.records[-1].infeas <= 1e-6
        for r in tr.records[1:]:
            assert r.infeas <= r.s_norm + 1e-8


class TestInvariants:
    def test_merit_increase_raises(self, monkeypatch):
        # from the feasible x = -1 (merit 2.25) a step to x = 5 raises f0
        # alone to 20.25, whatever the slack
        worse = inner.SolveReport(np.array([5.0]), 0.0, 0.0, inner.OPTIMAL)
        monkeypatch.setattr(inner, "solve_convex",
                            lambda spec, **kwargs: worse)
        with pytest.raises(InvariantViolation, match="merit increased"):
            run_penalty_ccp(example29(), [-1.0],
                            PenaltyConfig(**REFERENCE_CFG))

    def test_inner_iteration_limit_ends_the_run(self, monkeypatch):
        monkeypatch.setattr(inner, "MAX_CUTS", 2)
        p = quadratic_sdp(9)
        x0 = np.array([2.0, -2.0])
        tr = run_penalty_ccp(p, x0, PenaltyConfig(**REFERENCE_CFG))
        assert tr.termination == penalty.INNER_ITER_LIMIT
        assert tr.iterations == 0 and np.array_equal(tr.final_x, x0)


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConeCcpError):
            PenaltyConfig(tau0=0.0, mu=2.0)
        with pytest.raises(ConeCcpError):
            PenaltyConfig(tau0=1.0, mu=1.0)
        with pytest.raises(ConeCcpError):
            PenaltyConfig(tau0=1.0, mu=2.0, kappa=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("eps_merit", 0.0), ("eps_merit", -1.0), ("eps_merit", np.nan),
        ("kappa", -1.0), ("kappa", np.nan), ("tau0", np.inf),
        ("tau0", np.nan), ("mu", np.inf), ("mu", np.nan)])
    def test_out_of_range_field_rejected_by_name(self, field, value):
        with pytest.raises(ConeCcpError, match=rf"^{field}\b"):
            PenaltyConfig(**{"tau0": 1.0, "mu": 2.0, field: value})

    @pytest.mark.parametrize("max_iter", [-1, 2.5, 3.0, True, "5", None])
    def test_max_iter_must_be_a_nonnegative_int(self, max_iter):
        with pytest.raises(ConeCcpError, match="max_iter"):
            PenaltyConfig(tau0=1.0, mu=2.0, max_iter=max_iter)


def test_the_seed_decomposes_each_block_once(monkeypatch):
    # the seed record asks for the positive part and the distance to -K of
    # one F(x0); quadratic_sdp has one PSD block of order 2
    q = quadratic_sdp(3)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw:
                        calls.append(1) or real(a, *args, **kw))
    tr = run_penalty_ccp(q, [2.5, -2.5],
                         PenaltyConfig(tau0=1.0, mu=2.0, max_iter=0))
    assert len(calls) == 1
    assert tr.records[0].infeas > 0.0
