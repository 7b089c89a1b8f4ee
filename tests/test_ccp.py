import copy

import numpy as np
import pytest

from coneccp import ccp, inner
from coneccp.ccp import (CcpConfig, IterationTrace, check_strong_descent,
                         run_ccp)
from coneccp.certificates import criticality_residual
from coneccp.errors import ConeCcpError, InfeasibleStart, InvariantViolation
from coneccp.library import example29, quadratic_sdp, with_strong_convexity


class TestGoldenRuns:
    def test_start_at_local_solution_stops_immediately(self):
        tr = run_ccp(example29(), [-1.0])
        assert tr.termination == ccp.CRITICAL_FIXED_POINT
        assert tr.iterations == 1
        assert tr.final_x[0] == pytest.approx(-1.0, abs=1e-9)

    def test_start_right_of_global_solution(self):
        tr = run_ccp(example29(), [2.0])
        assert tr.termination in (ccp.CRITICAL_FIXED_POINT,
                                  ccp.SMALL_OBJECTIVE_CHANGE)
        assert tr.iterations <= 50
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-4)
        f_vals = [r.f0 for r in tr.records]
        assert all(b < a for a, b in zip(f_vals[:-1], f_vals[1:]))
        # iterates never leave the convex component of the start
        assert all(r.x[0] >= 1.0 - 1e-9 for r in tr.records)

    def test_start_at_origin_stays(self):
        tr = run_ccp(example29(), [0.0])
        assert all(abs(r.x[0]) <= 1e-9 for r in tr.records)
        assert tr.termination == ccp.CRITICAL_FIXED_POINT

    def test_sign_confinement_from_negative_side(self):
        tr = run_ccp(example29(), [-3.0])
        assert all(r.x[0] <= -1.0 + 1e-9 for r in tr.records)
        assert tr.final_x[0] == pytest.approx(-1.0, abs=1e-4)

    def test_infeasible_start_rejected(self):
        with pytest.raises(InfeasibleStart):
            run_ccp(example29(), [0.5])
        with pytest.raises(InfeasibleStart):
            run_ccp(example29(), [11.0])


class TestInvariants:
    def test_objective_increase_raises(self, monkeypatch):
        # a subproblem "solution" at x = 3, feasible but with f0 above f0(2)
        worse = inner.SolveReport(np.array([3.0]), 0.0, 0.0, 0.0,
                                  inner.OPTIMAL)
        monkeypatch.setattr(inner, "solve_convex",
                            lambda spec, **kwargs: worse)
        with pytest.raises(InvariantViolation, match="objective increased"):
            run_ccp(example29(), [2.0])

    def test_inner_iteration_limit_ends_the_run(self, monkeypatch):
        # solve_convex binds MAX_CUTS as a default, so wrap the function
        real = inner.solve_convex
        monkeypatch.setattr(inner, "solve_convex", lambda spec, **kwargs:
                            real(spec, **kwargs, max_cuts=3))
        p = quadratic_sdp(2)
        x0 = p.known_facts["strictly_feasible_point"]
        tr = run_ccp(p, x0)
        assert tr.termination == ccp.INNER_ITER_LIMIT
        # the unconverged subproblem point is not taken as a step
        assert tr.iterations == 0 and np.array_equal(tr.final_x, x0)
        assert tr.jsonl_records()[-1]["status"] == ccp.INNER_ITER_LIMIT

    def test_iterates_feasible_and_descending(self):
        p = quadratic_sdp(2)
        tr = run_ccp(p, p.known_facts["strictly_feasible_point"],
                     CcpConfig(max_iter=40))
        assert all(r.infeas <= 1e-7 for r in tr.records)
        f_vals = [r.f0 for r in tr.records]
        # strict descent until the termination step
        for a, b in zip(f_vals[:-2], f_vals[1:-1]):
            assert b < a - 1e-10
        assert f_vals[-1] <= f_vals[-2] + 1e-10

    def test_fixed_point_is_critical(self):
        for x0 in (-1.0, 0.0):
            tr = run_ccp(example29(), [x0])
            assert tr.termination == ccp.CRITICAL_FIXED_POINT
            assert criticality_residual(example29(), tr.final_x) <= 1e-6

    def test_trace_jsonl_schema(self):
        tr = run_ccp(example29(), [2.0])
        recs = tr.jsonl_records()
        keys = {"n", "x", "f0", "infeas", "s_norm", "tau", "merit", "status"}
        assert all(set(r) == keys for r in recs)
        assert recs[0]["status"] == "initial"
        assert recs[-1]["status"] == tr.termination
        assert all(r["s_norm"] is None and r["tau"] is None for r in recs)


class TestStrongDescent:
    def test_regularized_split_satisfies_quadratic_decrease(self):
        p = with_strong_convexity(example29(), 1.0)
        assert p.objective.strong_convexity_of_h == 1.0
        tr = run_ccp(p, [2.0])
        assert check_strong_descent(tr, 1.0)
        # f0 itself is unchanged by the shift
        assert tr.records[0].f0 == pytest.approx((2.0 - 0.5) ** 2, abs=1e-12)

    def test_single_record_trace_vacuous(self):
        tr = run_ccp(example29(), [-1.0])
        one = IterationTrace(records=tr.records[:1], termination=tr.termination)
        assert check_strong_descent(one, 5.0)

    def test_corrupted_record_detected(self):
        p = with_strong_convexity(example29(), 1.0)
        tr = run_ccp(p, [2.0])
        bad = copy.deepcopy(tr)
        bad.records[1].f0 = bad.records[0].f0 + 1.0
        assert not check_strong_descent(bad, 1.0)


class TestSmallStepTermination:
    def test_strongly_convex_split_enables_step_stop(self):
        # with the objective-change stop disabled, the step-size criterion
        # (active only under declared strong convexity) must fire
        p = with_strong_convexity(example29(), 1.0)
        tr = run_ccp(p, [2.0], CcpConfig(eps_f=1e-300, eps_x=1e-6))
        assert tr.termination in (ccp.SMALL_STEP, ccp.CRITICAL_FIXED_POINT)
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-4)


class TestConfig:
    def test_positive_tolerances_required(self):
        with pytest.raises(ConeCcpError):
            CcpConfig(eps_f=0.0)
        with pytest.raises(ConeCcpError):
            CcpConfig(eps_x=-1.0)

    def test_max_iter_respected(self):
        p = quadratic_sdp(4)
        tr = run_ccp(p, p.known_facts["strictly_feasible_point"],
                     CcpConfig(max_iter=2))
        assert tr.iterations <= 2
