"""The benchmark's independent checkers reject wrong answers.

Each test feeds a checker one real output of the program, which it must
accept, and the same output with one thing made wrong, which it must
reject; a checker that accepts everything fails here.

Run with ``PYTHONPATH=src python -m pytest solverbench``.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from checkers import (EXAMPLE29, CheckFailed, check_ccp_run,
                      check_decompose_report, check_lps_against_highs,
                      check_penalty_run, lambda_max)
from workloads import qmi_data

from coneccp import cli, lp
from coneccp.ccp import run_ccp
from coneccp.library import example29, quadratic_sdp
from coneccp.penalty import PenaltyConfig, run_penalty_ccp


def test_qmi_data_is_the_library_instance():
    data, x_bar = qmi_data(3)
    inst = quadratic_sdp(3, validate=False)
    np.testing.assert_array_equal(inst.known_facts["strictly_feasible_point"],
                                  x_bar)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-3, 3, (20, 2)):
        np.testing.assert_allclose(inst.constraint.value(x).blocks[0],
                                   data.F(x)[0], atol=1e-12)
        assert inst.objective.f0(x) == pytest.approx(data.f0(x), abs=1e-12)


def test_ccp_check_rejects_a_perturbed_infeasible_iterate():
    xs = [r.x for r in run_ccp(example29(), [2.0]).records]
    check_ccp_run(EXAMPLE29, xs)
    bad = list(xs)
    bad[1] = np.array([0.5])          # 0.25 - 0.0625 > 0: infeasible
    with pytest.raises(CheckFailed, match="violates the constraint"):
        check_ccp_run(EXAMPLE29, bad)

    data, x_bar = qmi_data(0)
    check_ccp_run(data, [x_bar])
    direction = np.array([1.0, -1.0])
    x_out = x_bar + next(t * direction for t in np.linspace(0, 6, 601)
                         if lambda_max(data.F(x_bar + t * direction)) > 1e-6)
    with pytest.raises(CheckFailed, match="violates the constraint"):
        check_ccp_run(data, [x_bar, x_out])


def test_ccp_check_rejects_an_objective_increase():
    xs = [r.x for r in run_ccp(example29(), [2.0]).records]
    with pytest.raises(CheckFailed, match="decrease|increased"):
        check_ccp_run(EXAMPLE29, xs[::-1])


def test_penalty_check_rejects_a_slack_below_the_infeasibility():
    cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0)
    tr = run_penalty_ccp(example29(), [-1.0], cfg)
    xs = [r.x for r in tr.records]
    slacks = [r.s.blocks for r in tr.records]
    taus = [r.tau for r in tr.records]
    check_penalty_run(EXAMPLE29, xs, slacks, taus)
    # the last slack: shrinking it leaves the merit tests satisfied
    assert slacks[-1][0][0] > 1e-7
    shrunk = slacks[:-1] + [(0.5 * slacks[-1][0],)]
    with pytest.raises(CheckFailed, match="exceeds its slack"):
        check_penalty_run(EXAMPLE29, xs, shrunk, taus)


def _master_lp_record(rng):
    d, n_cuts = 2, 6
    points = rng.uniform(-1, 1, (n_cuts, d))
    grads = rng.normal(size=(n_cuts, d))
    vals = np.sum(points ** 2, axis=1)
    A = np.hstack([grads, -np.ones((n_cuts, 1))])
    b = np.einsum("ij,ij->i", grads, points) - vals
    c = np.array([0.0, 0.0, 1.0])
    lo = np.array([-1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, np.inf])
    res = lp.solve_lp(c, A, b, lo, hi)
    return c, A, b, lo, hi, res.status, res.value


def test_highs_check_rejects_a_wrong_lp_objective():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(0)
    records = [_master_lp_record(rng) for _ in range(5)]
    assert check_lps_against_highs(records) == 5
    c, A, b, lo, hi, status, value = records[2]
    wrong = records[:2] + [(c, A, b, lo, hi, status, value + 1e-5)]
    with pytest.raises(CheckFailed, match="HiGHS gives"):
        check_lps_against_highs(wrong)
    with pytest.raises(CheckFailed, match="HiGHS says"):
        check_lps_against_highs([(c, A, b, lo, hi, "infeasible", np.nan)])


def test_decompose_check_rejects_a_wrong_eigenvalue_identity():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["decompose", "lambda-max", "--builtin", "example29",
                       "--samples", "5", "--json"])
    assert rc == 0
    report = json.loads(out.getvalue())
    check_decompose_report(report, EXAMPLE29.matrix)

    for key, match in (("lambda_max", "eigvalsh gives"), ("g", "g - h")):
        bad = json.loads(out.getvalue())
        bad["samples"][3][key] += 1e-6 * (1.0 + abs(bad["samples"][3][key]))
        with pytest.raises(CheckFailed, match=match):
            check_decompose_report(bad, EXAMPLE29.matrix)
