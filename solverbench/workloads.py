"""The benchmark's workloads: their instances, operations and checks.

Each workload's ``build(mods, ctx)`` constructs its instances through the
public API of one imported coneccp (``mods``) and returns the fixed list of
operations of one pass.  An operation runs one solver or one CLI command and
has an independent check of its result (see :mod:`checkers`).

Solver inputs come from fixed generator seeds, the ones acceptance criterion
8 uses, so every pass does the same solver work and the counts of the traced
run repeat exactly.  The run's ``--seed`` sets the order of the operations,
which instance's master LPs are compared with HiGHS, and the sample seeds of
the CLI's randomized commands.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checkers import (EXAMPLE29, STIEFEL11, CheckFailed, PolyData, QmiData,
                      StiefelData, check_ccp_run, check_decompose_report,
                      check_near, check_penalty_run, lambda_max, require)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    iterations: Callable[[object], int]
    fingerprint: Callable[[object], object]
    highs: bool = False      # compare this op's master LPs with HiGHS


def criterion8_draws(seed):
    """The random inputs acceptance criterion 8 draws for one of its seeds."""
    rng = np.random.default_rng(1000 + seed)
    return {
        "e29_ccp_starts": (-1.0 - rng.uniform(0, 3), 1.0 + rng.uniform(0, 3),
                           0.0),
        "e29_pen_tau0": float(rng.uniform(0.2, 1.5)),
        "e29_pen_x0": rng.uniform(-3, 3, 1),
        "qmi_pen_x0": rng.uniform(-2, 2, 2),
        "s11_pen_x0": rng.uniform(-2, 2, 1),
        "s22_pen_x0": rng.uniform(-1.5, 1.5, 4),
    }


def qmi_data(seed, dim=2, order=2):
    """Raw data of the seeded quadratic matrix inequality, drawn as the
    library's generator draws it, with its strictly feasible point."""
    rng = np.random.default_rng(seed)
    sym = lambda M: 0.5 * (M + M.T)
    C = sym(rng.uniform(-1, 1, (order, order)))
    B = np.array([sym(rng.uniform(-1, 1, (order, order))) for _ in range(dim)])
    A = rng.uniform(-1, 1, (dim, dim, order, order))
    A = 0.5 * (A + np.transpose(A, (0, 1, 3, 2)))
    A = 0.5 * (A + np.transpose(A, (1, 0, 2, 3)))
    x_bar = rng.uniform(-1, 1, dim)
    top = float(np.linalg.eigvalsh(
        C + np.tensordot(x_bar, B, axes=(0, 0))
        + np.einsum("i,j,ijsk->sk", x_bar, x_bar, A))[-1])
    C = C - (top + 0.5) * np.eye(order)
    Wg = rng.normal(size=(dim, dim))
    Wh = rng.normal(size=(dim, dim))
    Pg = Wg @ Wg.T / dim + 0.5 * np.eye(dim)
    pg = rng.uniform(-1, 1, dim)
    Ph = Wh @ Wh.T / (2 * dim)
    ph = rng.uniform(-1, 1, dim)
    return QmiData(C, B, A, Pg, pg, Ph, ph), x_bar


def qmi_instance(mods, data):
    """A validated instance built through the explicit constructor."""
    dc = mods.dc
    objective = dc.ScalarDcFunction(g0=dc.quadratic_oracle(data.Pg, data.pg),
                                    h0=dc.quadratic_oracle(data.Ph, data.ph),
                                    dim=data.pg.size)
    return mods.library.quadratic_sdp(C=data.C, B=data.B, A=data.A,
                                      objective=objective)


def _xs(trace):
    return [r.x for r in trace.records]


def _solver_fingerprint(trace):
    return (trace.iterations, trace.termination,
            tuple(float(c) for c in trace.final_x))


def _iterations(trace):
    return trace.iterations


def _ccp_op(mods, name, problem, x0, max_iter, check, highs=False):
    cfg = mods.ccp.CcpConfig(max_iter=max_iter)
    return Op(name, lambda: mods.ccp.run_ccp(problem, x0, cfg), check,
              _iterations, _solver_fingerprint, highs)


def _penalty_op(mods, name, problem, x0, check, highs=False, **cfg):
    config = mods.penalty.PenaltyConfig(**cfg)
    return Op(name, lambda: mods.penalty.run_penalty_ccp(problem, x0, config),
              check, _iterations, _solver_fingerprint, highs)


def _penalty_check(data, f0=None, finals=None, tol=None):
    def check(trace):
        check_penalty_run(data, _xs(trace),
                          [r.s.blocks for r in trace.records],
                          [r.tau for r in trace.records], f0=f0)
        if finals is not None:
            check_near(trace.final_x[0], finals, tol, "penalty final point")
    return check


def _ccp_check(data, mu=0.0, f0=None):
    return lambda trace: check_ccp_run(data, _xs(trace), mu=mu, f0=f0)


# ---------------------------------------------------------------------------
# kelley_multid: the multi-dimensional families of criterion 8

# Criterion-8 seeds of the quadratic instances; seed s runs the variant
# s mod 3 (plain CCP, CCP on the strongly convex split, penalty), so every
# variant runs on two instances and a pass stays near three seconds.
QMI_SEEDS = (0, 1, 2, 3, 4, 5)
# Stiefel 2x2 penalty starts: criterion-8 seed 2 starts outside the unit
# ball (a run of about 0.6 s), seed 13 inside it (one step, about 2 ms).
S22_PENALTY_SEEDS = (2, 13)


def build_kelley(mods, ctx):
    ops = []
    highs_seed = QMI_SEEDS[ctx.seed % len(QMI_SEEDS)]
    for s in QMI_SEEDS:
        data, x_bar = qmi_data(s)
        q = qmi_instance(mods, data)
        variant = s % 3
        highs = s == highs_seed
        if variant == 0:
            ops.append(_ccp_op(mods, f"qmi{s}.ccp", q, x_bar, 25,
                               _ccp_check(data), highs))
        elif variant == 1:
            qreg = mods.library.with_strong_convexity(q, 1.0)
            ops.append(_ccp_op(mods, f"qmi{s}.ccp_mu1", qreg, x_bar, 25,
                               _ccp_check(data, mu=1.0), highs))
        else:
            ops.append(_penalty_op(
                mods, f"qmi{s}.penalty", q, criterion8_draws(s)["qmi_pen_x0"],
                _penalty_check(data), highs, tau0=0.5, mu=2.0, kappa=1e-7,
                tau_max=1e7, max_iter=50))
    s22 = mods.library.stiefel(2, 2)
    sdata = StiefelData(2, 2)
    ops.append(_ccp_op(mods, "stiefel22.ccp", s22,
                       s22.known_facts["orthonormal_point"], 10,
                       _ccp_check(sdata)))
    for s in S22_PENALTY_SEEDS:
        ops.append(_penalty_op(
            mods, f"stiefel22.penalty{s}", s22,
            criterion8_draws(s)["s22_pen_x0"], _penalty_check(sdata),
            tau0=0.5, mu=2.0, kappa=1e-6, tau_max=1e6, max_iter=30))
    return ops


# ---------------------------------------------------------------------------
# bisect_1d: example 29 and the scalar orthogonality instance

E29_SEEDS = (0, 1, 2, 3)
CCP_TOL = 1e-4       # CCP final points: the critical point reached
PENALTY_TOL = 1e-2   # penalty final points: criterion 1's bound at 0

s11_f0 = lambda x: (float(np.asarray(x).reshape(-1)[0]) - 0.7) ** 2


def _e29_ccp_check(x0):
    target = 1.0 if x0 > 1.0 else -1.0 if x0 <= -1.0 else 0.0

    def check(trace):
        check_ccp_run(EXAMPLE29, _xs(trace))
        check_near(trace.final_x[0], (target,), CCP_TOL,
                   f"CCP from {x0!r} final point")
    return check


def _criterion_check(first=None, final_tol=None, frozen=False):
    base = _penalty_check(EXAMPLE29, finals=(-1.0, 0.0, 1.0), tol=PENALTY_TOL)

    def check(trace):
        base(trace)
        if first is not None:
            check_near(trace.records[1].x[0], (first,), 1e-4, "first iterate")
        if final_tol is not None:
            check_near(trace.final_x[0], (0.0,), final_tol, "final point")
        if frozen:
            require(trace.iterations == 1,
                    f"threshold run took {trace.iterations} steps, not 1")
            check_near(trace.records[1].x[0], (trace.records[0].x[0],), 1e-6,
                       "threshold run step")
    return check


def build_bisect(mods, ctx):
    lib = mods.library
    e29 = lib.example29()
    s11 = lib.stiefel11_builtin()
    for inst in (e29, s11):
        inst.self_check()
    ops = []
    for s in E29_SEEDS:
        draws = criterion8_draws(s)
        for x0 in draws["e29_ccp_starts"]:
            ops.append(_ccp_op(mods, f"e29.ccp[{x0:.3f}]", e29, [x0], 40,
                               _e29_ccp_check(x0)))
        ops.append(_penalty_op(
            mods, f"e29.penalty{s}", e29, draws["e29_pen_x0"],
            _penalty_check(EXAMPLE29, finals=(-1.0, 0.0, 1.0),
                           tol=PENALTY_TOL),
            tau0=draws["e29_pen_tau0"], mu=2.0, kappa=1e-6, tau_max=1024.0,
            max_iter=60))
        ops.append(_ccp_op(
            mods, f"s11.ccp{s}", s11, s11.known_facts["orthonormal_point"], 10,
            _ccp_check(STIEFEL11, f0=s11_f0)))
        ops.append(_penalty_op(
            mods, f"s11.penalty{s}", s11, draws["s11_pen_x0"],
            _penalty_check(STIEFEL11, f0=s11_f0, finals=(-1.0, 1.0),
                           tol=PENALTY_TOL),
            tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0, max_iter=40))
    ops.append(_penalty_op(mods, "criterion1", e29, [-1.0],
                           _criterion_check(first=-0.75, final_tol=0.01),
                           tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0))
    ops.append(_penalty_op(mods, "criterion2", e29, [-1.0],
                           _criterion_check(final_tol=1e-3),
                           tau0=1.0, mu=2.0, kappa=0.0, tau_max=1e9))
    ops.append(_penalty_op(mods, "criterion3", e29, [-1.0],
                           _criterion_check(frozen=True),
                           tau0=1.5, mu=2.0, kappa=1e-6, tau_max=1024.0))
    return ops


# ---------------------------------------------------------------------------
# cli_certify: the README quick start and the example problem files

TRACE_KEYS = {"n", "x", "f0", "infeas", "s_norm", "tau", "merit", "status"}
RESIDUAL_TOL = 1e-8


def _report(result):
    rc, out = result
    require(rc == 0, f"exit code {rc}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _cli_iterations(result):
    try:
        return int(json.loads(result[1]).get("iterations", 0))
    except json.JSONDecodeError:
        return 0


def _example_data(path):
    """Raw data of an example problem file, read without coneccp."""
    doc = json.loads(path.read_text())
    if doc["kind"] == "builtin":
        return EXAMPLE29 if doc["name"] == "example29" else None
    if doc["kind"] == "scalar_dc_polynomial":
        rows = doc["constraints"]
        return PolyData(G=tuple(tuple(r["G"]) for r in rows),
                        H=tuple(tuple(r["H"]) for r in rows),
                        g0=tuple(doc["objective"]["g0"]),
                        h0=tuple(doc["objective"]["h0"]))
    con, obj = doc["constraint"], doc["objective"]
    arr = lambda v: np.asarray(v, dtype=float)
    return QmiData(arr(con["C"]), arr(con["B"]), arr(con["A"]),
                   arr(obj["g0"]["P"]), arr(obj["g0"]["p"]),
                   arr(obj["h0"]["P"]), arr(obj["h0"]["p"]))


def _check_solve(target=None, data=None, trace_path=None, first=None,
                 tol=CCP_TOL, x0=None):
    def check(result):
        rep = _report(result)
        x = np.asarray(rep["x"])
        if data is not None:
            viol = lambda_max(data.F(x))
            if rep["algorithm"] == "ccp":
                require(viol <= 1e-7, f"final point infeasible: {viol:.3e}")
                require(data.f0(x) <= data.f0(x0) + 1e-10,
                        "final objective above the start's")
        if target is not None:
            check_near(x[0], target, tol, "final point")
        if trace_path is not None:
            lines = trace_path.read_text().splitlines()
            require(len(lines) == rep["iterations"] + 1,
                    f"trace has {len(lines)} records for "
                    f"{rep['iterations']} iterations")
            recs = [json.loads(line) for line in lines]
            for r in recs:
                require(set(r) == TRACE_KEYS, f"trace keys {sorted(r)}")
            if first is not None:
                check_near(recs[1]["x"][0], (first,), 1e-4, "first iterate")
    return check


def _check_criticality(x, lam=None, data=None, critical=True):
    def check(result):
        rep = _report(result)
        if critical:
            require(rep["residual"] <= RESIDUAL_TOL,
                    f"criticality residual {rep['residual']!r} at {x}")
        else:
            require(rep["residual"] >= -RESIDUAL_TOL,
                    f"negative criticality residual {rep['residual']!r}")
        if lam is not None:
            # stationarity of (x - 0.5)^2 + lam (x^2 - x^4) at x, by hand
            t = x[0]
            own = abs((2.0 * t - 1.0) + lam * (2.0 * t - 4.0 * t ** 3))
            require(own <= 1e-12, f"multiplier {lam} is not the paper's")
            for key, val in rep["kkt"].items():
                require(val <= RESIDUAL_TOL, f"KKT {key} residual {val!r}")
        if data is not None:
            require(lambda_max(data.F(np.asarray(x))) < 0.0,
                    "probe point is not strictly feasible")
            require(rep["slater"]["holds"] and rep["slater"]["min_value"] < 0,
                    "Slater probe failed at a strictly feasible point")
    return check


def _check_generalized(result):
    rep = _report(result)
    require(rep["residual"] <= RESIDUAL_TOL,
            f"generalized residual {rep['residual']!r} at the threshold")
    require(rep["infeasibility"] == 0.0 and
            lambda_max(EXAMPLE29.F(rep["x"])) <= 0.0,
            "x = -1 should be feasible")


def _check_decompose(matrix):
    return lambda result: check_decompose_report(_report(result), matrix)


def _check_verify(result):
    rep = _report(result)
    for part in ("G", "H"):
        require(rep[part]["passed"],
                f"{part} of a valid split failed the convexity check")


def build_cli(mods, ctx):
    cli, lib, pio = mods.cli, mods.library, mods.problem_io
    examples = ctx.root / "docs" / "examples"
    small = examples / "quadratic_sdp_small.json"
    quartic = examples / "polynomial_quartic.json"
    builtin_file = examples / "builtin_example29.json"
    data = {p: _example_data(p) for p in (small, quartic, builtin_file)}
    for path in data:
        pio.load_problem(str(path))
    lib.builtin("example29")
    lib.builtin("quadratic_sdp_42")
    q42, x42 = qmi_data(42)
    x42_csv = ",".join(repr(float(c)) for c in x42)
    seed = str(ctx.seed)
    trace_path = ctx.out_dir / f"cli-trace-{ctx.seed}.jsonl"

    commands = [
        (["solve", "penalty-ccp", "--builtin", "example29", "--x0=-1",
          "--tau0", "1", "--mu", "2", "--kappa", "1e-6", "--tau-max", "1024",
          "--trace", str(trace_path), "--json"],
         _check_solve(target=(0.0,), tol=0.01, trace_path=trace_path,
                      first=-0.75)),
        (["solve", "ccp", "--builtin", "example29", "--x0", "2", "--json"],
         _check_solve(target=(1.0,), data=EXAMPLE29, x0=[2.0])),
        (["check", "criticality", "--builtin", "example29", "--x0", "1",
          "--json"], _check_criticality([1.0], lam=0.5)),
        (["check", "criticality", "--builtin", "example29", "--x0=-1",
          "--json"], _check_criticality([-1.0], lam=1.5)),
        (["check", "criticality", "--builtin", "example29", "--x0", "0",
          "--json"], _check_criticality([0.0])),
        (["check", "generalized", "--builtin", "example29", "--x0=-1",
          "--tau0", "1.5", "--json"], _check_generalized),
        (["decompose", "lambda-max", "--builtin", "example29", "--x0", "1",
          "--seed", seed, "--json"], _check_decompose(EXAMPLE29.matrix)),
        (["verify", "convexity", "--problem", str(small), "--seed", seed,
          "--json"], _check_verify),
        (["solve", "ccp", "--problem", str(small), "--x0", "0,0", "--json"],
         _check_solve(data=data[small], x0=[0.0, 0.0])),
        (["check", "criticality", "--problem", str(small), "--x0", "0,0",
          "--json"],
         _check_criticality([0.0, 0.0], data=data[small], critical=False)),
        (["decompose", "lambda-max", "--problem", str(small), "--seed", seed,
          "--json"], _check_decompose(data[small].matrix)),
        (["solve", "ccp", "--problem", str(quartic), "--x0", "2", "--json"],
         _check_solve(target=(1.0,), data=data[quartic], x0=[2.0])),
        (["check", "criticality", "--problem", str(quartic), "--x0", "1",
          "--json"], _check_criticality([1.0])),
        (["decompose", "lambda-max", "--problem", str(quartic), "--x0", "1",
          "--seed", seed, "--json"],
         _check_decompose(data[quartic].matrix)),
        (["verify", "convexity", "--problem", str(quartic), "--seed", seed,
          "--json"], _check_verify),
        (["solve", "ccp", "--problem", str(builtin_file), "--x0=-2",
          "--json"],
         _check_solve(target=(-1.0,), data=data[builtin_file], x0=[-2.0])),
        (["verify", "convexity", "--problem", str(builtin_file), "--seed",
          seed, "--json"], _check_verify),
        (["check", "criticality", "--builtin", "quadratic_sdp_42",
          f"--x0={x42_csv}", "--json"],
         _check_criticality(list(x42), data=q42, critical=False)),
    ]

    def runner(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()
        return run

    return [Op(" ".join(argv[:2]) + f"#{k}", runner(argv), check,
               _cli_iterations, lambda result: result)
            for k, (argv, check) in enumerate(commands)]


@dataclass(frozen=True)
class Workload:
    build: Callable
    modules: tuple


WORKLOADS = {
    "kelley_multid": Workload(build_kelley, ("coneccp",)),
    "bisect_1d": Workload(build_bisect, ("coneccp",)),
    "cli_certify": Workload(build_cli, ("coneccp", "coneccp.cli")),
}
