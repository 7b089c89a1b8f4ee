"""Command-line front end.

Subcommands:

    solve ccp            feasible-start convex-concave procedure
    solve penalty-ccp    penalty method, infeasible starts allowed
    check criticality    residuals at a candidate point
    check generalized    penalized residual at a (possibly infeasible) point
    decompose lambda-max entrywise DC split of the largest-eigenvalue function
    verify convexity     randomized cone-convexity check of the constraint map
    list builtins        names accepted by --builtin

Exit codes: 0 success, 2 infeasible start (an --x0 outside the box or affine
rows of the set, for solve and check; or one that violates the cone
constraint, for solve ccp and check criticality), 3 schema/problem-file
error, malformed --x0, negative --max-iter or --seed, an out-of-range
--samples, --tol, --tau0, --mu or --kappa, or any other library error
raised during a run, such as InvariantViolation or SubproblemInfeasible,
4 iteration limit (outer loop or inner solver), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import ccp, certificates, penalty
from .convexity import verify_k_convexity
from .dc import lambda_max_dc_decomposition, lambda_max_subgradient
from .errors import ConeCcpError, InfeasibleStart, SchemaError
from .feasible import as_point
from .library import BUILTINS
from .problem_io import load_componentwise, load_problem

EXIT_OK = 0
EXIT_INFEASIBLE_START = 2
EXIT_SCHEMA = 3
EXIT_ITER_LIMIT = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_problem_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", metavar="FILE",
                     help="JSON problem file, or the JSON text itself")
    src.add_argument("--builtin", metavar="NAME",
                     help="built-in instance name (see `list builtins`)")


def _add_common_solver_args(p):
    p.add_argument("--x0", metavar="CSV", required=True,
                   help="starting point, comma separated")
    p.add_argument("--tol", type=float, default=None,
                   help="stopping tolerance (objective/merit change); "
                        "default: the solver config's eps_f or eps_merit")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--trace", metavar="PATH",
                   help="write one JSON record per iteration (JSONL)")
    p.add_argument("--json", action="store_true",
                   help="print the final report as JSON")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later one."""
    parser = _Parser(prog="coneccp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    solve = sub.add_parser("solve", help="run a solver")
    solve_sub = solve.add_subparsers(dest="algorithm", required=True,
                                     parser_class=_Parser)
    p_ccp = solve_sub.add_parser("ccp", help="feasible-start CCP")
    _add_problem_args(p_ccp)
    _add_common_solver_args(p_ccp)

    p_pen = solve_sub.add_parser("penalty-ccp", help="penalty CCP")
    _add_problem_args(p_pen)
    _add_common_solver_args(p_pen)
    p_pen.add_argument("--tau0", type=float, default=1.0,
                       help="initial penalty scale along the cone identity")
    p_pen.add_argument("--mu", type=float, default=2.0,
                       help="penalty growth factor (> 1)")
    p_pen.add_argument("--kappa", type=float, default=None,
                       help="slack-norm threshold below which the penalty "
                            "stops growing; default: the solver config's")
    p_pen.add_argument("--tau-max", type=float, default=None,
                       help="cap on the penalty norm; default: the solver "
                            "config's")

    check = sub.add_parser("check", help="certificates at a point")
    check_sub = check.add_subparsers(dest="what", required=True,
                                     parser_class=_Parser)
    p_crit = check_sub.add_parser("criticality")
    _add_problem_args(p_crit)
    p_crit.add_argument("--x0", metavar="CSV", required=True)
    p_crit.add_argument("--tol", type=float, default=1e-8)
    p_crit.add_argument("--json", action="store_true")
    p_gen = check_sub.add_parser("generalized")
    _add_problem_args(p_gen)
    p_gen.add_argument("--x0", metavar="CSV", required=True)
    p_gen.add_argument("--tau0", type=float, required=True)
    p_gen.add_argument("--tol", type=float, default=1e-8)
    p_gen.add_argument("--json", action="store_true")

    dec = sub.add_parser("decompose", help="DC decompositions")
    dec_sub = dec.add_subparsers(dest="what", required=True,
                                 parser_class=_Parser)
    p_lmax = dec_sub.add_parser("lambda-max")
    _add_problem_args(p_lmax)
    p_lmax.add_argument("--x0", metavar="CSV", default=None,
                        help="also report a subgradient pair at this point")
    p_lmax.add_argument("--samples", type=int, default=25)
    p_lmax.add_argument("--seed", type=int, default=0)
    p_lmax.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="oracle verification")
    ver_sub = ver.add_subparsers(dest="what", required=True,
                                 parser_class=_Parser)
    p_conv = ver_sub.add_parser("convexity")
    _add_problem_args(p_conv)
    p_conv.add_argument("--samples", type=int, default=200)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--json", action="store_true")

    lst = sub.add_parser("list", help="enumerate resources")
    lst_sub = lst.add_subparsers(dest="what", required=True,
                                 parser_class=_Parser)
    lst_sub.add_parser("builtins")
    return parser


def _source(args):
    """The problem source a command names: the --problem file or JSON text,
    or the document of the --builtin instance."""
    if args.builtin is not None:
        return {"kind": "builtin", "name": args.builtin}
    return args.problem


def _load(args):
    return load_problem(_source(args))


def _parse_x0(text) -> np.ndarray:
    try:
        return np.array([float(t) for t in str(text).split(",")])
    except ValueError as exc:
        raise SchemaError(f"cannot parse --x0 {text!r}: {exc}") from exc


def _emit(doc, as_json):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, val in doc.items():
            print(f"{key}: {val}")


def _write_trace(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _given(**options):
    """The options given on the command line; each one left out takes its
    config's own default."""
    return {k: v for k, v in options.items() if v is not None}


def _cmd_solve(args) -> int:
    problem = _load(args)
    x0 = _parse_x0(args.x0)
    if args.algorithm == "ccp":
        trace = ccp.run_ccp(problem, x0, ccp.CcpConfig(**_given(
            eps_f=args.tol, max_iter=args.max_iter)))
    else:
        cfg = penalty.PenaltyConfig(tau0=args.tau0, mu=args.mu, **_given(
            kappa=args.kappa, tau_max=args.tau_max, eps_merit=args.tol,
            max_iter=args.max_iter))
        trace = penalty.run_penalty_ccp(problem, x0, cfg)
    last = trace.records[-1]
    report = {
        "problem": problem.name,
        "algorithm": args.algorithm.replace("-", "_"),
        "termination": trace.termination,
        "iterations": trace.iterations,
        "x": [float(c) for c in trace.final_x],
        "f0": last.f0, "infeas": last.infeas,
    }
    if last.tau is not None:
        report.update(s_norm=last.s_norm, tau=last.tau, merit=last.merit)
    limit = trace.termination in (ccp.MAX_ITER, ccp.INNER_ITER_LIMIT)
    if args.trace:
        _write_trace(args.trace, trace.jsonl_records())
    _emit(report, args.json)
    return EXIT_ITER_LIMIT if limit else EXIT_OK


def _cmd_check(args) -> int:
    if not args.tol >= 0:
        raise ConeCcpError(f"--tol must be nonnegative, got {args.tol}")
    problem = _load(args)
    x = _parse_x0(args.x0)
    if args.what == "criticality":
        cert = certificates.certify(problem, x, lam=_known_multiplier(problem, x))
        report = {
            "x": [float(c) for c in x],
            "residual": cert.subproblem_gap,
            "verdict": "critical" if cert.subproblem_gap <= args.tol
                       else "not critical",
            "infeasibility": certificates.infeasibility(problem, x),
            "slater": {
                "holds": cert.slater.holds,
                "min_value": cert.slater.min_value,
            },
            "kkt": None if cert.kkt is None else {
                "stationarity": cert.kkt.stationarity,
                "complementarity": cert.kkt.complementarity,
                "dual_feasibility": cert.kkt.dual_feasibility,
            },
        }
    else:
        res = certificates.generalized_criticality_residual(
            problem, x, args.tau0)
        report = {
            "x": [float(c) for c in x], "tau": args.tau0, "residual": res,
            "verdict": "generalized critical" if res <= args.tol
                       else "not generalized critical",
            "infeasibility": certificates.infeasibility(problem, x),
        }
    _emit(report, args.json)
    return EXIT_OK


def _known_multiplier(problem, x):
    # the loader keeps multipliers to one variable and one cone component
    lam = problem.known_facts.get("multipliers", {}).get(str(float(x[0])))
    if lam is None:
        return None
    return problem.constraint.cone.identity().scale(float(lam))


def _cmd_decompose(args) -> int:
    if args.samples < 0:
        raise ConeCcpError(f"--samples must be nonnegative, got {args.samples}")
    if args.seed < 0:
        raise ConeCcpError(f"--seed must be nonnegative, got {args.seed}")
    F, fs, name = load_componentwise(_source(args))
    x0 = None if args.x0 is None else as_point(_parse_x0(args.x0), F.dim)
    split = lambda_max_dc_decomposition(F)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for _ in range(args.samples):
        x = rng.uniform(fs.lo, fs.hi)
        lam = float(np.linalg.eigvalsh(F.value(x))[-1])
        g, h = split.g0.value(x), split.h0.value(x)
        worst = max(worst, abs(g - h - lam))
        rows.append({"x": [float(c) for c in x], "lambda_max": lam,
                     "g": g, "h": h})
    report = {"problem": name, "order": F.order,
              "max_identity_error": worst, "samples": rows}
    if x0 is not None:
        xi_g, xi_h = lambda_max_subgradient(F, x0)
        report["subgradients_at_x0"] = {
            "x0": [float(c) for c in x0],
            "g": [float(c) for c in xi_g],
            "h": [float(c) for c in xi_h],
        }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    problem = _load(args)
    fs = problem.feasible_set
    bounds = (fs.lo, fs.hi)
    report = {"problem": problem.name}
    for label, oracle in (("G", problem.constraint.G),
                          ("H", problem.constraint.H)):
        verdict = verify_k_convexity(oracle, problem.constraint.cone,
                                     args.samples, bounds, seed=args.seed)
        entry = {"passed": verdict.passed, "samples": verdict.samples}
        if verdict.witness is not None:
            w = verdict.witness
            entry["witness"] = {
                "x1": [float(c) for c in w.x1],
                "x2": [float(c) for c in w.x2],
                "alpha": w.alpha, "block": w.block,
                "z": [float(c) for c in w.z],
                "violation": w.violation,
            }
        report[label] = entry
    _emit(report, args.json)
    return EXIT_OK


def _cmd_list(args) -> int:
    for name in sorted(BUILTINS):
        print(name)
    return EXIT_OK


_COMMANDS = {"solve": _cmd_solve, "check": _cmd_check,
             "decompose": _cmd_decompose, "verify": _cmd_verify,
             "list": _cmd_list}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleStart as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_START
    except ConeCcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
