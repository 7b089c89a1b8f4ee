"""Per-layer spans and counts, recorded from outside the program.

:func:`install` replaces the names that callers look up at call time
(module attributes and class methods of one freshly imported coneccp) with
wrappers that time each call with ``perf_counter``.  A span's self time is
its duration minus the spans it encloses; a layer's time counts only its
outermost spans, so nested calls into the same layer are not counted twice.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []           # open frames: [id, layer, name, start, child]
        self.open = defaultdict(int)
        self.calls = defaultdict(int)   # outermost spans per layer
        self.ms = defaultdict(float)    # outermost span time per layer
        self.self_ms = defaultdict(float)
        self.n = defaultdict(int)       # named counters
        self.spans = []
        self.op = None

    def reset(self):
        """Start a new pass; wrappers keep the same containers."""
        for box in (self.stack, self.open, self.calls, self.ms, self.self_ms,
                    self.n, self.spans):
            box.clear()

    def wrap(self, layer, name, fn, on_exit=None):
        stack, open_, spans = self.stack, self.open, self.spans

        def traced(*args, **kwargs):
            nested = open_[layer] > 0
            frame = [len(spans) + len(stack), layer, name, perf(), 0.0]
            stack.append(frame)
            open_[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                open_[layer] -= 1
                dur = end - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[4] += dur
                self.self_ms[layer] += 1e3 * (dur - frame[4])
                if not nested:
                    self.calls[layer] += 1
                    self.ms[layer] += 1e3 * dur
                spans.append((frame[0], parent[0] if parent else None, layer,
                              name, self.op, frame[3], end))
            if on_exit is not None:
                on_exit(result, args, nested)
            return result

        return traced

    def count(self, key, fn):
        n = self.n

        def counted(*args, **kwargs):
            n[key] += 1
            return fn(*args, **kwargs)

        return counted

    def inside(self, name) -> bool:
        return any(f[2] == name for f in self.stack)

    def metrics(self) -> dict:
        """Per-layer figures for the calls recorded since the last reset."""
        n, calls, ms = self.n, self.calls, self.ms
        lp_solves = calls["lp"]
        kelley = n["inner.kelley_solves"]
        return {
            "outer.runs": calls["outer"],
            "outer.iterations": n["outer.iterations"],
            "outer.self_ms": self.self_ms["outer"],
            "subproblem.builds": n["subproblem.builds"],
            "subproblem.ms": ms["subproblem"],
            "inner.solves": calls["inner"],
            "inner.kelley_solves": kelley,
            "inner.bisect_solves": calls["inner"] - kelley,
            "inner.cuts": n["inner.cuts"],
            "inner.cuts_per_solve": n["inner.cuts"] / kelley if kelley else 0.0,
            "inner.iter_limit": n["inner.iter_limit"],
            "inner.ms": ms["inner"],
            "inner.self_ms": self.self_ms["inner"],
            "lp.solves": lp_solves,
            "lp.phase1_solves": n["lp.phase1_solves"],
            "lp.infeasible": n["lp.infeasible"],
            "lp.rows_mean": n["lp.rows"] / lp_solves if lp_solves else 0.0,
            "lp.ms": ms["lp"],
            "lp.us_per_solve": 1e3 * ms["lp"] / lp_solves if lp_solves else 0.0,
            "kernel.calls": calls["kernel"],
            "kernel.pivots": n["kernel.pivots"],
            "kernel.pivots_per_lp": (n["kernel.pivots"] / lp_solves
                                     if lp_solves else 0.0),
            "kernel.ms": ms["kernel"],
            "kernel.flops_computed": n["kernel.flops"],
            "kernel.bytes_computed": n["kernel.bytes"],
            "oracle.calls": calls["oracle"],
            "oracle.ms": ms["oracle"],
            "oracle.us_per_call": (1e3 * ms["oracle"] / calls["oracle"]
                                   if calls["oracle"] else 0.0),
            "cones.scalarize_calls": n["cones.scalarize_calls"],
            "certificates.calls": calls["certificates"],
            "certificates.ms": ms["certificates"],
            "dc.calls": calls["dc"],
            "dc.ms": ms["dc"],
            "problem_io.loads": calls["problem_io"],
            "problem_io.ms": ms["problem_io"],
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, layer, name, op, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "layer": layer, "name": name, "op": op,
                                     "start": start, "end": end}) + "\n")


def _patch(obj, attr, wrapper_factory):
    setattr(obj, attr, wrapper_factory(getattr(obj, attr)))


def install(tr: Tracer, mods) -> None:
    """Wrap the layer boundaries of the coneccp modules in ``mods``."""
    ccp, penalty, inner, lp = mods.ccp, mods.penalty, mods.inner, mods.lp
    subproblem, certificates, dc = mods.subproblem, mods.certificates, mods.dc
    n = tr.n

    # outer loop
    def outer_done(trace, args, nested):
        n["outer.iterations"] += trace.iterations

    for mod, attr in ((ccp, "run_ccp"), (penalty, "run_penalty_ccp")):
        _patch(mod, attr, lambda f, a=attr: tr.wrap("outer", a, f, outer_done))

    # linearization; each built spec gets counted objective oracles
    ConvexOracle = dc.ConvexOracle

    def count_build(spec, args, nested):
        n["subproblem.builds"] += 1

    def build(f, name):
        def builder(*args, **kwargs):
            spec = f(*args, **kwargs)
            obj = spec.objective
            return dataclasses.replace(spec, objective=ConvexOracle(
                tr.wrap("oracle", "objective.value", obj.value),
                tr.wrap("oracle", "objective.subgrad", obj.subgrad)))
        return tr.wrap("subproblem", name, builder, count_build)

    for mod in (ccp, certificates):
        _patch(mod, "build_constrained", lambda f: build(f, "build_constrained"))
    for mod in (penalty, certificates):
        _patch(mod, "build_penalized", lambda f: build(f, "build_penalized"))
    _patch(penalty, "recover_slack",
           lambda f: tr.wrap("subproblem", "recover_slack", f))
    _patch(certificates, "linearize_constraint",
           lambda f: tr.wrap("subproblem", "linearize_constraint", f))

    # cone and DC oracles
    LC = subproblem.LinearizedConstraint
    for attr in ("scalarized", "scalarized_subgrad"):
        _patch(LC, attr, lambda f, a=attr: tr.wrap("oracle", a, f))
    for mod in (subproblem, dc):
        _patch(mod, "lambda_max_scalarize",
               lambda f: tr.count("cones.scalarize_calls", f))

    # Kelley and bisection
    def inner_done(rep, args, nested):
        if not nested and rep.status == inner.ITER_LIMIT:
            n["inner.iter_limit"] += 1

    def general_done(rep, args, nested):
        n["inner.kelley_solves"] += 1
        n["inner.cuts"] += rep.cuts

    def kelley_min_done(res, args, nested):
        # a Kelley loop run on behalf of _solve_general is part of that
        # solve, and its cuts are in that solve's report
        if not tr.inside("_solve_general"):
            n["inner.kelley_solves"] += 1
            n["inner.cuts"] += res[4]

    for attr in ("solve_convex", "slater_probe"):
        _patch(inner, attr, lambda f, a=attr: tr.wrap("inner", a, f, inner_done))
    _patch(inner, "_solve_general",
           lambda f: tr.wrap("inner", "_solve_general", f, general_done))
    _patch(inner, "_kelley_min",
           lambda f: tr.wrap("inner", "_kelley_min", f, kelley_min_done))
    _patch(inner, "_solve_1d", lambda f: tr.wrap("inner", "_solve_1d", f))

    # master LP and pivot kernel
    kernel_calls = []   # per open LP

    def lp_call(f):
        traced = tr.wrap("lp", "solve_lp", f)

        def solve_lp(c, A, b, *args, **kwargs):
            kernel_calls.append(0)
            try:
                res = traced(c, A, b, *args, **kwargs)
            finally:
                phases = kernel_calls.pop()
            n["lp.rows"] += 0 if A is None else len(A)
            n["lp.phase1_solves"] += phases >= 2
            n["lp.infeasible"] += res.status == lp.INFEASIBLE
            return res
        return solve_lp

    def kernel_done(res, args, nested):
        if kernel_calls:
            kernel_calls[-1] += 1
        rows, cols = args[0].shape
        n["kernel.pivots"] += res[1]
        # rank-one tableau update per pivot: a multiply and a subtract per
        # entry, each entry read and written once (8-byte floats)
        n["kernel.flops"] += 2 * rows * cols * res[1]
        n["kernel.bytes"] += 16 * rows * cols * res[1]

    _patch(lp, "solve_lp", lp_call)
    _patch(lp._kernel, "pivot_loop",
           lambda f: tr.wrap("kernel", "pivot_loop", f, kernel_done))

    # certificates
    for attr in ("certify", "criticality_residual", "kkt_residual",
                 "generalized_criticality_residual", "infeasibility"):
        _patch(certificates, attr,
               lambda f, a=attr: tr.wrap("certificates", a, f))

    # front end: problem loading and the DC tooling only the CLI reaches
    cli = mods.cli
    if cli is None:
        return
    for attr in ("_load", "load_componentwise"):
        _patch(cli, attr, lambda f, a=attr: tr.wrap("problem_io", a, f))

    def split(f):
        def decomposition(F):
            sp = f(F)
            wrap = lambda o, part: ConvexOracle(
                tr.wrap("dc", f"{part}.value", o.value),
                tr.wrap("dc", f"{part}.subgrad", o.subgrad))
            return dataclasses.replace(sp, g0=wrap(sp.g0, "g0"),
                                       h0=wrap(sp.h0, "h0"))
        return tr.wrap("dc", "lambda_max_dc_decomposition", decomposition)

    _patch(cli, "lambda_max_dc_decomposition", split)
    for attr in ("lambda_max_subgradient", "verify_k_convexity"):
        _patch(cli, attr, lambda f, a=attr: tr.wrap("dc", a, f))
