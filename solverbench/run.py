#!/usr/bin/env python3
"""coneccp solver benchmark: one process, one thread, one workload per run.

    python3 solverbench/run.py --workload kelley_multid --seed 1 \\
        --seconds 35 --trace 0

Runs from the root of a source checkout and imports coneccp from its
``src``.  A run sets the workload up nine times (a fresh import of coneccp
plus construction of the validated instances): three times first, the
rest between the timed passes.  It runs one untimed pass whose every
result is checked independently, then timed passes for ``--seconds``, each
result compared with the checked pass.  The master LPs of one instance are
compared with scipy's HiGHS last, so scipy stays out of the memory figure.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a run whose layer boundaries are
wrapped (see layers.py).  Results and span files go to solverbench/out/.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS must not start a pool of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from checkers import CheckFailed, check_lps_against_highs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 9          # set-ups per run, three first and the rest spread over
FIRST_SETUPS = 3    # the timed passes; setup_s is their median
MIN_PASSES = 3      # timed passes per run, whatever --seconds says; beyond
                    # these a pass starts only if it should end in time

perf = time.perf_counter


def import_coneccp(names):
    """Import coneccp afresh (its modules are dropped first), as a new
    process would; numpy stays imported."""
    for name in [m for m in sys.modules
                 if m == "coneccp" or m.startswith("coneccp.")]:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    mods = SimpleNamespace(**{
        sub: sys.modules[f"coneccp.{sub}"]
        for sub in ("ccp", "penalty", "inner", "lp", "subproblem",
                    "certificates", "dc", "library", "problem_io")})
    mods.cli = sys.modules.get("coneccp.cli")
    return mods


@contextmanager
def record_lps(lp, records):
    """Keep every master LP solved inside the block, with the program's
    answer, for the comparison with HiGHS."""
    solve = lp.solve_lp

    def solve_lp(c, A, b, lo, hi, **kwargs):
        res = solve(c, A, b, lo, hi, **kwargs)
        records.append(tuple(np.array(v, dtype=float) for v in (c, A, b, lo, hi))
                       + (res.status, res.value))
        return res

    lp.solve_lp = solve_lp
    try:
        yield
    finally:
        lp.solve_lp = solve


def middle_mean(values):
    """Mean of the middle half of the values.  The machine's speed switches
    between states that last tens of seconds; averaging the middle half
    follows the share of each state, where a median snaps to one."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.mean(v[k:len(v) - k])


class Run:
    """Counts of operations attempted and failed, and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.errors.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def attempt(self, op):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return True, op.run()
        except Exception:
            self.failed += 1
            print(f"operation {op.name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return False, None


class SetUps:
    """Times set-ups: a fresh import of coneccp, then the workload's build."""

    def __init__(self, workload, ctx):
        self.workload, self.ctx = workload, ctx
        self.import_s, self.build_s = [], []

    def __call__(self):
        gc.collect()
        t0 = perf()
        mods = import_coneccp(self.workload.modules)
        t1 = perf()
        ops = self.workload.build(mods, self.ctx)
        self.import_s.append(t1 - t0)
        self.build_s.append(perf() - t1)
        return mods, ops

    def __len__(self):
        return len(self.import_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "coneccp" / "__init__.py").is_file():
        print(f"error: no coneccp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    ctx = SimpleNamespace(seed=args.seed, root=ROOT, out_dir=out_dir)
    set_up = SetUps(WORKLOADS[args.workload], ctx)
    for _ in range(FIRST_SETUPS):
        mods, ops = set_up()
    if Path(mods.ccp.__file__).resolve().parent != SRC / "coneccp":
        print(f"error: coneccp imported from {mods.ccp.__file__}",
              file=sys.stderr)
        return 2
    if any(op.highs for op in ops) and importlib.util.find_spec(
            "scipy") is None:
        print(f"error: {args.workload} checks its master LPs with scipy's "
              f"HiGHS, and scipy is not installed", file=sys.stderr)
        return 2
    order = [ops[k] for k in np.random.default_rng(args.seed).permutation(
        len(ops))]

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer, mods)
    lp_records = []
    run = Run()

    # checked pass, also the warm-up
    reference = {}
    for op in order:
        with record_lps(mods.lp, lp_records) if op.highs else nullcontext():
            ok, result = run.attempt(op)
        if not ok:
            continue
        try:
            op.check(result)
        except CheckFailed as exc:
            run.fail(f"{op.name}: {exc}")
        reference[op.name] = op.fingerprint(result)

    # timed passes, with the remaining set-ups between them: the machine's
    # speed drifts over tens of seconds, and set-ups spread over the run see
    # the same drift as the passes
    passes = []   # (wall s, per-op ms list, outer iterations, layer metrics)
    setup_every = args.seconds / (SETUPS - FIRST_SETUPS)
    start = next_setup = perf()
    between = 0.0   # time spent in set-ups between passes
    while len(passes) < MIN_PASSES or (
            perf() - start - between + statistics.median(p[0] for p in passes)
            <= args.seconds):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        op_ms, results = [], []
        t_pass = perf()
        for op in order:
            if tracer is not None:
                tracer.op = op.name
            t0 = perf()
            ok, result = run.attempt(op)
            op_ms.append(1e3 * (perf() - t0))
            results.append((op, ok, result))
        wall = perf() - t_pass
        iterations = 0
        for op, ok, result in results:
            if not ok:
                continue
            iterations += op.iterations(result)
            if op.fingerprint(result) != reference.get(op.name):
                run.fail(f"{op.name}: result differs from the checked pass")
        passes.append((wall, op_ms, iterations,
                       tracer.metrics() if tracer is not None else None))
        if len(set_up) < SETUPS and perf() >= next_setup + between:
            t0 = perf()
            set_up()
            between += perf() - t0
            next_setup += setup_every
    while len(set_up) < SETUPS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if lp_records:
        try:
            checked = check_lps_against_highs(lp_records)
            print(f"{checked} master LPs agree with HiGHS", file=sys.stderr)
        except CheckFailed as exc:
            run.fail(f"HiGHS comparison: {exc}")

    batch_s = middle_mean([p[0] for p in passes])
    iterations = passes[-1][2]
    setup_s = [a + b for a, b in zip(set_up.import_s, set_up.build_s)]
    if args.trace:
        values = {name: statistics.median(p[3][name] for p in passes)
                  for name in passes[0][3]}
        values["library.build_ms"] = 1e3 * statistics.median(set_up.build_s)
        values["setup.import_ms"] = 1e3 * statistics.median(set_up.import_s)
        values["traced.batch_s"] = batch_s
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "batch_s": batch_s,
            "op_ms_p50": statistics.median(ms for p in passes for ms in p[1]),
            "iter_ms": 1e3 * batch_s / max(iterations, 1),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": len(passes),
               "ops_per_pass": len(ops), "iterations_per_pass": iterations,
               "pass_s": [p[0] for p in passes], "setup_s": setup_s,
               "op_names": [op.name for op in order],
               "op_ms": [p[1] for p in passes],
               "errors": run.errors, "result": result}
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
