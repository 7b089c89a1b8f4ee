#!/usr/bin/env python3
"""Master-LP yardstick: coneccp's simplex against scipy's HiGHS.

Records every master LP of one kelley_multid pass, checks that HiGHS agrees
with each answer, then times both solvers on the same recorded LPs and
prints microseconds per LP (best of three sweeps).

    python3 solverbench/lp_reference.py
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

import numpy as np

from checkers import check_lps_against_highs, highs_solve
from run import ROOT, SRC, import_coneccp, record_lps
from workloads import WORKLOADS

SWEEPS = 3


def best_sweep(solve, records):
    best = np.inf
    for _ in range(SWEEPS):
        t0 = time.perf_counter()
        for rec in records:
            solve(*rec[:5])
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    sys.path.insert(0, str(SRC))
    mods = import_coneccp(("coneccp",))
    ctx = SimpleNamespace(seed=0, root=ROOT, out_dir=None)
    records = []
    with record_lps(mods.lp, records):
        for op in WORKLOADS["kelley_multid"].build(mods, ctx):
            op.run()
    check_lps_against_highs(records)

    n = len(records)
    rows = np.mean([rec[1].shape[0] for rec in records])
    t_simplex = best_sweep(mods.lp.solve_lp, records)
    t_highs = best_sweep(highs_solve, records)
    print(f"{n} master LPs of one kelley_multid pass, {rows:.1f} rows on "
          f"average; all agree with HiGHS")
    print(f"{'solver':>16} {'us per LP':>10} {'s per sweep':>12}")
    print(f"{'coneccp simplex':>16} {1e6 * t_simplex / n:>10.1f} "
          f"{t_simplex:>12.3f}")
    print(f"{'scipy HiGHS':>16} {1e6 * t_highs / n:>10.1f} {t_highs:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
