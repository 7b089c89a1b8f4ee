"""The benchmark's per-layer tracer (solverbench/layers.py) still sees every
layer: it wraps internal names of coneccp from outside, so a rename inside
the package would leave ``--trace 1`` counting nothing.  The same holds for
the LP hooks: the HiGHS comparison records master LPs by wrapping
``lp.solve_lp``, and the phase-1 count reads ``lp._kernel.pivot_loop``
calls, so a master that routes around either empties them silently."""

import contextlib
import importlib
import importlib.util
import io
import os
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "solverbench"
LAYERS = BENCH / "layers.py"
SUBMODULES = ("ccp", "penalty", "inner", "lp", "subproblem", "certificates",
              "dc", "library", "cli")


def _coneccp_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "coneccp" or name.startswith("coneccp.")}


@contextlib.contextmanager
def fresh_coneccp():
    """Import coneccp afresh, as the benchmark does, and put the modules
    the rest of the test session uses back afterwards."""
    saved = _coneccp_modules()
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{
            sub: importlib.import_module(f"coneccp.{sub}")
            for sub in SUBMODULES})
    finally:
        for name in _coneccp_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer():
    layers = _bench_module("bench_layers", LAYERS)
    before = _coneccp_modules()
    with fresh_coneccp() as mods:
        tracer = layers.Tracer()
        layers.install(tracer, mods)
        lib = mods.library
        q = lib.quadratic_sdp(2)
        mods.ccp.run_ccp(q, q.known_facts["strictly_feasible_point"],
                         mods.ccp.CcpConfig(max_iter=3))
        mods.penalty.run_penalty_ccp(lib.example29(), [-1.0],
                                     mods.penalty.PenaltyConfig(
                                         tau0=1.0, mu=2.0, tau_max=1024.0))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["check", "criticality", "--builtin", "example29",
                          "--x0", "1"],
                         ["decompose", "lambda-max", "--builtin", "example29",
                          "--samples", "2"],
                         ["verify", "convexity", "--builtin", "example29",
                          "--samples", "2"]):
                assert mods.cli.main(argv) == 0
        metrics = tracer.metrics()
        dc_spans = {name for _, _, layer, name, *_ in tracer.spans
                    if layer == "dc"}
    assert _coneccp_modules() == before
    counts = ("outer.runs", "outer.iterations", "subproblem.builds",
              "inner.solves", "inner.kelley_solves", "inner.bisect_solves",
              "inner.cuts", "lp.solves", "kernel.calls", "kernel.pivots",
              "oracle.calls", "cones.scalarize_calls", "certificates.calls",
              "dc.calls", "problem_io.loads")
    assert {k: metrics[k] for k in counts if not metrics[k] > 0} == {}
    # a verify command routed around cli.verify_k_convexity would leave dc.ms
    # without its largest term
    assert "verify_k_convexity" in dc_spans


def test_lp_hooks_see_every_master(monkeypatch):
    # run.py imports its sibling modules by name and pins BLAS threads
    monkeypatch.syspath_prepend(str(BENCH))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    siblings = ("layers", "checkers", "workloads")
    saved = {name: sys.modules.pop(name, None) for name in siblings}
    try:
        run = _bench_module("bench_run", BENCH / "run.py")
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    with fresh_coneccp() as mods:
        inner, lp = mods.inner, mods.lp
        masters = []   # (rows, warm, pivot_loop calls) of each master solve
        kernel_calls = [0]
        pivot_loop, solve = lp._kernel.pivot_loop, inner._Master.solve

        def counted(*args, **kwargs):
            kernel_calls[0] += 1
            return pivot_loop(*args, **kwargs)

        def recorded(self):
            before = kernel_calls[0]
            warm = self.state is not None
            res = solve(self)
            masters.append((self.m, warm, kernel_calls[0] - before))
            return res

        monkeypatch.setattr(lp._kernel, "pivot_loop", counted)
        monkeypatch.setattr(inner._Master, "solve", recorded)
        records = []
        with run.record_lps(lp, records):
            q = mods.library.quadratic_sdp(2)
            mods.ccp.run_ccp(q, q.known_facts["strictly_feasible_point"],
                             mods.ccp.CcpConfig(max_iter=3))
    assert [len(r[1]) for r in records] == [m for m, _, _ in masters]
    warm = [calls for _, is_warm, calls in masters if is_warm]
    cold = [calls for _, is_warm, calls in masters if not is_warm]
    assert len(warm) > len(cold) > 0
    assert set(warm) == {1}
    assert min(cold) >= 1
