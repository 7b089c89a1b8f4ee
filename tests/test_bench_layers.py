"""The benchmark's per-layer tracer (solverbench/layers.py) still sees every
layer: it wraps internal names of coneccp from outside, so a rename inside
the package would leave ``--trace 1`` counting nothing."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path
from types import SimpleNamespace

LAYERS = Path(__file__).resolve().parents[1] / "solverbench" / "layers.py"
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


def test_tracer_counts_every_layer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
                          "--samples", "2"]):
                assert mods.cli.main(argv) == 0
        metrics = tracer.metrics()
    assert _coneccp_modules() == before
    counts = ("outer.runs", "outer.iterations", "subproblem.builds",
              "inner.solves", "inner.kelley_solves", "inner.bisect_solves",
              "inner.cuts", "lp.solves", "kernel.calls", "kernel.pivots",
              "oracle.calls", "cones.scalarize_calls", "certificates.calls",
              "dc.calls", "problem_io.loads")
    assert {k: metrics[k] for k in counts if not metrics[k] > 0} == {}
