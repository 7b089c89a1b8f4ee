"""Golden runs: every bit of a fixed set of solves and CLI commands.

Each run is reduced to one sha256 over its termination, its iteration count
and, per record, x, f0, infeas, the slack blocks, s_norm, tau, merit and
status; each CLI command to one sha256 over its exit code and stdout (and
the bytes of its ``--trace`` file, if it writes one).  ``tests/golden.json``
holds the expected hashes.

A change that moves these bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so, and why, in CHANGES.md.  Any other mismatch is a regression.
"""

import contextlib
import hashlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from coneccp.ccp import CcpConfig, run_ccp
from coneccp.cli import main
from coneccp.library import example29, quadratic_sdp, stiefel, \
    stiefel11_builtin
from coneccp.penalty import PenaltyConfig, run_penalty_ccp

GOLDEN = Path(__file__).resolve().with_name("golden.json")
DOCS = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _feed(h, v):
    if v is None:
        h.update(b"N")
    elif isinstance(v, str):
        _feed(h, v.encode())
    elif isinstance(v, bytes):
        h.update(b"B" + struct.pack("<q", len(v)) + v)
    elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        h.update(b"I" + struct.pack("<q", int(v)))
    elif isinstance(v, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(v)))
    else:
        a = np.ascontiguousarray(v, dtype=float)
        h.update(b"A" + repr(a.shape).encode() + a.tobytes())


def trace_digest(trace) -> str:
    """One sha256 over a CCP or penalty trace."""
    h = hashlib.sha256()
    _feed(h, trace.termination)
    _feed(h, trace.iterations)
    for r in trace.records:
        _feed(h, r.x)
        _feed(h, r.f0)
        _feed(h, r.infeas)
        blocks = () if r.s is None else r.s.blocks
        _feed(h, len(blocks))
        for b in blocks:
            _feed(h, b)
        _feed(h, r.s_norm)
        _feed(h, r.tau)
        _feed(h, r.merit)
        _feed(h, r.subproblem_status)
    return h.hexdigest()


def _criterion8_draws(seed):
    """The random starts and penalties criterion 8 draws for ``seed``, in
    its order (tests/test_acceptance.py)."""
    rng = np.random.default_rng(1000 + seed)
    return {"e29_ccp": (-1.0 - rng.uniform(0, 3), 1.0 + rng.uniform(0, 3)),
            "e29_tau0": float(rng.uniform(0.2, 1.5)),
            "e29_pen": rng.uniform(-3, 3, 1),
            "qsdp_pen": rng.uniform(-2, 2, 2),
            "s11_pen": rng.uniform(-2, 2, 1),
            "s22_pen": rng.uniform(-1.5, 1.5, 4)}


def _runs():
    """name -> zero-argument callable returning a trace."""
    runs = {}
    e29 = example29()
    for x0 in (-3.0, -1.0, 0.0, 2.0, 3.5):
        runs[f"example29_ccp_{x0}"] = (
            lambda x0=x0: run_ccp(e29, [x0]))
    runs["example29_penalty_-1"] = lambda: run_penalty_ccp(
        e29, [-1.0], PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6,
                                   tau_max=1024.0))
    draws0 = _criterion8_draws(0)
    s11 = stiefel11_builtin()
    runs["stiefel11_penalty"] = lambda: run_penalty_ccp(
        s11, draws0["s11_pen"], PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6,
                                              tau_max=1024.0, max_iter=40))
    for seed in range(6):
        q = quadratic_sdp(seed, validate=False)
        draws = _criterion8_draws(seed)
        runs[f"quadratic_sdp_{seed}_ccp"] = (
            lambda q=q: run_ccp(q, q.known_facts["strictly_feasible_point"],
                                CcpConfig(max_iter=25)))
        runs[f"quadratic_sdp_{seed}_penalty"] = (
            lambda q=q, x0=draws["qsdp_pen"]: run_penalty_ccp(
                q, x0, PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-7,
                                     tau_max=1e7, max_iter=50)))
    s22 = stiefel(2, 2)
    for seed in (2, 13):
        runs[f"stiefel22_penalty_{seed}"] = (
            lambda x0=_criterion8_draws(seed)["s22_pen"]: run_penalty_ccp(
                s22, x0, PenaltyConfig(tau0=0.5, mu=2.0, kappa=1e-6,
                                       tau_max=1e6, max_iter=30)))
    return runs


TRACE = "@TRACE@"  # stands for a fresh trace file path


def _commands():
    small = str(DOCS / "quadratic_sdp_small.json")
    quartic = str(DOCS / "polynomial_quartic.json")
    builtin_file = str(DOCS / "builtin_example29.json")
    return {
        "list_builtins": ["list", "builtins"],
        "readme_penalty": ["solve", "penalty-ccp", "--builtin", "example29",
                           "--x0=-1", "--tau0", "1", "--mu", "2", "--kappa",
                           "1e-6", "--tau-max", "1024", "--trace", TRACE,
                           "--json"],
        "readme_ccp": ["solve", "ccp", "--builtin", "example29", "--x0", "2",
                       "--json"],
        "readme_ccp_text_trace": ["solve", "ccp", "--builtin", "example29",
                                  "--x0", "2", "--trace", TRACE],
        "readme_penalty_text": ["solve", "penalty-ccp", "--builtin",
                                "example29", "--x0=-1"],
        "readme_criticality": ["check", "criticality", "--builtin",
                               "example29", "--x0", "1", "--json"],
        "readme_generalized": ["check", "generalized", "--builtin",
                               "example29", "--x0=-1", "--tau0", "1.5",
                               "--json"],
        "readme_decompose": ["decompose", "lambda-max", "--builtin",
                             "example29", "--x0", "1", "--json"],
        "readme_verify": ["verify", "convexity", "--problem", small],
        "small_ccp": ["solve", "ccp", "--problem", small, "--x0", "0,0",
                      "--trace", TRACE, "--json"],
        "small_penalty": ["solve", "penalty-ccp", "--problem", small,
                          "--x0", "1,1", "--trace", TRACE, "--json"],
        "small_criticality": ["check", "criticality", "--problem", small,
                              "--x0", "0,0", "--json"],
        "small_decompose": ["decompose", "lambda-max", "--problem", small,
                            "--json"],
        "quartic_ccp": ["solve", "ccp", "--problem", quartic, "--x0", "2",
                        "--trace", TRACE, "--json"],
        "quartic_criticality": ["check", "criticality", "--problem", quartic,
                                "--x0", "1", "--json"],
        "quartic_decompose": ["decompose", "lambda-max", "--problem",
                              quartic, "--x0", "1", "--json"],
        "quartic_verify": ["verify", "convexity", "--problem", quartic,
                           "--json"],
        "builtin_file_ccp": ["solve", "ccp", "--problem", builtin_file,
                             "--x0=-2", "--json"],
        "builtin_file_verify": ["verify", "convexity", "--problem",
                                builtin_file, "--json"],
    }


def command_digest(argv, workdir) -> str:
    """One sha256 over a CLI command's exit code, stdout and trace bytes."""
    trace = Path(workdir) / "trace.jsonl"
    trace.unlink(missing_ok=True)
    argv = [str(trace) if a == TRACE else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    h = hashlib.sha256()
    _feed(h, int(code))
    _feed(h, out.getvalue())
    _feed(h, trace.read_bytes() if trace.exists() else None)
    return h.hexdigest()


def _expected():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_runs()))
def test_golden_run(name):
    assert trace_digest(_runs()[name]()) == _expected()["runs"][name]


@pytest.mark.parametrize("name", sorted(_commands()))
def test_golden_command(name, tmp_path):
    digest = command_digest(_commands()[name], tmp_path)
    assert digest == _expected()["commands"][name]


def test_golden_file_covers_every_case():
    doc = _expected()
    assert set(doc["runs"]) == set(_runs())
    assert set(doc["commands"]) == set(_commands())


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"runs": {k: trace_digest(f()) for k, f in
                        sorted(_runs().items())},
               "commands": {k: command_digest(argv, tmp) for k, argv in
                            sorted(_commands().items())}}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
