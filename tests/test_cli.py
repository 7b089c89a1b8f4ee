import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coneccp import cli, dc, inner, problem_io
from coneccp.cli import main
from coneccp.errors import OracleCheckError, SchemaError
from coneccp.library import ProblemInstance, builtin, quadratic_sdp
from coneccp.problem_io import load_componentwise, load_problem

DOCS = Path(__file__).resolve().parents[1] / "docs" / "examples"
EXAMPLES = ("builtin_example29.json", "polynomial_quartic.json",
            "quadratic_sdp_small.json")


def edited(doc, path, value):
    """A deep copy of the document with the entry at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveCommands:
    def test_penalty_run_with_reference_parameters(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "solve", "penalty-ccp", "--builtin", "example29",
            "--x0=-1", "--tau0", "1", "--mu", "2", "--kappa", "1e-6",
            "--tau-max", "1024", "--trace", str(trace), "--json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["x"][0]) <= 0.01
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[1]["x"][0] == pytest.approx(-0.75, abs=1e-4)
        keys = {"n", "x", "f0", "infeas", "s_norm", "tau", "merit", "status"}
        assert all(set(r) == keys for r in records)

    def test_trace_reruns_bitwise_identical(self, capsys, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ("solve", "penalty-ccp", "--builtin", "example29", "--x0=-1",
                "--tau0", "1", "--mu", "2")
        assert run_cli(capsys, *args, "--trace", str(t1))[0] == 0
        assert run_cli(capsys, *args, "--trace", str(t2))[0] == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_ccp_infeasible_start_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "ccp", "--builtin",
                               "example29", "--x0", "0.5")
        assert code == 2
        assert "violates" in err

    def test_ccp_iteration_limit_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "ccp", "--builtin",
                               "quadratic_sdp_42", "--x0", "0,0",
                               "--max-iter", "1", "--json")
        # the start may be infeasible for this instance; accept either the
        # limit code or an infeasible-start signal, but never success
        assert code in (2, 4)

    def test_inner_iteration_limit_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(inner, "MAX_CUTS", 2)
        small = str(DOCS / "quadratic_sdp_small.json")
        for algorithm in ("ccp", "penalty-ccp"):
            code, out, _ = run_cli(capsys, "solve", algorithm, "--problem",
                                   small, "--x0", "0,0", "--json")
            assert code == 4
            assert json.loads(out)["termination"] == "inner_iter_limit"

    def test_max_iter_zero_runs_no_iteration(self, capsys):
        for algorithm, x0 in (("ccp", "2"), ("penalty-ccp", "-1")):
            code, out, _ = run_cli(capsys, "solve", algorithm, "--builtin",
                                   "example29", f"--x0={x0}", "--max-iter",
                                   "0", "--json")
            report = json.loads(out)
            assert code == 4
            assert report["termination"] == "max_iter"
            assert report["iterations"] == 0
            assert report["x"] == [float(x0)]

    def test_negative_max_iter_exits_3(self, capsys):
        for algorithm, x0 in (("ccp", "2"), ("penalty-ccp", "-1")):
            code, out, err = run_cli(capsys, "solve", algorithm, "--builtin",
                                     "example29", f"--x0={x0}", "--max-iter",
                                     "-1")
            assert code == 3
            assert out == "" and "max_iter" in err

    def test_unknown_flag_exits_usage(self, capsys):
        for argv in (["solve", "ccp", "--no-such-flag"],
                     ["solve", "ccp", "--builtin", "example29", "--x0", "2",
                      "--seed", "1"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 64


class TestParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "coneccp":
                built.append(self)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "list", "builtins")[0] == 0
        assert len(built) == 1
        with pytest.raises(SystemExit) as err:
            main(["list", "builtins", "--no-such-flag"])
        assert err.value.code == 64
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", "import coneccp.cli as c; "
             "print(c.build_parser.cache_info().currsize)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "0"


class TestPointsAreChecked:
    SMALL = ("--problem", str(DOCS / "quadratic_sdp_small.json"))
    E29 = ("--builtin", "example29")
    COMMANDS = (("solve", "ccp"), ("solve", "penalty-ccp"),
                ("check", "criticality"), ("check", "generalized",
                                           "--tau0", "1"),
                ("decompose", "lambda-max", "--samples", "1"))

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("source, x0, got", [
        (SMALL, "0", "dimension 2, got [0.0]"),
        (E29, "1,2", "dimension 1, got [1.0, 2.0]"),
        (E29, "nan", "dimension 1, got [nan]"),
        (E29, "-inf", "dimension 1, got [-inf]"),
    ], ids=["short", "long", "nan", "inf"])
    def test_malformed_x0_exits_3(self, capsys, command, source, x0, got):
        code, out, err = run_cli(capsys, *command, *source, f"--x0={x0}")
        assert code == 3
        assert out == ""
        assert err == f"error: expected a finite point of {got}\n"


class TestSolveReportSchema:
    COMMON = ["problem", "algorithm", "termination", "iterations", "x", "f0",
              "infeas"]
    PENALTY = COMMON + ["s_norm", "tau", "merit"]
    RUNS = (("ccp", "2", COMMON), ("penalty-ccp", "-1", PENALTY))

    def test_json_keys(self, capsys):
        for algorithm, x0, keys in self.RUNS:
            code, out, _ = run_cli(capsys, "solve", algorithm, "--builtin",
                                   "example29", f"--x0={x0}", "--json")
            assert code == 0
            assert set(json.loads(out)) == set(keys)

    def test_text_keys_in_order(self, capsys):
        for algorithm, x0, keys in self.RUNS:
            code, out, _ = run_cli(capsys, "solve", algorithm, "--builtin",
                                   "example29", f"--x0={x0}")
            assert code == 0
            assert [line.split(": ")[0] for line in out.splitlines()] == keys

    def test_ccp_trace_rows_have_null_penalty_columns(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _, _ = run_cli(capsys, "solve", "ccp", "--builtin", "example29",
                             "--x0", "2", "--trace", str(trace))
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) > 1
        for row in rows:
            assert list(row) == ["n", "x", "f0", "infeas", "s_norm", "tau",
                                 "merit", "status"]
            assert row["s_norm"] is None and row["tau"] is None
            assert row["merit"] is None


class TestCheckCommands:
    def test_criticality_verdict_at_global_solution(self, capsys):
        code, out, _ = run_cli(capsys, "check", "criticality", "--builtin",
                               "example29", "--x0", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "critical"
        assert report["residual"] <= 1e-8
        assert report["kkt"]["stationarity"] <= 1e-9
        assert report["slater"]["holds"]

    @pytest.mark.parametrize("x0, known", [("-1", True), ("1", True),
                                           ("-1.04", False)])
    def test_known_multiplier_only_at_its_own_point(self, capsys, x0, known):
        code, out, _ = run_cli(capsys, "check", "criticality", "--builtin",
                               "example29", f"--x0={x0}", "--json")
        assert code == 0
        kkt = json.loads(out)["kkt"]
        assert (kkt is not None) == known
        if known:
            assert kkt["stationarity"] <= 1e-9

    def test_criticality_infeasible_point_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "criticality", "--builtin",
                             "example29", "--x0", "0.5")
        assert code == 2

    def test_generalized_check(self, capsys):
        code, out, _ = run_cli(capsys, "check", "generalized", "--builtin",
                               "example29", "--x0=-1", "--tau0", "1.5",
                               "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "generalized critical"
        code, out, _ = run_cli(capsys, "check", "generalized", "--builtin",
                               "example29", "--x0=-1", "--tau0", "1.0",
                               "--json")
        assert json.loads(out)["residual"] == pytest.approx(0.125, abs=1e-8)


class TestDecomposeAndVerify:
    def test_lambda_max_identity_report(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "lambda-max", "--builtin",
                               "example29", "--x0", "1", "--samples", "10",
                               "--json")
        assert code == 0
        report = json.loads(out)
        assert report["max_identity_error"] <= 1e-10
        assert "subgradients_at_x0" in report

    def test_verify_convexity_passes_on_library_instance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "convexity", "--builtin",
                               "stiefel11", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["G"]["passed"] and report["H"]["passed"]

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_verify_with_no_samples_exits_3(self, capsys, samples):
        # a check of nothing must not read as passed
        code, out, err = run_cli(capsys, "verify", "convexity", "--builtin",
                                 "example29", "--samples", samples, "--json")
        assert code == 3
        assert out == ""
        assert f"samples must be a positive integer, got {samples}" in err

    @pytest.mark.parametrize("samples, code", [("-3", 3), ("-1", 3),
                                               ("0", 0)])
    def test_decompose_rejects_a_negative_sample_count(self, capsys, samples,
                                                       code):
        got, out, err = run_cli(capsys, "decompose", "lambda-max",
                                "--builtin", "example29", "--samples",
                                samples, "--json")
        assert got == code
        if code == 3:
            assert out == ""
            assert "--samples must be nonnegative" in err
        else:
            assert json.loads(out)["samples"] == []

    def test_list_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "list", "builtins")
        assert code == 0
        assert "example29" in out.split()


class TestProblemFiles:
    def test_documented_examples_load_and_solve(self, capsys):
        for name in ("builtin_example29.json", "polynomial_quartic.json",
                     "quadratic_sdp_small.json"):
            problem = load_problem(DOCS / name)
            assert problem.feasible_set.dim >= 1
        code, out, _ = run_cli(capsys, "solve", "ccp", "--problem",
                               str(DOCS / "polynomial_quartic.json"),
                               "--x0", "2", "--json")
        assert code == 0
        assert json.loads(out)["x"][0] == pytest.approx(1.0, abs=1e-4)

    def test_polynomial_file_matches_builtin(self):
        filed = load_problem(DOCS / "polynomial_quartic.json")
        built = load_problem(DOCS / "builtin_example29.json")
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-10, 10, 1)
            assert filed.objective.f0(x) == pytest.approx(
                built.objective.f0(x), abs=1e-12)
            assert np.allclose(filed.constraint.value(x).blocks[0],
                               built.constraint.value(x).blocks[0])

    def test_schema_violations(self, tmp_path, capsys):
        bad = [
            ({"kind": "nope"}, "kind"),
            ({"kind": "scalar_dc_polynomial", "box": [[0, -1]],
              "objective": {"g0": [0], "h0": [0]},
              "constraints": [{"G": [0], "H": [0]}]}, "lo > hi"),
            ({"kind": "scalar_dc_polynomial", "box": [[-1, 1]],
              "objective": {"g0": [0]},
              "constraints": [{"G": [0], "H": [0]}]}, "h0"),
            ({"kind": "quadratic_sdp", "box": [[-1, 1]],
              "cone": {"psd": 2}, "objective": {}, "constraint": {
                  "C": [[0, 1], [0.5, 0]], "B": [], "A": []}}, "symmetric"),
        ]
        for doc, fragment in bad:
            with pytest.raises(SchemaError) as err:
                load_problem(doc)
            assert fragment in str(err.value)
        # nonconvex declared-convex part is rejected at load
        with pytest.raises(SchemaError):
            load_problem({"kind": "scalar_dc_polynomial", "box": [[-2, 2]],
                          "objective": {"g0": [0.0, 0.0, -1.0], "h0": [0.0]},
                          "constraints": [{"G": [0.0], "H": [0.0]}]})
        # the CLI maps schema problems to exit code 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "builtin", "name": "missing"}))
        code, _, err = run_cli(capsys, "solve", "ccp", "--problem", str(path),
                               "--x0", "0")
        assert code == 3

    def test_problem_given_as_json_text(self, capsys):
        # far longer than a file name may be: parsed, never looked up
        text = json.dumps(json.loads(
            (DOCS / "quadratic_sdp_small.json").read_text()))
        assert len(text) > 255
        code, out, _ = run_cli(capsys, "solve", "ccp", "--problem", text,
                               "--x0", "0,0", "--json")
        assert code == 0
        assert len(json.loads(out)["x"]) == 2
        F, _, _ = load_componentwise(text)
        assert F.order == 2

    def test_missing_or_unreadable_problem_file(self, capsys):
        missing = str(DOCS / "missing.json")
        code, _, err = run_cli(capsys, "solve", "ccp", "--problem", missing,
                               "--x0", "0,0")
        assert code == 3
        assert f"problem file not found: {missing}" in err
        with pytest.raises(SchemaError, match="problem file not found"):
            load_componentwise(missing)
        code, _, err = run_cli(capsys, "solve", "ccp", "--problem", str(DOCS),
                               "--x0", "0,0")
        assert code == 3
        assert "cannot read problem file" in err

    def test_decompose_validates_without_sampling_quadratic_files(
            self, capsys, monkeypatch):
        # the entrywise split of a quadratic_sdp file uses only C, B and A,
        # so its load must not sample the instance's convexity
        def refuse(self, *args, **kwargs):
            raise OracleCheckError("convexity sampled")

        small = json.loads((DOCS / "quadratic_sdp_small.json").read_text())
        monkeypatch.setattr(ProblemInstance, "self_check", refuse)
        code, out, _ = run_cli(capsys, "decompose", "lambda-max", "--problem",
                               str(DOCS / "quadratic_sdp_small.json"),
                               "--samples", "3", "--json")
        assert code == 0
        assert json.loads(out)["problem"] == small["name"]
        # every rejection of the document still holds
        asymmetric = json.loads(json.dumps(small))
        asymmetric["constraint"]["C"] = [[-1.0, 0.5], [0.0, -1.0]]
        weak_mu = json.loads(json.dumps(small))
        weak_mu["constraint"]["mu"] = 1e-6
        no_h0 = json.loads(json.dumps(small))
        del no_h0["objective"]["h0"]
        for doc, fragment in ((asymmetric, "not symmetric"),
                              (weak_mu, "below the certified threshold"),
                              (no_h0, "h0")):
            code, _, err = run_cli(capsys, "decompose", "lambda-max",
                                   "--problem", json.dumps(doc))
            assert code == 3
            assert fragment in err
        # polynomial rows, which the split uses, are certified, not sampled
        quartic = json.loads((DOCS / "polynomial_quartic.json").read_text())
        quartic["constraints"][0]["G"] = [0.0, 0.0, -1.0]
        code, _, err = run_cli(capsys, "decompose", "lambda-max", "--problem",
                               json.dumps(quartic))
        assert code == 3
        assert "constraints[0].G is not convex on the box" in err

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        """Make every sampled convexity check raise."""
        def refuse(*args, **kwargs):
            raise OracleCheckError("convexity sampled")

        monkeypatch.setattr(ProblemInstance, "self_check", refuse)
        monkeypatch.setattr(dc.ScalarDcFunction, "self_check", refuse)
        monkeypatch.setattr(dc, "verify_k_convexity", refuse)

    def test_loads_and_builds_certify_without_sampling(self, capsys,
                                                       no_sampling):
        for name in EXAMPLES:
            load_problem(DOCS / name)
            load_problem(str(DOCS / name))
        load_componentwise(DOCS / "polynomial_quartic.json")
        builtin("quadratic_sdp_42")
        for seed in range(4):
            quadratic_sdp(seed)
        code, out, _ = run_cli(capsys, "solve", "ccp", "--problem",
                               str(DOCS / "quadratic_sdp_small.json"),
                               "--x0", "0,0", "--json")
        assert code == 0
        # every rejection still holds, certified instead of sampled
        small = json.loads((DOCS / "quadratic_sdp_small.json").read_text())
        quartic = json.loads((DOCS / "polynomial_quartic.json").read_text())
        concave, cubic = [0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 1.0]
        cases = [
            (edited(small, ("constraint", "C"), [[-1.0, 0.5], [0.0, -1.0]]),
             "constraint.C is not symmetric"),
            (edited(small, ("constraint", "mu"), 1e-6),
             "below the certified threshold"),
            (edited(small, ("objective", "g0", "P"),
                    [[1.0, 0.0], [0.0, -1e-3]]),
             "objective.g0.P must be positive semidefinite"),
            (edited(small, ("box",), [[-3.0, 3.0], [3.0, -3.0]]), "lo > hi"),
            (edited(quartic, ("objective", "g0"), concave),
             "objective.g0 is not convex on the box"),
            (edited(quartic, ("objective", "h0"), concave),
             "objective.h0 is not convex on the box"),
            (edited(quartic, ("constraints", 0, "G"), cubic),
             "constraints[0].G is not convex on the box"),
            (edited(quartic, ("constraints", 0, "H"), cubic),
             "constraints[0].H is not convex on the box"),
            (edited(quartic, ("constraints", 0, "G"), [{"a": 1.0}]),
             "constraints[0].G must be numeric"),
            (edited(quartic, ("objective", "g0"), [float("nan")]),
             "objective.g0 must be finite"),
        ]
        for doc, fragment in cases:
            code, _, err = run_cli(capsys, "solve", "ccp", "--problem",
                                   json.dumps(doc), "--x0", "0,0")
            assert code == 3, fragment
            assert fragment in err

    @pytest.mark.parametrize("path, value, fragment", [
        (("constraint", "mu"), "abc", "mu must be a finite real number"),
        (("constraint", "mu"), float("nan"), "mu must be a finite real number"),
        (("constraint", "mu"), float("inf"), "mu must be a finite real number"),
        (("constraint", "mu"), True, "mu must be a finite real number"),
        (("objective", "g0", "p"), [float("nan"), 0.0],
         "objective.g0.p must be finite"),
        (("objective", "h0", "p"), ["x", 0.0], "objective.h0.p must be numeric"),
        (("objective", "g0", "c"), float("inf"), "objective.g0.c must be finite"),
        (("objective", "h0", "c"), float("-inf"),
         "objective.h0.c must be finite"),
        (("objective", "g0", "c"), [1.0], "objective.g0.c must be a number"),
        (("cone", "psd"), [2], "cone.psd must be a positive integer"),
        (("cone", "psd"), True, "cone.psd must be a positive integer"),
        (("cone", "psd"), 2.5, "cone.psd must be a positive integer"),
        (("cone", "psd"), 0, "cone.psd must be a positive integer"),
        # finite and above the threshold, but so large that F rounds away in
        # G = F + (mu/2)|x|^2 I; at 1e308 (mu/2)|x|^2 also overflows
        (("constraint", "mu"), 1e308, "rounds F away on the box"),
        (("constraint", "mu"), 1e17, "rounds F away on the box"),
        (("constraint", "mu"), 1e306, "rounds F away on the box"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_malformed_numbers_exit_3(self, capsys, no_sampling, path, value,
                                      fragment):
        text = json.dumps(edited(json.loads(
            (DOCS / "quadratic_sdp_small.json").read_text()), path, value))
        for argv in (("solve", "ccp", "--problem", text, "--x0", "0,0"),
                     ("decompose", "lambda-max", "--problem", text)):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3
            assert fragment in err

    def test_one_route_to_a_builtin(self, capsys):
        unknown = "unknown builtin 'nope'"
        for argv in (("solve", "ccp", "--x0", "0"),
                     ("check", "criticality", "--x0", "0"),
                     ("decompose", "lambda-max"),
                     ("verify", "convexity")):
            code, _, err = run_cli(capsys, *argv, "--builtin", "nope")
            assert code == 3
            assert unknown in err
        for load in (load_problem, load_componentwise):
            with pytest.raises(SchemaError, match=unknown):
                load({"kind": "builtin", "name": "nope"})
        with pytest.raises(SchemaError, match="entrywise decomposition needs"):
            load_componentwise({"kind": "builtin", "name": "stiefel11"})

    def test_library_errors_while_loading_are_schema_errors(self):
        small = json.loads((DOCS / "quadratic_sdp_small.json").read_text())
        for doc, message in (
                (edited(small, ("constraint", "mu"), 1e-6),
                 "below the certified threshold"),
                (edited(small, ("box",), [[-3.0, 3.0], [3.0, -3.0]]),
                 "box has lo > hi in some coordinate"),
                (edited(small, ("box",), [[-3.0, 3.0], [0.0, float("inf")]]),
                 "box bounds must be finite")):
            for load in (load_problem, load_componentwise):
                with pytest.raises(SchemaError, match=message):
                    load(doc)

    @pytest.mark.parametrize("facts, fragment", [
        ([1], "known_facts must be an object"),
        ({"multipliers": {"1.0": "x"}},
         "known_facts.multipliers['1.0'] must be a finite number"),
        ({"multipliers": {"1.0": True}},
         "known_facts.multipliers['1.0'] must be a finite number"),
        ({"multipliers": {"1.0": float("nan")}},
         "known_facts.multipliers['1.0'] must be a finite number"),
        ({"multipliers": [0.5]}, "known_facts.multipliers must be an object"),
    ])
    def test_known_facts_are_validated(self, capsys, facts, fragment):
        quartic = json.loads((DOCS / "polynomial_quartic.json").read_text())
        text = json.dumps(edited(quartic, ("known_facts",), facts))
        code, out, err = run_cli(capsys, "check", "criticality", "--problem",
                                 text, "--x0", "1")
        assert code == 3
        assert out == ""
        assert fragment in err

    def test_known_multiplier_from_a_file(self, capsys):
        quartic = json.loads((DOCS / "polynomial_quartic.json").read_text())
        doc = edited(quartic, ("known_facts", "multipliers"), {"1.0": 0.5})
        code, out, _ = run_cli(capsys, "check", "criticality", "--problem",
                               json.dumps(doc), "--x0", "1", "--json")
        assert code == 0
        assert json.loads(out)["kkt"] is not None

    @pytest.mark.parametrize("box", [
        [-3.0, 3.0, -3.0, 3.0],
        [],
        [[-3.0, 3.0, -3.0], [3.0, -3.0, 3.0]],
        [[-3.0, 3.0], [-3.0]],
        [[[-3.0, 3.0]], [[-3.0, 3.0]]],
    ])
    def test_box_is_a_list_of_pairs(self, capsys, box):
        small = json.loads((DOCS / "quadratic_sdp_small.json").read_text())
        text = json.dumps(edited(small, ("box",), box))
        code, out, err = run_cli(capsys, "solve", "ccp", "--problem", text,
                                 "--x0", "0,0")
        assert code == 3
        assert out == ""
        assert "box must be a non-empty list of [lo, hi] pairs" in err

    def test_load_problem_builds_no_entrywise_view(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("entrywise view built")

        monkeypatch.setattr(problem_io, "quadratic_componentwise", refuse)
        monkeypatch.setattr(problem_io, "diagonal_componentwise", refuse)
        for name in EXAMPLES:
            load_problem(DOCS / name)

    def test_componentwise_views(self):
        F, fs, _ = load_componentwise({"kind": "builtin", "name": "example29"})
        x = np.array([1.3])
        assert F.value(x)[0, 0] == pytest.approx(1.3 ** 2 - 1.3 ** 4,
                                                 abs=1e-12)
        F2, _, _ = load_componentwise(str(DOCS / "quadratic_sdp_small.json"))
        assert F2.order == 2
        doc = json.loads((DOCS / "quadratic_sdp_small.json").read_text())
        probe = load_problem(doc)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert np.allclose(F2.value(x),
                               probe.constraint.value(x).blocks[0],
                               atol=1e-10)
