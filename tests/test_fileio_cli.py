import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mealopt as m
from mealopt import cli, fileio
from mealopt.cli import main
from mealopt.errors import SchemaError
from mealopt.fileio import (
    CSV_HEADER,
    load_problem,
    load_trace_columns,
    save_problem,
    save_trace,
)
from mealopt.solvers import ALGORITHMS
from tests.conftest import OpaqueProx


def catalog_problems():
    cons = m.LinearConstraint([[1.0, -1.0]], [0.0])
    smooth = m.QuadraticSmooth(np.diag([2.0, -2.0]))
    return [
        ("zero", m.Problem(cons, m.Zero())),
        ("quad", m.Problem(cons, m.QuadraticForm(Q=[[1.0, 0.0], [0.0, 2.0]],
                                                 r=[0.1, -0.2], c=0.3))),
        ("box", m.Problem(cons, m.BoxIndicator([-1.0, -np.inf], [1.0, np.inf],
                                               implicit_class=m.ImplicitClass.lipschitz(2.0)),
                          smooth)),
        ("l1", m.Problem(cons, m.L1(weight=0.7), smooth)),
        ("scad", m.Problem(cons, m.SCAD(lam=1.0, a=3.7))),
        ("mcp", m.Problem(cons, m.MCP(lam=0.5, a=4.0))),
        ("pwmin", m.Problem(cons, m.PointwiseMin(pieces=(
            (m.QuadraticForm(Q=[[0.2, 0.0], [0.0, 0.2]]), None),
            (m.QuadraticForm(Q=[[0.1, 0.0], [0.0, 0.1]], c=0.5),
             m.BoxIndicator([-2.0, -2.0], [2.0, 2.0])),
        )))),
    ]


class TestProblemRoundTrip:
    @pytest.mark.parametrize("name,prob", catalog_problems())
    def test_round_trip_values_agree(self, name, prob, tmp_path):
        path = tmp_path / f"{name}.json"
        save_problem(prob, path)
        back = load_problem(path)
        rng = np.random.default_rng(40)
        gamma = 0.4 / max(prob.rho_total, 1.0)
        for _ in range(25):
            x = rng.uniform(-0.9, 0.9, size=2)
            assert back.objective_value(x) == pytest.approx(
                prob.objective_value(x), abs=1e-12)
            np.testing.assert_allclose(back.prox_part.prox(gamma, x),
                                       prob.prox_part.prox(gamma, x), atol=1e-9)

    def test_exp1_round_trip_same_solver_behavior(self, tmp_path):
        prob = m.build_exp1()
        path = tmp_path / "exp1.json"
        save_problem(prob, path)
        back = load_problem(path)
        plan = m.PenaltyPlan.fixed(50.0, 0.25, 1.0)
        init = (np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1))
        cfg = m.SolverConfig("meal", plan,
                             subproblem=m.InnerProxGradient(tol=1e-11),
                             stop=m.StopRule(max_iters=10, stat_tol=1e-12,
                                             feas_tol=1e-12))
        t1 = m.run(prob, cfg, init=init)
        t2 = m.run(back, cfg, init=init)
        np.testing.assert_array_equal(t1.column("objective"), t2.column("objective"))
        np.testing.assert_array_equal(t1.column("feasibility"), t2.column("feasibility"))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"constraint": {"A": [[1.0]]')
        with pytest.raises(SchemaError):
            load_problem(path)

    def test_missing_field_names_context(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"constraint": {"A": [[1.0]], "b": [0.0]},
                                    "objective": {"prox": {"kind": "l1"}}}))
        with pytest.raises(SchemaError, match="objective.prox.weight"):
            load_problem(path)

    def test_box_of_the_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "constraint": {"A": [[1.0, 1.0]], "b": [3.0]},
            "objective": {"smooth": None, "prox": {"kind": "box", "lower": [0.0],
                                                   "upper": [1.0]}}}))
        with pytest.raises(SchemaError, match="n=2"):
            load_problem(path)

    @pytest.mark.parametrize("prox, smooth, field", [
        ({"kind": "box", "lower": [float("-inf"), 0.0], "upper": [None, 1.0]}, None,
         "objective.prox.lower[0]"),
        ({"kind": "scad", "lam": 1.0, "a": float("inf")}, None, "objective.prox"),
        ({"kind": "quadratic_form", "Q": [[1.0, 0.0], [0.0, 1.0]], "c": float("nan")},
         None, "objective.prox"),
        ({"kind": "zero"}, {"kind": "quadratic", "Q": [[float("nan"), 0.0], [0.0, 1.0]]},
         "objective.smooth"),
        ({"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0],
          "implicit_class": {"kind": "bounded", "constant": float("nan")}}, None,
         "objective.prox.implicit_class"),
    ], ids=["bound", "scad", "quadratic-form", "smooth", "implicit-class"])
    def test_non_finite_number_rejected(self, tmp_path, prox, smooth, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"constraint": {"A": [[1.0, 1.0]], "b": [1.0]},
                                    "objective": {"smooth": smooth, "prox": prox}}))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert err.value.field == field

    @pytest.mark.parametrize("path, value, field", [
        (("constraint", "A"), [["1", "-1"]], "constraint.A[0][0]"),
        (("constraint", "b"), [True], "constraint.b[0]"),
        (("objective", "smooth", "r"), [0.0, False], "objective.smooth.r[1]"),
        (("objective", "smooth", "c"), "2", "objective.smooth.c"),
        (("objective", "prox", "lower"), [False, None], "objective.prox.lower[0]"),
        (("objective", "prox"), {"kind": "l1", "weight": True}, "objective.prox.weight"),
        (("objective", "implicit_class", "constant"), "2",
         "objective.implicit_class.constant"),
        (("objective", "implicit_class", "constant"), None, "objective.implicit_class"),
    ], ids=["matrix", "vector", "vector-bool", "scalar", "bound", "prox-field",
            "constant", "null-constant"])
    def test_a_number_must_be_a_json_number(self, tmp_path, capsys, path, value, field):
        """A boolean or a string where a number goes is a schema error, not
        read as 1.0, 0.0 or the number it spells."""
        doc = {"constraint": {"A": [[1.0, -1.0]], "b": [0.0]},
               "objective": {"smooth": {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                                        "r": [0.0, 0.0], "c": 0.0},
                             "prox": {"kind": "box", "lower": [0.0, None],
                                      "upper": [1.0, None]},
                             "implicit_class": {"kind": "lipschitz", "constant": 2.0}}}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        load_problem(good)
        *parents, key = path
        entry = doc
        for name in parents:
            entry = entry[name]
        entry[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_problem(bad)
        assert err.value.field == field
        assert main(["solve", "--input", str(bad), "--algorithm", "meal", "--beta", "1",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert f"schema error at {field}" in capsys.readouterr().err

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"constraint": {"A": [[1.0]], "b": [0.0]},
                                    "objective": {"prox": {"kind": "entropy"}}}))
        with pytest.raises(SchemaError, match="unknown prox kind"):
            load_problem(path)
        # a kind that is not a string, which no table lookup may choke on
        path.write_text(json.dumps({"constraint": {"A": [[1.0]], "b": [0.0]},
                                    "objective": {"prox": {"kind": ["l1"]}}}))
        with pytest.raises(SchemaError, match="unknown prox kind") as err:
            load_problem(path)
        assert err.value.field == "objective.prox.kind"


@pytest.mark.parametrize("text, field, match", [
    ("[1, 2]", None, "top level must be an object"),
    (json.dumps({"constraint": {"A": [[1.0, 2.0]], "b": [1.0, 2.0]},
                 "objective": {"prox": {"kind": "zero"}}}), "constraint", "b has 2 rows"),
    (json.dumps({"constraint": {"A": [[1.0]], "b": [0.0]},
                 "objective": {"smooth": {"kind": "logistic"}, "prox": {"kind": "zero"}}}),
     "objective.smooth.kind", "only 'quadratic'"),
], ids=["top-level", "constraint", "smooth-kind"])
def test_load_problem_rejects(tmp_path, text, field, match):
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match) as err:
        load_problem(path)
    assert err.value.field == (field or str(path))


@pytest.mark.parametrize("problem, match", [
    (m.Problem(m.LinearConstraint([[1.0]], [0.0]), OpaqueProx()), "unserializable prox kind"),
    (m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.Zero(),
               m.SmoothFunction(lambda x: 0.0, lambda x: 0.0 * x, 1.0)),
     "only quadratic smooth parts"),
], ids=["prox-kind", "smooth"])
def test_save_problem_rejects(tmp_path, problem, match):
    with pytest.raises(SchemaError, match=match):
        save_problem(problem, tmp_path / "p.json")
    assert not (tmp_path / "p.json").exists()


class TestTraceCSV:
    def test_header_fixed(self, tmp_path):
        assert CSV_HEADER == ("k,objective,feasibility,stationarity,lyapunov,"
                              "lambda_norm,xz_gap,wall_time")
        prob = m.Problem(m.LinearConstraint(np.eye(2), np.zeros(2)), m.Zero())
        tr = m.run(prob, m.SolverConfig("meal", m.PenaltyPlan.fixed(1.0, 0.5, 1.0)))
        path = tmp_path / "t.csv"
        save_trace(tr, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER

    def test_round_trip_and_shortest_format(self, tmp_path):
        prob = m.build_exp1()
        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(50.0, 0.5, 1.0),
                             subproblem=m.InnerProxGradient(tol=1e-10),
                             stop=m.StopRule(max_iters=30, stat_tol=1e-8,
                                             feas_tol=1e-8))
        tr = m.run(prob, cfg, init=(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                                    np.zeros(1)))
        path = tmp_path / "t.csv"
        save_trace(tr, path)
        cols = load_trace_columns(path)
        np.testing.assert_array_equal(cols["objective"], tr.column("objective"))
        np.testing.assert_array_equal(cols["stationarity"], tr.column("stationarity"))

    @pytest.mark.parametrize("block", [4, 256])
    def test_rows_are_formatted_value_by_value(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(fileio, "_ROWS_PER_BLOCK", block)
        tr = m.run(m.build_exp1(), m.SolverConfig(
            "meal", m.PenaltyPlan.fixed(10.0, 0.25, 1.0),
            stop=m.StopRule(max_iters=20, stat_tol=1e-300, feas_tol=1e-300)),
            init=(np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1)))
        assert tr.n_rows % block != 0            # a partial last block
        path = tmp_path / "t.csv"
        save_trace(tr, path)
        rows = [",".join([str(int(tr.column("k")[i]))] +
                         [repr(float(tr.column(name)[i]))
                          for name in CSV_HEADER.split(",")[1:]])
                for i in range(tr.n_rows)]
        assert path.read_bytes() == ("\n".join([CSV_HEADER] + rows) + "\n").encode()

    @pytest.mark.parametrize("damage, line, detail", [
        (lambda text: "", 1, "empty trace file"),
        (lambda text: text[:text.rindex(",")], 4, "7 fields, want 8"),
        (lambda text: text.replace("\n1,", "\n1,abc", 1), 3, "could not convert .*'abc"),
        (lambda text: text.replace("wall_time", "wall", 1), 1, "unexpected header"),
    ], ids=["empty", "last-row-cut-short", "not-a-number", "header"])
    def test_malformed_trace_names_path_and_line(self, tmp_path, damage, line, detail):
        tr = m.run(m.build_exp1(), m.SolverConfig(
            "meal", m.PenaltyPlan.fixed(10.0, 0.25, 1.0),
            stop=m.StopRule(max_iters=2, stat_tol=1e-300, feas_tol=1e-300)),
            init=(np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1)))
        path = tmp_path / "t.csv"
        save_trace(tr, path)
        assert tr.n_rows == 3 and len(load_trace_columns(path)["wall_time"]) == 3
        path.write_text(damage(path.read_text()))
        with pytest.raises(SchemaError, match=detail) as err:
            load_trace_columns(path)
        assert err.value.field == f"{path} line {line}"


# a solve command that validates on build_exp2(seed=3, m=2, n=6)
RUNS = ["solve", "--algorithm", "meal", "--gamma", "0.05", "--max-iters", "5"]
PENALTY = ["solve", "--algorithm", "meal", "--gamma", "0.1"]
NAN_RUNS = ["solve", "--algorithm", "imeal", "--gamma", "0.05", "--beta", "1"]

# `mealopt prox-table --kind scad --lam 1 --a 3.7 --gamma 0.5`, the README
# example, as the per-point loop printed it (its prox column without numpy's
# `np.float64(...)` wrapper)
SCAD_README_TABLE = """\
# kind=scad gamma=0.5
-3.0 -2.8409090909090913
-2.75 -2.534090909090909
-2.5 -2.227272727272727
-2.25 -1.9204545454545452
-2.0 -1.6136363636363635
-1.75 -1.3068181818181819
-1.5 -1.0
-1.25 -0.75
-1.0 -0.5
-0.75 -0.25
-0.5 -0.0
-0.25 -0.0
0.0 0.0
0.25 0.0
0.5 0.0
0.75 0.25
1.0 0.5
1.25 0.75
1.5 1.0
1.75 1.3068181818181819
2.0 1.6136363636363635
2.25 1.9204545454545452
2.5 2.227272727272727
2.75 2.534090909090909
3.0 2.8409090909090913
"""


def run_module(*argv):
    """`python -m mealopt ARGV` from the source tree, as tier-1 and the
    benchmark use it, with a timeout so that a command that never ends fails."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "mealopt", *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=30)


class TestCLI:
    def test_runs_as_a_module(self):
        out = run_module("--version")
        assert out.returncode == 0
        assert out.stdout.strip() == "0.1.0"

    def test_exp1_writes_traces(self, tmp_path, capsys):
        code = main(["exp1", "--output-dir", str(tmp_path), "--max-iters", "600"])
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "exp1").glob("*.csv"))
        assert "summary.csv" in files
        assert "alm_beta50.csv" in files
        assert sum(f.startswith("limeal") for f in files) == 3

    def test_bad_beta_exits_2_and_names_flag(self, tmp_path, capsys):
        prob_path = tmp_path / "p.json"
        save_problem(m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.Zero()), prob_path)
        code = main(["solve", "--input", str(prob_path), "--algorithm", "meal",
                     "--beta", "-1"])
        assert code == 2
        assert "--beta" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--algorithm", "meal", "--beta", "1", "--max-iters", "0"],
        ["solve", "--algorithm", "meal", "--horizon-K", "0", "--alpha-target", "1"],
        ["exp1", "--max-iters", "0"],
        ["exp2", "--n", "3"],
        ["exp2", "--m", "0"],
        # penalty and schedule flags that would be ignored; without them each
        # command runs
        [*RUNS, "--beta", "1", "--alpha-target", "1"],
        [*RUNS, "--beta", "1", "--horizon-K", "5", "--alpha-target", "1"],
        [*RUNS, "--beta", "1", "--cap-variant", "meal-b"],
        [*RUNS, "--horizon-K", "5", "--alpha-target", "1", "--cap-variant", "meal-b"],
        [*RUNS, "--beta", "1", "--epsilon0", "0.1"],
        ["solve", "--algorithm", "alm", "--beta", "1", "--max-iters", "5", "--eta", "0.5"],
        # penalties whose alpha is not a positive finite float
        [*PENALTY, "--beta", "1e300"],
        [*PENALTY, "--horizon-K", "3", "--alpha-target", "1e-300"],
        [*PENALTY, "--beta", "1", "--gamma", "1e-300"],
        # alpha targets with c_gamma_A = 0: no finite beta
        [*PENALTY, "--horizon-K", "3", "--alpha-target", "1", "--gamma", "1e-300"],
        [*PENALTY, "--alpha-target", "1", "--gamma", "1e-300"],
        # NaN is not positive
        [*NAN_RUNS, "--epsilon0", "nan"],
        [*NAN_RUNS, "--stat-tol", "nan"],
        [*NAN_RUNS, "--feas-tol", "nan"],
        # nor is infinity finite
        [*PENALTY, "--beta", "inf"],
        [*PENALTY, "--beta", "1", "--gamma", "inf"],
        [*PENALTY, "--horizon-K", "5", "--alpha-target", "inf"],
        [*NAN_RUNS, "--stat-tol", "inf", "--feas-tol", "inf"],
        [*NAN_RUNS, "--epsilon0", "inf"],
    ], ids=["solve-max-iters", "horizon-k", "exp1-max-iters",
            "exp2-n", "exp2-m", "beta-and-alpha-target", "beta-and-horizon-k",
            "cap-variant-with-beta", "cap-variant-with-horizon-k",
            "epsilon0-without-imeal", "alm-eta-half", "beta-overflow",
            "horizon-beta-overflow", "gamma-underflow", "horizon-target-underflow",
            "target-underflow", "epsilon0-nan", "stat-tol-nan", "feas-tol-nan",
            "beta-inf", "gamma-inf", "alpha-target-inf", "tolerances-inf", "epsilon0-inf"])
    def test_usage_errors_exit_2_with_an_error_line(self, argv, tmp_path, capsys):
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        if argv[0] == "solve":
            argv = argv + ["--input", str(tmp_path / "qp.json")]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [[], ["--horizon-K", "3"]])
    def test_unreachable_alpha_target_names_target_and_c(self, horizon, tmp_path,
                                                         capsys):
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        argv = [*PENALTY, *horizon, "--alpha-target", "1", "--gamma", "1e-300",
                "--input", str(tmp_path / "qp.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: alpha target 1 and c_gamma_A = 0 give no finite beta\n"

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_every_algorithm_solves_from_the_cli(self, algorithm, tmp_path):
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        code = main(["solve", "--input", str(tmp_path / "qp.json"),
                     "--algorithm", algorithm, "--beta", "1", "--gamma", "0.01",
                     "--max-iters", "20", "--output-dir", str(tmp_path)])
        assert code in (0, 3)
        assert (tmp_path / f"{algorithm}_trace.csv").exists()

    def test_unknown_flag_rejected(self, capsys):
        assert main(["exp1", "--frobnicate"]) == 2

    def test_solve_success_and_trace(self, tmp_path):
        prob_path = tmp_path / "p.json"
        save_problem(m.Problem(m.LinearConstraint(np.eye(2), np.zeros(2)), m.Zero()),
                     prob_path)
        code = main(["solve", "--input", str(prob_path), "--algorithm", "meal",
                     "--beta", "1.0", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "meal_trace.csv").exists()

    def test_solve_summary_counts_inner_iterations(self, tmp_path, capsys):
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        code = main(["solve", "--input", str(tmp_path / "qp.json"),
                     "--algorithm", "limeal", "--beta", "20", "--gamma", "0.05",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("limeal: Converged after ")
        assert line.endswith(f"trace written to {tmp_path / 'limeal_trace.csv'}")
        steps, inner = line.split(" after ")[1].split(";")[0].split(", ")
        assert steps.endswith(" steps") and inner.endswith(" inner iterations")
        # the inner loop (box prox part) runs at least once per step
        assert int(inner.split()[0]) > int(steps.split()[0]) > 1

    def test_solve_nonconvergence_exits_3_trace_still_written(self, tmp_path):
        save_problem(m.build_exp1(), tmp_path / "exp1.json")
        code = main(["solve", "--input", str(tmp_path / "exp1.json"),
                     "--algorithm", "alm", "--beta", "50", "--max-iters", "50",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "alm_trace.csv").exists()

    def test_solve_non_finite_exits_3_trace_still_written(self, tmp_path, capsys,
                                                          monkeypatch):
        # h's gradient turns NaN at its fourth call, at the third step's x;
        # the third step's state would carry it and the run ends NonFinite
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        calls, real = [], m.QuadraticForm.gradient

        def gradient(self, x):
            calls.append(1)
            g = real(self, x)
            return np.full_like(g, np.nan) if len(calls) > 3 else g

        monkeypatch.setattr(m.QuadraticForm, "gradient", gradient)
        traces, real_run = [], cli.run
        monkeypatch.setattr(cli, "run", lambda *a: traces.append(real_run(*a)) or traces[-1])
        code = main(["solve", "--input", str(tmp_path / "qp.json"),
                     "--algorithm", "limeal", "--beta", "20", "--gamma", "0.05",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().out.startswith("limeal: NonFinite after 2 steps, ")
        cols = load_trace_columns(tmp_path / "limeal_trace.csv")
        assert list(cols["k"]) == [0, 1, 2]
        assert np.isfinite(traces[0].terminal.grad_h).all()

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["solve", "--input", str(bad), "--algorithm", "meal",
                     "--beta", "1.0"])
        assert code == 2

    def test_nan_in_a_problem_file_exits_2(self, tmp_path, capsys):
        # Python's json reads and writes the bare token NaN
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"constraint": {"A": [[1.0, 1.0]], "b": [1.0]},
                                   "objective": {"prox": {"kind": "l1",
                                                          "weight": float("nan")}}}))
        assert "NaN" in bad.read_text()
        code = main(["solve", "--input", str(bad), "--algorithm", "meal",
                     "--beta", "1.0", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "schema error at objective.prox" in capsys.readouterr().err

    def test_solve_sets_the_run_up_once(self, tmp_path, monkeypatch):
        # one context, and one check of ALM's free-block curvature, in validate
        from mealopt import envelope, solvers

        save_problem(m.build_exp1(), tmp_path / "exp1.json")
        calls = {"contexts": 0, "curvature": 0}
        real_context, real_check = solvers.EnvelopeContext, envelope.check_free_curvature

        def context(*args):
            calls["contexts"] += 1
            return real_context(*args)

        def check(*args):
            calls["curvature"] += 1
            return real_check(*args)

        monkeypatch.setattr(solvers, "EnvelopeContext", context)
        monkeypatch.setattr(envelope, "check_free_curvature", check)
        code = main(["solve", "--input", str(tmp_path / "exp1.json"), "--algorithm", "alm",
                     "--beta", "50", "--max-iters", "5", "--output-dir", str(tmp_path)])
        assert code == 3
        assert calls == {"contexts": 1, "curvature": 1}

    @pytest.mark.parametrize("argv", [
        [*RUNS, "--beta", "1", "--output-dir", "{afile}/sub"],
        ["exp1", "--max-iters", "5", "--output-dir", "{afile}"],
        ["prox-table", "--kind", "l1", "--output", "{afile}/x"],
    ], ids=["solve", "exp1", "prox-table"])
    def test_an_unwritable_output_path_exits_2(self, argv, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        if argv[0] == "solve":
            argv = argv + ["--input", str(tmp_path / "qp.json")]
        assert main([arg.format(afile=afile) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        [*RUNS, "--beta", "1", "--output-dir", "{afile}/sub"],
        ["exp1", "--max-iters", "5", "--output-dir", "{afile}"],
        ["exp2", "--m", "2", "--n", "6", "--max-iters", "5", "--output-dir", "{afile}/sub"],
    ], ids=["solve", "exp1", "exp2"])
    def test_an_output_dir_under_a_file_is_refused_before_any_run(self, argv, tmp_path,
                                                                  monkeypatch):
        from mealopt import experiments

        afile = tmp_path / "afile"
        afile.write_text("")
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        if argv[0] == "solve":
            argv = argv + ["--input", str(tmp_path / "qp.json")]
        runs = []
        for module in (cli, experiments):
            real = module.run
            monkeypatch.setattr(module, "run",
                                lambda *a, real=real, **k: runs.append(a) or real(*a, **k))
        assert main([arg.format(afile=afile) for arg in argv]) == 2
        assert runs == []

    def test_limeal_direct_run_ends_in_a_status(self, tmp_path):
        # the linearized step needs only beta A'A + I/gamma to be definite
        save_problem(m.Problem(m.LinearConstraint([[1.0, 1.0]], [1.0]), m.Zero(),
                               m.QuadraticSmooth(np.diag([1.0, -30.0]))),
                     tmp_path / "p.json")
        code = main(["solve", "--input", str(tmp_path / "p.json"), "--algorithm",
                     "limeal", "--beta", "1", "--gamma", "0.5",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "limeal_trace.csv").exists()

    def test_alpha_target_flow(self, tmp_path):
        # Theorem-style beta selection from the admissible cap
        prob_path = tmp_path / "p.json"
        save_problem(m.Problem(m.LinearConstraint([[1.0, -1.0]], [0.0]), m.Zero()),
                     prob_path)
        code = main(["solve", "--input", str(prob_path), "--algorithm", "meal",
                     "--gamma", "0.5", "--alpha-target", "10.0",
                     "--cap-variant", "meal-a", "--output-dir", str(tmp_path)])
        assert code == 0

    def test_alpha_target_makes_one_gram_eigendecomposition(self, tmp_path,
                                                            monkeypatch):
        prob_path = tmp_path / "p.json"
        save_problem(m.Problem(m.LinearConstraint([[1.0, -1.0]], [0.0]), m.Zero()),
                     prob_path)
        grams = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda M: grams.append(M.shape) or real(M))
        code = main(["solve", "--input", str(prob_path), "--algorithm", "meal",
                     "--gamma", "0.5", "--alpha-target", "10.0",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        assert grams == [(1, 1)]          # AA', not A'A

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_subproblem_path_flag_paper72(self, tmp_path):
        save_problem(m.build_exp2(seed=3, m=2, n=6), tmp_path / "qp.json")
        code = main(["solve", "--input", str(tmp_path / "qp.json"),
                     "--algorithm", "limeal", "--beta", "20", "--gamma", "0.05",
                     "--subproblem-path", "paper72", "--max-iters", "3000",
                     "--output-dir", str(tmp_path)])
        assert code in (0, 3)
        assert (tmp_path / "limeal_trace.csv").exists()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        prob_path = tmp_path / "p.json"
        save_problem(m.Problem(m.LinearConstraint(np.eye(2), np.zeros(2)), m.Zero()),
                     prob_path)
        monkeypatch.setenv("MEALOPT_OUT_DIR", str(tmp_path / "envout"))
        code = main(["solve", "--input", str(prob_path), "--algorithm", "meal",
                     "--beta", "1.0"])
        assert code == 0
        assert (tmp_path / "envout" / "meal_trace.csv").exists()

    def test_prox_table(self, tmp_path, capsys):
        out = tmp_path / "scad.txt"
        code = main(["prox-table", "--kind", "scad", "--lam", "1.0", "--a", "3.7",
                     "--gamma", "0.5", "--lo", "-2", "--hi", "2", "--step", "0.5",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# kind=scad")
        assert len(lines) == 1 + 9
        rows = [line.split() for line in lines[1:]]
        assert all(len(row) == 2 and [float(tok) for tok in row] for row in rows)
        assert main(["prox-table", "--kind", "scad", "--lam", "1", "--a", "3.7",
                     "--gamma", "0.5"]) == 0
        assert capsys.readouterr().out == SCAD_README_TABLE
        assert main(["prox-table", "--kind", "l1", "--lo", "1", "--hi", "-1"]) == 0
        assert capsys.readouterr().out == "# kind=l1 gamma=0.5\n"

    @pytest.mark.parametrize("grid", [["--lo=-1e300", "--hi", "1e300", "--step", "1"],
                                      ["--hi", "inf"], ["--step", "inf"]],
                             ids=["oversize", "infinite-hi", "infinite-step"])
    def test_prox_table_refuses_a_grid_it_cannot_print(self, grid, tmp_path):
        """Exit 2 before any prox call. Run with a timeout: a grid walked by
        `v += step` with a step under the float spacing at --lo never ends."""
        out = tmp_path / "table.txt"
        done = run_module("prox-table", "--kind", "l1", *grid, "--output", str(out))
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert not out.exists()

    def test_prox_table_bad_parameter_exits_2(self, capsys):
        assert main(["prox-table", "--kind", "scad", "--a", "1.5"]) == 2
        assert "schema error" in capsys.readouterr().err
