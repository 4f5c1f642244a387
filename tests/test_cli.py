import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubeineq
from cubeineq import cli
from cubeineq import counterexamples as cx
from cubeineq import inequalities
from cubeineq import quantum as qt
from cubeineq.cli import main
from cubeineq.norms import sign_total_window


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code = main(["--version"])
    assert code == 0
    assert "cubeineq" in capsys.readouterr().out


def test_riesz_lower_p2_identity(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--ineq", "RIESZ_LOWER", "--n", "6",
                           "--p", "2", "--search", "random", "--trials", "50",
                           "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["rows"][0]["ratio"] - 1.0) < 1e-9


def test_pisier_constant_subcommand(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "pisier-constant",
                           "--n-list", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["minimum"] == pytest.approx(5.8284271, abs=1e-6)


def test_pisier_constant_rows_carry_the_bound(capsys):
    # the bound's infimum is not attained at n = 1, so that row leaves it blank
    code, out, _ = run_cli(capsys, "counterexample", "pisier-constant",
                           "--n-list", "1,10,1000")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["bound"] for row in rows] == [
        "", cx.pisier_constant_bound(10).value, cx.pisier_constant_bound(1000).value]


def test_verify_derivative_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "formula", "--which", "derivative",
                           "--n", "6", "--t", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert all(row["max_discrepancy"] <= 1e-12 for row in payload["rows"])


def test_unknown_inequality_lists_catalog(capsys):
    code, _, err = run_cli(capsys, "ratio", "--ineq", "BOGUS", "--n", "4", "--p", "2")
    assert code == 1
    assert "catalog" in err and "RIESZ_LOWER" in err


def test_out_of_range_parameter_names_range(capsys):
    code, _, err = run_cli(capsys, "ratio", "--ineq", "R_BELOW", "--n", "4",
                           "--p", "2", "--a", "1.5")
    assert code == 1
    assert "(0, 1]" in err


@pytest.mark.parametrize("r", ["0", "-1"])
def test_component_count_below_one_is_refused(capsys, r):
    # unchecked, 0 failed on an (R, 8) shape and -1 on numpy's negative dimensions
    code, out, err = run_cli(capsys, "ratio", "--ineq", "PISIER", "--n", "3", "--p", "3",
                             "--q", "2", "--inner", "lq", "--r-components", r)
    assert code == 1 and out == ""
    assert f"R (the lq component count) must be >= 1, got {r}" in err


@pytest.mark.parametrize("argv", [
    ("ratio", "--ineq", "PISIER", "--n", "3", "--p", "3", "--q", "2"),
    ("sweep", "--ineq", "PISIER", "--n-list", "3", "--p-list", "3", "--q-list", "2,3"),
])
def test_q_on_the_scalar_space_exits_one(capsys, argv):
    # accepted, a scalar row printed q = 2.0 that no norm read
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "the scalar space has no inner norm to read q=2.0" in err


@pytest.mark.parametrize("inner", ["lq", "Lq"])
def test_missing_q_exits_one_before_the_input_is_drawn(capsys, monkeypatch, inner):
    monkeypatch.setattr(inequalities, "random_inputs", lambda *a: pytest.fail("input drawn"))
    code, out, err = run_cli(capsys, "ratio", "--ineq", "PISIER", "--n", "3", "--p", "3",
                             "--inner", inner)
    assert code == 1 and out == ""
    assert f"inner norm {inner} needs an exponent q >= 1, got None" in err


def test_usage_error_exit_one(capsys):
    code, _, _ = run_cli(capsys, "verify", "formula", "--which", "nonsense")
    assert code == 1


def test_byte_identical_reruns(capsys):
    args = ("sweep", "--ineq", "RIESZ_LOWER", "--n-list", "4,6", "--p-list",
            "2,3", "--seed", "11", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_csv_schema(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sweep", "--ineq", "GAMMA_BELOW", "--gamma", "0.25",
                         "--n-list", "4", "--p-list", "2", "--format", "csv",
                         "--out", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header == ("inequality_id,n,p,q,a_or_gamma,t,lhs,rhs,ratio,mode,seed")


def test_sweep_params_carry_canonical_id(capsys):
    # DELTA_FI is an alias: the payload names the entry its rows were computed by
    code, out, _ = run_cli(capsys, "sweep", "--ineq", "DELTA_FI", "--n-list", "3",
                           "--p-list", "3", "--a", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["ineq"] == "R_BELOW_NOD"
    assert {row["inequality_id"] for row in payload["rows"]} == {"R_BELOW_NOD"}


def test_start_up_imports_no_scipy():
    # a fresh interpreter: the package import, the first calls of a CLI run,
    # and a talagrand run whose window leaves weights off the band, so that
    # the sup kernel builds its upper hull
    assert sign_total_window(1024)[-1] < 1024
    script = textwrap.dedent("""
        import contextlib, io, sys
        import cubeineq.cli
        for argv in (["counterexample", "talagrand", "--n-list", "8,16"],
                     ["counterexample", "pisier-constant", "--n-list", "10"],
                     ["counterexample", "talagrand", "--n-list", "1024"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cubeineq.cli.main(argv) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(cubeineq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_quantum_subcommands(capsys):
    for check in ("projection", "rotation", "pisier-integral", "isometry"):
        code, out, _ = run_cli(capsys, "quantum", check, "--n", "3")
        assert code == 0, (check, out)


def test_quantum_epi_without_coordinates_exits_one(capsys):
    code, out, err = run_cli(capsys, "quantum", "epi", "--n", "0")
    assert (code, out) == (1, "")
    assert "error: epi needs a family of n >= 1 functions" in err


def test_talagrand_fit_needs_two_n(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "talagrand", "--n-list", "8")
    assert code == 0
    payload = json.loads(out)
    assert "lhs_fit" not in payload["params"] and len(payload["rows"]) == 1


@pytest.mark.parametrize("argv", [
    ("sweep", "--ineq", "PISIER", "--n-list", ",", "--p-list", "2"),
    ("sweep", "--ineq", "PISIER", "--n-list", "3", "--p-list", " "),
    ("counterexample", "lamberton", "--n-list", ","),
])
def test_empty_number_list_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "needs at least one value" in err


def test_qa_word_defect_once_per_coordinate(capsys):
    qt.qa_word_defect.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "formula", "--which", "qa", "--n", "3",
                         "--count", "5")
    assert code == 0
    info = qt.qa_word_defect.cache_info()
    assert (info.misses, info.hits) == (3, 12)


@pytest.mark.parametrize("n", ["0", "11", "20"])
def test_quantum_projection_checks_qubits_first(capsys, n):
    code, _, err = run_cli(capsys, "quantum", "projection", "--n", n)
    assert code == 1
    assert "qubit count must be in [1, 10]" in err


@pytest.mark.parametrize("which", ["qa", "heat"])
def test_verify_count_below_one_exits_one(capsys, which):
    code, _, err = run_cli(capsys, "verify", "formula", "--which", which, "--count", "0")
    assert code == 1
    assert "--count" in err


def test_tail_integral_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "formula", "--which", "tail-integral",
                           "--t", "0.5", "--r", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["max_discrepancy"] <= 1e-12


def test_talagrand_subcommand_reports_fit(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "talagrand",
                           "--n-list", "64,256,1024", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["lhs_fit"]["slope"] > 0
    assert len(payload["rows"]) == 3


def test_ratio_row_keeps_gamma_zero(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--ineq", "GAMMA_BELOW", "--gamma", "0",
                           "--n", "4", "--p", "2")
    assert code == 0
    assert json.loads(out)["rows"][0]["a_or_gamma"] == 0.0


@pytest.mark.parametrize("ineq, a_or_gamma, t", [
    ("RIESZ_LOWER", "", ""), ("R_BELOW", 0.5, ""), ("PT_DERIV", "", 2.0)])
def test_ratio_row_blanks_parameters_the_entry_does_not_read(capsys, ineq, a_or_gamma, t):
    code, out, _ = run_cli(capsys, "ratio", "--ineq", ineq, "--n", "3", "--p", "3",
                           "--a", "0.5", "--t", "2", "--format", "csv")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert (row["a_or_gamma"], row["t"]) == (str(a_or_gamma), str(t))


@pytest.mark.parametrize("cmd", [("ratio", "--n", "3", "--p", "3"),
                                 ("sweep", "--n-list", "3", "--p-list", "3")])
def test_a_with_gamma_is_refused(capsys, cmd):
    code, out, err = run_cli(capsys, *cmd, "--ineq", "RIESZ_LOWER", "--a", "0.5",
                             "--gamma", "0.3")
    assert code == 1
    assert out == "" and "not allowed" in err


def test_counterexample_non_finite_row_exits_two(capsys, monkeypatch):
    # a row with a nan rhs is written, and the run is a verification failure
    monkeypatch.setattr(cx, "lamberton_ratio",
                        lambda n, s: inequalities.RatioReport(1.0, math.nan, math.nan))
    code, out, err = run_cli(capsys, "counterexample", "lamberton", "--n-list", "64",
                             "--s", "1.5")
    assert code == 2
    assert json.loads(out)["rows"][0]["n"] == 64
    assert "non-finite" in err and "64" in err


def test_counterexample_past_the_verified_range_exits_one(capsys):
    # the point mass's Krawtchouk sum, nan at this size, is refused before it is taken
    code, out, err = run_cli(capsys, "counterexample", "lamberton", "--n-list", "1100",
                             "--s", "1.5")
    assert code == 1
    assert out == "" and "verified up to n=256, got n=1100" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("ratio", "--ineq", "PISIER", "--n", "4", "--p", "2000"),
    ("sweep", "--ineq", "PISIER", "--n-list", "4", "--p-list", "2,2000"),
])
def test_ratio_and_sweep_non_finite_rows_exit_two(capsys, argv):
    # at p = 2000 the norm side is rescaled and finite, but the Rademacher
    # average of 4 signed terms still overflows: rhs = inf
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "non-finite" in err and "[4]" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_quantum_epi_non_finite_row_exits_two(capsys):
    # the same overflow at p = 2000 as ratio and sweep, through the one row check in
    # _emit: the rescaled lhs is finite, the square function of 4 components is not
    code, out, err = run_cli(capsys, "quantum", "epi", "--n", "4", "--p", "2000")
    assert code == 2
    row = json.loads(out)["rows"][0]
    assert math.isfinite(row["lhs"]) and row["rhs"] == math.inf and row["ratio"] == 0.0
    assert "quantum epi: non-finite result at n = [4]" in err


def test_pt_deriv_at_large_t_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--ineq", "PT_DERIV", "--t", "400", "--n", "3",
                           "--p", "2")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["lhs"] > 0 and row["rhs"] > 0 and row["ratio"] > 0


def test_ratio_input_over_budget_exits_one(capsys):
    # 14 * 2^28 coefficients, about 30 GB, is refused before anything is drawn
    code, _, err = run_cli(capsys, "ratio", "--ineq", "R_BELOW", "--inner", "Lq", "--n", "14",
                           "--p", "2", "--q", "2", "--a", "0.5", "--search", "random")
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("search", ["none", "random", "ascent"])
def test_ratio_rows_are_the_one_point_sweep_rows(capsys, search):
    shared = ("--ineq", "DELTA_FI", "--a", "0.5", "--inner", "lq", "--search", search,
              "--trials", "5", "--ascent-steps", "10", "--seed", "4")
    code1, ratio_out, _ = run_cli(capsys, "ratio", "--n", "3", "--p", "3", "--q", "2.5", *shared)
    code2, sweep_out, _ = run_cli(capsys, "sweep", "--n-list", "3", "--p-list", "3",
                                  "--q-list", "2.5", *shared)
    assert code1 == code2 == 0
    ratio, swept = json.loads(ratio_out), json.loads(sweep_out)
    assert ratio["experiment"] == "ratio" and ratio["params"] == swept["params"]
    assert ratio["rows"] == swept["rows"] and len(ratio["rows"]) == 1


@pytest.mark.parametrize("argv", [
    ("--which", "heat", "--n", "3", "--t", "nan"),
    ("--which", "derivative", "--n", "3", "--t", "nan"),
    ("--which", "tail-integral", "--t", "nan"),
    ("--which", "heat", "--n", "3", "--t", "inf"),
])
def test_verify_refuses_a_non_finite_time(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "formula", *argv)
    assert (code, out) == (1, "")
    assert "error:" in err


def test_verify_non_finite_discrepancy_exits_two(capsys, monkeypatch):
    # a nan gap must not be folded away by the running maximum
    gaps = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(cli, "verify_heat_representation", lambda f, t: next(gaps))
    code, out, err = run_cli(capsys, "verify", "formula", "--which", "heat", "--n", "3",
                             "--count", "3")
    assert code == 2
    assert "NaN" in out and "max discrepancy nan" in err


@pytest.mark.parametrize("n, code", [("18", 1), ("17", 0)])
def test_quantum_epi_checks_the_input_budget_first(capsys, n, code):
    # 18 * 2^18 coefficients are over the budget of 2^22; 17 * 2^17 are not
    got, out, err = run_cli(capsys, "quantum", "epi", "--n", n, "--p", "3")
    assert got == code
    if code:
        assert out == ""
        assert "4718592 input coefficients exceed the budget of 4194304" in err
    else:
        assert json.loads(out)["rows"][0]["n"] == 17
