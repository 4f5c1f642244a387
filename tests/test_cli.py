import json

import pytest

from cubeineq.cli import main


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


def test_quantum_subcommands(capsys):
    for check in ("projection", "rotation", "pisier-integral", "isometry"):
        code, out, _ = run_cli(capsys, "quantum", check, "--n", "3")
        assert code == 0, (check, out)


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_counterexample_non_finite_row_exits_two(capsys):
    # the Krawtchouk-table rhs of the point mass is nan at this size
    code, _, err = run_cli(capsys, "counterexample", "lamberton", "--n-list", "1100",
                           "--s", "1.5")
    assert code == 2
    assert "non-finite" in err and "1100" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("ratio", "--ineq", "PISIER", "--n", "4", "--p", "2000"),
    ("sweep", "--ineq", "PISIER", "--n-list", "4", "--p-list", "2,2000"),
])
def test_ratio_and_sweep_non_finite_rows_exit_two(capsys, argv):
    # |f|^p overflows at p = 2000: lhs = rhs = inf and the ratio is nan
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "non-finite" in err and "[4]" in err


def test_ratio_input_over_budget_exits_one(capsys):
    # 14 * 2^28 coefficients, about 30 GB, is refused before anything is drawn
    code, _, err = run_cli(capsys, "ratio", "--ineq", "R_BELOW", "--inner", "Lq", "--n", "14",
                           "--p", "2", "--q", "2", "--a", "0.5", "--search", "random")
    assert code == 1
    assert "budget" in err
