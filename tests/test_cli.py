import json
import time

import pytest

from mazurtate.cli import CSV_ANALYZE_COLUMNS, CSV_INVARIANTS_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_26b1_case_b(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--curve", "26b1", "--p", "7", "--n-max", "2", "--mode", "neron", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "CaseB"
    assert [r["mu"] for r in report["per_level"]] == [-1, -1, -1]
    assert [r["lambda"] for r in report["per_level"]] == [0, 6, 48]


def test_analyze_11a_lambda_column(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--curve", "11a", "--p", "5", "--n-max", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [r["lambda"] for r in report["per_level"]] == [0, 4, 24, 124]


def test_analyze_cohomological_mode_inconclusive_exit_2(capsys):
    # without the Neron-side L-ratio the case-B pattern cannot be certified
    code, out, _ = run_cli(capsys, "analyze", "--curve", "26b1", "--p", "7", "--n-max", "2", "--mode", "coh", "--format", "json")
    assert code == 2
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_analyze_bad_prime_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "--curve", "50b1", "--p", "5", "--n-max", "1")
    assert code == 3
    assert "not_good_ordinary" in err


def test_invariants_50b1_additive(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve", "50b1", "--p", "5", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["lambda"] for r in payload["per_level"]] == [0, 4, 24]


def test_invariants_mode_shift(capsys):
    _, out_coh, _ = run_cli(capsys, "invariants", "--curve", "26b1", "--p", "7", "--n-max", "1", "--mode", "coh", "--format", "json")
    _, out_ner, _ = run_cli(capsys, "invariants", "--curve", "26b1", "--p", "7", "--n-max", "1", "--mode", "neron", "--format", "json")
    coh, ner = json.loads(out_coh), json.loads(out_ner)
    assert [r["lambda"] for r in coh["per_level"]] == [r["lambda"] for r in ner["per_level"]]
    assert all(rn["mu"] == rc["mu"] + ner["normalization_shift"] for rn, rc in zip(ner["per_level"], coh["per_level"]))


def test_invariants_zero_level_only(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve", "11a", "--p", "5", "--n-max", "0", "--mode", "coh", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["per_level"]) == 1
    assert payload["per_level"][0]["lambda"] == 0


def test_boundary_witness_and_refutation(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--curve", "26b1", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] and "witness" in payload
    assert set(payload["cusp_classes"]) == {"1/1", "1/2", "1/13", "1/26"}
    code, out, _ = run_cli(capsys, "boundary", "--curve", "174b1", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["solvable"] and "refutation" in payload


def test_eigensymbol_dump(capsys):
    code, out, _ = run_cli(capsys, "eigensymbol", "--curve", "11a", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert all(isinstance(c, str) for c in payload["coords"])


def test_csv_column_order(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--curve", "26b1", "--p", "7", "--n-max", "1", "--format", "csv")
    header = out.splitlines()[0]
    assert header == ",".join(CSV_ANALYZE_COLUMNS)
    _, out, _ = run_cli(capsys, "invariants", "--curve", "26b1", "--p", "7", "--n-max", "1", "--format", "csv")
    assert out.splitlines()[0] == ",".join(CSV_INVARIANTS_COLUMNS)


def test_json_outputs_are_deterministic(capsys):
    a = run_cli(capsys, "analyze", "--curve", "11a", "--p", "5", "--n-max", "2", "--format", "json")
    b = run_cli(capsys, "analyze", "--curve", "11a", "--p", "5", "--n-max", "2", "--format", "json")
    assert a == b


def test_json_outputs_have_no_floats(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--curve", "174b1", "--p", "7", "--n-max", "2", "--format", "json")
    assert json.loads(out, parse_float=pytest.fail) is not None


def test_inline_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--coeffs", "0,-1,1,-10,-20", "--conductor", "11",
        "--lratio", "1/5", "--label", "inline11a", "--p", "5", "--n-max", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["per_level"][1]["lambda"] == 4


def test_mutually_exclusive_inputs(capsys):
    code, _, err = run_cli(capsys, "invariants", "--curve", "11a", "--coeffs", "0,-1,1,-10,-20",
                           "--conductor", "11", "--p", "5")
    assert code == 3
    assert "input_error" in err


def test_missing_curve_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--curve", "nope-not-here", "--p", "5")
    assert code == 3


def test_even_p_rejected(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--curve", "11a", "--p", "4")
    assert code == 3


def test_selftest_small_deterministic(capsys):
    a = run_cli(capsys, "selftest", "--seed", "3", "--cases", "20", "--format", "json")
    b = run_cli(capsys, "selftest", "--seed", "3", "--cases", "20", "--format", "json")
    assert a == b
    assert a[0] == 0
    payload = json.loads(a[1])
    assert payload["passed"]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["invariants", "--curve", "11a", "--p", "5", "--n-max", "1",
                 "--format", "json", "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["per_level"][1]["lambda"] == 4


def test_analyze_goes_through_the_cache(tmp_path, capsys):
    argv = ["analyze", "--curve", "26b1", "--p", "7", "--n-max", "2", "--format", "json"]
    uncached = run_cli(capsys, *argv)
    cold = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert (tmp_path / "space_N26.json").is_file()
    assert len(list(tmp_path.glob("eigsym_N26_*_plus.json"))) == 1
    warm = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert cold == uncached and warm == uncached


def test_invariants_rows_match_analyze(capsys):
    common = ["--curve", "26b1", "--p", "7", "--n-max", "3", "--format", "json"]
    _, out_a, _ = run_cli(capsys, "analyze", *common)
    _, out_i, _ = run_cli(capsys, "invariants", *common)
    assert json.loads(out_i)["per_level"] == json.loads(out_a)["per_level"]


def test_huge_conductor_ends_with_coded_error(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "eigensymbol", "--coeffs", "0,-1,1,-10,-20",
                           "--conductor", "11000000000000000000033")
    assert code == 3
    assert json.loads(err)["error"] == "level_too_large"
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("command", ["analyze", "boundary"])
def test_huge_prime_p_ends_with_coded_error(capsys, command):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, command, "--curve", "11a", "--p", "2305843009213693951")
    assert code == 3
    assert json.loads(err)["error"] == "bound_exceeded"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--curve", "11a", "--p", "3", "--n-max", "40"],
    ["invariants", "--curve", "11a", "--p", "3", "--n-max", "40"],
    ["analyze", "--curve", "11a", "--p", "5", "--n-max", "1", "--precision", "3000000"],
])
def test_huge_tower_or_precision_ends_with_coded_error(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 3
    assert json.loads(err)["error"] == "bound_exceeded"
    assert time.perf_counter() - start < 2


def test_invariants_refuses_precision_above_bound_as_analyze_does(capsys):
    common = ["--curve", "11a", "--p", "5", "--n-max", "1", "--precision", "3000000", "--format", "json"]
    code_a, _, err_a = run_cli(capsys, "analyze", *common)
    code_i, out_i, err_i = run_cli(capsys, "invariants", *common)
    assert code_i == code_a == 3
    assert out_i == ""
    assert json.loads(err_i) == json.loads(err_a)
    assert json.loads(err_i)["error"] == "bound_exceeded"


@pytest.mark.parametrize("command", ["analyze", "invariants"])
@pytest.mark.parametrize("precision", ["-5", "0"])
def test_precision_below_one_is_an_input_error(capsys, command, precision):
    code, out, err = run_cli(capsys, command, "--curve", "11a", "--p", "5", "--n-max", "1",
                             "--precision", precision, "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "input_error", "message": f"precision must be at least 1, got {precision}"}
