import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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


# sha256 of the stdout recorded before from_t_coefficients became the sign-alternated
# Taylor shift; the suites must draw and judge the same elements
SELFTEST_SEED3_CASES20_DIGEST = "f0157cfb605c8b75a89a3a92ba35856da3ac4a017d7bc851846211e62aa4b65e"


def test_selftest_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "3", "--cases", "20", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SEED3_CASES20_DIGEST


@pytest.mark.parametrize("cases,error", [("0", "input_error"), ("-3", "input_error"),
                                         ("100000000000", "bound_exceeded")])
def test_selftest_refuses_bad_case_counts_before_any_suite(capsys, cases, error):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selftest", "--cases", cases, "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == error
    assert time.perf_counter() - start < 1


def test_cli_import_leaves_the_suites_out():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, mazurtate.cli; print(sorted(m for m in ('mazurtate.suites', 'mazurtate.synthetic') if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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


def write_curve(tmp_path, record):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(record))
    return str(path)


RECORD_11A = {"a1": 0, "a2": -1, "a3": 1, "a4": -10, "a6": -20, "conductor": 11}


@pytest.mark.parametrize("source", ["flag", "coeffs", "file"])
@pytest.mark.parametrize("lratio", ["1/0", "one fifth"])
def test_malformed_lratio_is_an_input_error(tmp_path, capsys, source, lratio):
    if source == "flag":
        curve = ["--curve", "11a", "--lratio", lratio]
    elif source == "coeffs":
        curve = ["--coeffs", "0,-1,1,-10,-20", "--conductor", "11", "--lratio", lratio]
    else:
        curve = ["--curve", write_curve(tmp_path, {**RECORD_11A, "lratio": lratio})]
    code, out, err = run_cli(capsys, "invariants", *curve, "--p", "5", "--n-max", "1", "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "input_error"
    assert "malformed L-ratio" in json.loads(err)["message"]


@pytest.mark.parametrize("record", [[1, 2, 3], "11a", 11, None])
def test_curve_file_that_is_not_an_object_is_an_input_error(tmp_path, capsys, record):
    code, _, err = run_cli(capsys, "analyze", "--curve", write_curve(tmp_path, record), "--p", "5")
    assert code == 3
    assert json.loads(err)["error"] == "input_error"


@pytest.mark.parametrize("command", ["analyze", "invariants"])
@pytest.mark.parametrize("mode", ["neron", "auto"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_zero_lratio_is_rank_positive_in_neron_mode(tmp_path, capsys, command, mode, source):
    if source == "flag":
        curve = ["--curve", "11a", "--lratio", "0"]
    else:
        curve = ["--curve", write_curve(tmp_path, {**RECORD_11A, "lratio": "0"})]
    code, out, err = run_cli(capsys, command, *curve, "--p", "5", "--n-max", "1", "--mode", mode, "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "rank_positive"


def test_zero_lratio_in_cohomological_mode_still_runs(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve", "11a", "--lratio", "0", "--p", "5", "--n-max", "1",
                           "--mode", "coh", "--format", "json")
    assert code == 0
    assert [r["lambda"] for r in json.loads(out)["per_level"]] == [0, 4]


@pytest.mark.parametrize("key, value", [("a2", -1.4), ("conductor", 11.9), ("conductor", 11.0), ("a1", False)])
def test_non_integer_curve_fields_are_input_errors(tmp_path, capsys, key, value):
    path = write_curve(tmp_path, {**RECORD_11A, key: value})
    code, _, err = run_cli(capsys, "invariants", "--curve", path, "--p", "5", "--n-max", "1")
    assert code == 3
    assert json.loads(err)["error"] == "input_error"
    assert key in json.loads(err)["message"]
