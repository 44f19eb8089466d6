import argparse
import ast
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mazurtate import cache
from mazurtate.cli import CSV_ANALYZE_COLUMNS, CSV_INVARIANTS_COLUMNS, build_parser, load_curve, main
from mazurtate.modsym import as_cusp

from .conftest import record_cusps

ROOT = Path(__file__).resolve().parents[1]


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


def test_analyze_174b1_case_a_exits_0(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--curve", "174b1", "--p", "7", "--n-max", "3", "--mode", "neron",
                           "--format", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "CaseA")


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


@pytest.mark.parametrize("label", ["x,y", 'a"b', "two\nlines", "carriage\rreturn"],
                         ids=["comma", "quote", "newline", "carriage-return"])
def test_csv_quotes_a_label_that_needs_it(capsys, label):
    code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,-1,1,-3,3", "--conductor", "26", "--label", label,
                           "--lratio", "1/7", "--p", "7", "--n-max", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == CSV_ANALYZE_COLUMNS
    assert len(rows) == 3 and all(len(row) == len(CSV_ANALYZE_COLUMNS) for row in rows)
    assert [row[0] for row in rows[1:]] == [label, label]


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


# sha256 of f"{exit code}\n{stdout}" for the text and CSV renderings, which
# bench/references.json (JSON only) does not cover
RENDERED_DIGESTS = {
    "analyze --curve 26b1 --p 7 --n-max 2 --mode neron --format text":
        "6c36b33fe331ef16d396eaea162c18d3a9ec20cfd38d7ab5d612e41dc47e845a",
    "analyze --curve 26b1 --p 7 --n-max 2 --mode neron --format csv":
        "c74fb0246985b579d45ee2719379dd9bfb6494909e698800744745f72e5ff35f",
    "analyze --curve 11a --p 5 --n-max 2 --mode coh --format text":
        "ad42291e15dc1f4c46b7ca97c8f299915637169f7a4dae10a08a017e82f2eb7f",
    "analyze --curve 11a --p 5 --n-max 2 --mode coh --format csv":
        "b45454e9b02652692faf121a2c889b7c1ecfb0876c5a76d0ca7ff292403f9485",
    "analyze --curve 174b1 --p 7 --n-max 2 --mode neron --format text":
        "e67de4110f369ec6cc2cb4b3f6783b47c8cec678ee002c284354a768560fe714",
    "analyze --curve 174b1 --p 7 --n-max 2 --mode neron --format csv":
        "6bf6043a157dd20636c0ef10342303ba125d7f13db37509d8f9e37c64363edfa",
    "invariants --curve 26b1 --p 7 --n-max 2 --mode coh --format text":
        "7f1d06bb56fcab35717ec0045532676c65b93bc47efa1ba02a8ad39f51b2b68a",
    "invariants --curve 26b1 --p 7 --n-max 2 --mode coh --format csv":
        "eec89a42f1ef84a5c6e9cd14148217017d4d9aaa4dd0a754309b6a4ef0d2bd1f",
    "boundary --curve 11a --p 5": "fe3489fe73eb6aab6fe490bca695e87ffffcd87a6dc10472b17c7b23b40c46fa",
    "boundary --curve 174b1 --p 7": "ba08e7d7d96af5ec199bab843d5e99407ddd4225df25c04d6b59e73fc7b1b5ac",
    "eigensymbol --curve 26b1": "60a1fdf66db0b6cb0440c2c0c783c79c20682c1decd97732f405ad1a4d24119c",
    "selftest --seed 1 --cases 2": "72910c2266cd663aadc8f3c14a9c65d6df9e6bffbfde27b9c45f558d216c535c",
}


@pytest.mark.parametrize("argv", list(RENDERED_DIGESTS))
def test_text_and_csv_outputs_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == RENDERED_DIGESTS[argv]


@pytest.mark.parametrize("cases,error", [("0", "input_error"), ("-3", "input_error"),
                                         ("100000000000", "bound_exceeded")])
def test_selftest_refuses_bad_case_counts_before_any_suite(capsys, cases, error):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selftest", "--cases", cases, "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == error
    assert time.perf_counter() - start < 1


def fresh_env() -> dict:
    """The environment of a fresh interpreter: the package on its path and no cache configured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("MT_CACHE_DIR", None)
    env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as a pipe or file makes it
    return env


def run_probe(probe, *argv):
    """stdout of a fresh interpreter running probe with argv, the package on its path and no cache configured."""
    return subprocess.run([sys.executable, "-c", probe, *argv], env=fresh_env(), capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_leaves_the_suites_out():
    probe = "import sys, mazurtate.cli; print('mazurtate.suites' in sys.modules)"
    assert run_probe(probe).strip() == "False"


def test_fixtures_resolve_without_importlib_resources():
    # under -S no site module preloads importlib.resources, so the probe sees what the package loads
    probe = ("import sys, mazurtate.cli as cli\n"
             "fixtures = cli.Path(cli.__file__).parent / 'fixtures'\n"
             "names = sorted(path.stem for path in fixtures.glob('*.json'))\n"
             "assert all(cli._fixture_path(name) == fixtures / f'{name}.json' for name in names)\n"
             "curves = [cli.load_curve(cli.build_parser().parse_args(['eigensymbol', '--curve', name])) for name in names]\n"
             "print('importlib.resources' in sys.modules, names, [curve.conductor for curve in curves])")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=fresh_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False ['11a', '174b1', '26b1', '50b1'] [11, 174, 26, 50]"


@pytest.mark.parametrize("source", [["--curve", "11a"], ["--coeffs", "0,-1,1,-10,-20", "--conductor", "11"]],
                         ids=["curve", "coeffs"])
def test_lratio_option_is_read_alike_for_both_sources(source):
    # the option overrides a fixture's own L-ratio (1/5 for 11a) as it sets one for inline coefficients
    curve = load_curve(build_parser().parse_args(["eigensymbol", *source, "--lratio", "2/5"]))
    assert (curve.lratio, curve.lratio_source) == (Fraction(2, 5), "user-supplied")


# runs the command in argv (none: only the import) with stdout swallowed, then prints its exit code and {modules}
COMMAND_PROBE = ("import contextlib, io, sys, mazurtate.cli\n"
                 "argv = sys.argv[1:]\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = mazurtate.cli.main(argv) if argv else 0\n"
                 "print(code, {modules})")

LATER_STAGES = ("classify", "elements", "groupring", "padics", "boundary", "cusps")


@pytest.mark.parametrize("argv, left_out", [
    ([], LATER_STAGES),
    (["eigensymbol", "--curve", "11a"], LATER_STAGES),
    (["boundary", "--curve", "11a", "--p", "5"], LATER_STAGES[:4]),
    (["invariants", "--curve", "11a", "--p", "5", "--n-max", "1"], ("classify", "boundary", "cusps")),
], ids=["import", "eigensymbol", "boundary", "invariants"])
def test_each_command_loads_only_its_own_stages(argv, left_out):
    code, loaded = run_probe(COMMAND_PROBE.format(modules="sorted(m for m in sys.modules if m.startswith('mazurtate.'))"),
                             *argv).split(" ", 1)
    assert code == "0"
    assert "mazurtate.cli" in loaded
    assert [m for m in left_out if f"'mazurtate.{m}'" in loaded] == []


@pytest.mark.parametrize("argv", [[], ["eigensymbol", "--curve", "11a"]], ids=["import", "eigensymbol"])
def test_a_run_without_a_cache_leaves_hashlib_out(argv):
    bare = run_probe("import sys; print('hashlib' in sys.modules)").strip()
    result = run_probe(COMMAND_PROBE.format(modules="'hashlib' in sys.modules"), *argv).strip()
    assert result == "0 False" or (bare == "True" and result == "0 True")


@pytest.mark.parametrize("argv", [
    [],
    ["eigensymbol", "--curve", "11a"],
    ["boundary", "--curve", "11a", "--p", "5"],
    ["analyze", "--curve", "11a", "--p", "5", "--n-max", "1"],
    ["selftest", "--cases", "1"],
], ids=["import", "eigensymbol", "boundary", "analyze", "selftest"])
def test_records_leave_dataclasses_and_inspect_out(argv):
    probe = "sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules)"
    bare = run_probe(f"import sys; print({probe})").strip()
    result = run_probe(COMMAND_PROBE.format(modules=probe), *argv).strip()
    assert result == "0 []" or (bare != "[]" and result == f"0 {bare}")


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
    # the plus quotient is built on every run, and only eigensymbol reads the full one
    (path,) = tmp_path.iterdir()
    assert path.match("eigsym_N26_*_plus.json")
    warm = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert cold == uncached and warm == uncached


def test_invariants_evaluates_each_cusp_once(monkeypatch, capsys):
    # as in classify: only {inf}-{0} repeats, in the normalization
    cusps = record_cusps(monkeypatch)
    code, out, _ = run_cli(capsys, "invariants", "--curve", "26b1", "--p", "7", "--n-max", "3", "--format", "json")
    assert code == 0 and len(json.loads(out)["per_level"]) == 4
    calls = Counter(cusps)
    assert len({cusp for _, cusp in calls}) == 1 + 3 + 21 + 147 + 1029
    assert {cusp for (_, cusp), k in calls.items() if k > 1} == {as_cusp(0)}


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


def test_conductor_that_does_not_fit_the_model_is_refused_before_any_space(capsys, monkeypatch):
    def no_space(N, plus):
        raise AssertionError(f"built the space at level {N}")

    monkeypatch.setattr(cache, "build_space", no_space)
    # 77 adds a prime the discriminant lacks; 121 has the right prime with the
    # wrong exponent (11a is split multiplicative at 11), which a_ell refuses
    for argv in (["eigensymbol", "--conductor", "77"], ["eigensymbol", "--conductor", "121"],
                 ["analyze", "--conductor", "121", "--p", "5", "--n-max", "1"]):
        code, out, err = run_cli(capsys, *argv, "--coeffs", "0,-1,1,-10,-20", "--format", "json")
        assert (code, out) == (3, ""), argv
        assert json.loads(err)["error"] == "input_error", argv


@pytest.mark.parametrize("conductor", [512, 1024, 2048])
def test_conductor_exponent_past_the_bound_is_refused_at_once(capsys, monkeypatch, conductor):
    # y^2 = x^3 - x (32a2) at 2^9 .. 2^11: no curve has f_2 > 8, and the Hecke
    # sweep at such a level took 140 s at 1024 before a_ell refused it
    def no_space(N, plus):
        raise AssertionError(f"built the space at level {N}")

    monkeypatch.setattr(cache, "build_space", no_space)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eigensymbol", "--coeffs", "0,0,0,-1,0", "--conductor", str(conductor))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "input_error", "message": (
        f"conductor exponent {conductor.bit_length() - 1} at 2 exceeds 8, the most any curve has; bad input model")}


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
    ["analyze", "--curve", "11a", "--p", "5", "--n-max", "6"],
    ["invariants", "--curve", "11a", "--p", "9973", "--n-max", "1"],
    ["analyze", "--curve", "11a", "--p", "1009", "--n-max", "1"],
    ["analyze", "--curve", "11a", "--p", "5", "--n-max", "1", "--lratio", "1e100000"],
])
def test_huge_tower_or_precision_ends_with_coded_error(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 3
    assert json.loads(err)["error"] == "bound_exceeded"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("command", ["analyze", "invariants"])
@pytest.mark.parametrize("source", [["--curve", "11a"], ["--coeffs", "1,0,1,0,-7", "--conductor", "19927"]],
                         ids=["11a", "19927"])
@pytest.mark.parametrize("n_max, error, message", [
    ("-1", "input_error", "levels start at 0"),
    ("40", "bound_exceeded", "p^n_max = 5^40 exceeds the layer-degree bound 10000"),
    ("6", "bound_exceeded", "p^n_max = 5^6 exceeds the layer-degree bound 10000"),
])
def test_n_max_is_refused_before_the_symbol_is_loaded(capsys, monkeypatch, command, source, n_max, error, message):
    # at 19927 the plus quotient and its eigenline take seconds to build
    from mazurtate import classify

    for module in (cache, classify):
        monkeypatch.setattr(module, "load_symbol", lambda *a, **k: pytest.fail("symbol loaded"))
    code, out, err = run_cli(capsys, command, *source, "--p", "5", "--n-max", n_max, "--format", "json")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize("flags", [["--conductor", "37"], ["--label", "foo"], ["--conductor", "11", "--label", "11a"]])
@pytest.mark.parametrize("command", ["analyze", "invariants", "boundary", "eigensymbol"])
def test_curve_refuses_the_inline_only_flags(capsys, monkeypatch, command, flags):
    monkeypatch.setattr(cache, "load_symbol", lambda *a, **k: pytest.fail("symbol loaded"))
    p = [] if command == "eigensymbol" else ["--p", "5"]
    code, out, err = run_cli(capsys, command, "--curve", "11a", *flags, *p, "--format", "json")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "input_error", "message": f"{flags[0]} goes with --coeffs, not --curve"}


def test_invariants_refuses_precision_above_bound_as_analyze_does(capsys):
    # the precision is computed, so --precision is an unknown option to both
    common = ["--curve", "11a", "--p", "5", "--n-max", "1", "--precision", "3000000", "--format", "json"]
    code_a, _, err_a = run_cli(capsys, "analyze", *common)
    code_i, out_i, err_i = run_cli(capsys, "invariants", *common)
    assert code_i == code_a == 3
    assert out_i == ""
    assert json.loads(err_i) == json.loads(err_a) == {
        "error": "input_error", "message": "unrecognized arguments: --precision 3000000"}


@pytest.mark.parametrize("command", ["analyze", "invariants"])
@pytest.mark.parametrize("precision", ["-5", "0"])
def test_precision_below_one_is_an_input_error(capsys, command, precision):
    code, out, err = run_cli(capsys, command, "--curve", "11a", "--p", "5", "--n-max", "1",
                             "--precision", precision, "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "input_error", "message": f"unrecognized arguments: --precision {precision}"}


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--curve", "11a", "--p", "x"], "argument --p: invalid int value: 'x'"),
    (["boundary", "--curve", "11a", "--p", "7", "--bogus"], "unrecognized arguments: --bogus"),
    (["analyze", "--curve", "11a"], "the following arguments are required: --p"),
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
])
def test_usage_errors_are_coded_input_errors(capsys, argv, message):
    # argparse's wording after these prefixes varies between Python versions
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "input_error"
    assert json.loads(err)["message"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert "usage: mazurtate" in capsys.readouterr().out


def test_readme_cli_section_names_the_parser_options():
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {option for sub in subparsers.choices.values() for action in sub._actions
              for option in action.option_strings if option.startswith("--")}
    assert documented - {"--help"} == parsed - {"--help"}


def test_readme_cache_names_match_the_cache():
    bullet = (ROOT / "README.md").read_text().split("* `--cache DIR`", 1)[1].split("\n* ", 1)[0]
    names = {name.replace("<N>", "11").replace("<sha256>", "0123456789abcdef" * 4)
             for name in re.findall(r"`([\w<>]+\.json)`", bullet)}
    assert len(names) == 1
    assert all(cache.CACHE_FILE_NAME.fullmatch(name) for name in names), names


def test_readme_library_example_prints_the_analyze_payload(capsys, monkeypatch):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    section = (ROOT / "README.md").read_text().split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    verdict, payload = capsys.readouterr().out.splitlines()
    assert verdict == "CaseB"
    _, out, _ = run_cli(capsys, "analyze", "--curve", "26b1", "--p", "7", "--n-max", "2", "--mode", "neron",
                        "--format", "json")
    assert json.loads(payload) == json.loads(out)


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


@pytest.mark.parametrize("command", ["analyze", "invariants"])
@pytest.mark.parametrize("source", ["flag", "coeffs", "file"])
@pytest.mark.parametrize("lratio", ["1e100000", "3E-4301", "1e0_9999", "2.5e+" + "9" * 5000])
def test_lratio_exponent_above_the_bound_is_refused_before_parsing(tmp_path, capsys, command, source, lratio):
    if source == "flag":
        curve = ["--curve", "11a", "--lratio", lratio]
    elif source == "coeffs":
        curve = ["--coeffs", "0,-1,1,-10,-20", "--conductor", "11", "--lratio", lratio]
    else:
        curve = ["--curve", write_curve(tmp_path, {**RECORD_11A, "lratio": lratio})]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, *curve, "--p", "5", "--n-max", "1", "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "bound_exceeded",
                               "message": "the exponent of the L-ratio exceeds the bound 4300 in magnitude"}
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("lratio", ["1e4300", "1e-4300", "3e0004300", "1/5"])
def test_lratio_exponent_at_the_bound_is_accepted(capsys, lratio):
    code, _, _ = run_cli(capsys, "invariants", "--curve", "11a", "--lratio", lratio, "--p", "5", "--n-max", "1",
                         "--format", "json")
    assert code == 0


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


@pytest.mark.parametrize("key", ["label", "lratio_source"])
@pytest.mark.parametrize("value", [["x", 1], 11], ids=["list", "int"])
def test_a_curve_record_text_field_that_is_not_a_string_is_an_input_error(tmp_path, capsys, key, value):
    path = write_curve(tmp_path, {**RECORD_11A, key: value})
    code, out, err = run_cli(capsys, "boundary", "--curve", path, "--p", "5", "--format", "json")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "input_error",
                               "message": f"malformed curve record: {key} must be a string, got {value!r}"}


@pytest.mark.parametrize("argv", [
    ["boundary", "--curve", "11a", "--p", "5"],
    ["eigensymbol", "--curve", "11a"],
    ["selftest", "--cases", "1"],
])
def test_csv_is_refused_where_no_csv_exists(capsys, monkeypatch, argv):
    # refused before any computation: neither the eigensymbol nor the suites are reached
    from mazurtate import cache, suites

    monkeypatch.setattr(cache, "load_symbol", lambda *a, **k: pytest.fail("symbol loaded"))
    monkeypatch.setattr(suites, "run_all_suites", lambda *a, **k: pytest.fail("suites run"))
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "input_error",
                               "message": f"--format csv is not available for {argv[0]}"}


def test_output_naming_a_directory_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "invariants", "--curve", "11a", "--p", "5", "--n-max", "1",
                             "--output", str(tmp_path))
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "input_error"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["eigensymbol", "--coeffs", "0,0,1,-7,6", "--conductor", "5077"],
    ["selftest", "--cases", "1"],
])
@pytest.mark.parametrize("target, reason", [
    ("", "Is a directory"),
    ("missing/report", "No such file or directory"),
    ("file/report", "Not a directory"),
])
def test_an_unwritable_output_is_refused_before_any_computation(tmp_path, capsys, monkeypatch, argv, target, reason):
    # neither the eigensymbol nor the suites are reached, and the message is
    # the one writing the report would give
    from mazurtate import suites

    monkeypatch.setattr(cache, "load_symbol", lambda *a, **k: pytest.fail("symbol loaded"))
    monkeypatch.setattr(suites, "run_all_suites", lambda *a, **k: pytest.fail("suites run"))
    (tmp_path / "file").write_text("")
    output = str(tmp_path / target) if target else str(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--output", output)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "input_error", "message": f"cannot write --output {output}: {reason}"}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("argv, message", [
    (["--coeffs", "0,-1,1,-10"], "--coeffs expects a1,a2,a3,a4,a6: not enough values to unpack (expected 5, got 4)"),
    (["--coeffs", "0,-1,x,-10,-20"], "--coeffs expects a1,a2,a3,a4,a6: invalid literal for int() with base 10: 'x'"),
    (["--coeffs", "0,-1,1,-10,-20"], "--coeffs requires --conductor"),
    ([], "provide --curve PATH or --coeffs a1,a2,a3,a4,a6 --conductor N"),
    (["--coeffs", "0,-1,1,-10,-20", "--conductor", "0"], "conductor must be positive"),
    (["--coeffs", "0,-1,1,-10,-20", "--conductor=-11"], "conductor must be positive"),
])
def test_a_bad_curve_source_is_an_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "eigensymbol", *argv)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "input_error", "message": message}


@pytest.mark.parametrize("under_file", [False, True])
def test_selftest_refuses_a_cache_path_naming_a_file_before_any_suite(tmp_path, capsys, monkeypatch, under_file):
    from mazurtate import suites

    monkeypatch.setattr(suites, "run_all_suites", lambda *a, **k: pytest.fail("suites run"))
    regular = tmp_path / "cache"
    regular.write_text("")
    not_a_dir = regular / "sub" if under_file else regular
    code, out, err = run_cli(capsys, "selftest", "--cases", "1", "--cache", str(not_a_dir), "--format", "json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "input_error"
    assert "cannot use cache directory" in json.loads(err)["message"]
    assert regular.read_text() == ""


def run_module(*argv):
    """(exit code, stdout, stderr) of `python -m mazurtate.cli argv` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "mazurtate.cli", *argv], env=fresh_env(), capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, expected_code", [
    (["analyze", "--curve", "11a", "--p", "5", "--n-max", "2", "--format", "json"], 0),
    (["invariants", "--curve", "11a", "--p", "5", "--n-max", "2", "--format", "json"], 0),
    (["boundary", "--curve", "11a", "--p", "5", "--format", "json"], 0),
    (["eigensymbol", "--curve", "11a", "--format", "json"], 0),
    (["analyze", "--curve", "50b1", "--p", "5", "--n-max", "1", "--format", "json"], 3),
    (["--bogus"], 3),
    (["--help"], 0),
], ids=["analyze", "invariants", "boundary", "eigensymbol", "coded-error", "usage-error", "help"])
def test_a_process_ends_as_main_returns(capsys, monkeypatch, argv, expected_code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out = capsys.readouterr()
    assert code == expected_code
    if code == 3:
        assert out.err.count("\n") == 1 and json.loads(out.err)["error"]
    assert run_module(*argv) == (code, out.out, out.err)


def test_a_process_writes_the_full_report_to_output(tmp_path, capsys):
    # about 10 KiB of report, more than one write buffer
    argv = ["eigensymbol", "--coeffs", "1,1,0,-1154,-15345", "--conductor", "681", "--format", "json"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert run_module(*argv, "--output", str(target)) == (0, "", "")
    assert target.read_text() == report


def test_a_process_reads_back_the_cache_the_last_one_wrote(tmp_path):
    argv = ["eigensymbol", "--curve", "11a", "--format", "json", "--cache", str(tmp_path)]

    def files():
        return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns) for path in tmp_path.iterdir()}

    cold = run_module(*argv)
    written = files()
    assert cold[0] == 0 and len(written) == 1  # the eigensymbol alone
    # an entry that does not read back is a miss, rebuilt and written anew
    assert run_module(*argv) == cold
    assert files() == written


@pytest.mark.parametrize("unbuffered", [True, False], ids=["write-in-emit", "final-flush"])
def test_a_closed_stdout_exits_1_without_traceback(unbuffered):
    # unbuffered, emit's print meets the closed pipe; buffered, the flush at the end does
    env = fresh_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # closed before the process starts, so its first write fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "mazurtate.cli", "invariants", "--curve", "11a", "--p", "5",
                               "--n-max", "1", "--format", "json"], env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_profiler_still_prints_its_report():
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "mazurtate.cli", "invariants", "--curve", "11a",
                           "--p", "5", "--n-max", "1", "--format", "json"], env=fresh_env(), capture_output=True,
                          text=True)
    assert "function calls" in proc.stdout


def test_the_script_entry_is_what_the_module_runs():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^mazurtate = "mazurtate\.cli:(\w+)"$', scripts, re.M)
    tree = ast.parse((ROOT / "src" / "mazurtate" / "cli.py").read_text())
    (guard,) = [node for node in tree.body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node.func) for node in ast.walk(guard) if isinstance(node, ast.Call)] == [target]
