"""Command-line front end.

Commands: analyze (dichotomy classification), invariants (per-level mu/lambda
table), boundary (congruence with a boundary symbol), eigensymbol (dump the
cached plus-eigensymbol), selftest (randomized property battery).

Exit codes: 0 success, 1 a computation that cannot go on (an eigenspace that
is not a line, inconsistent eigenvalues), a failed selftest or a closed
stdout, 2 inconclusive verdict, 3 input error (a usage error too).  All exact
numbers in reports are integers or decimal strings; no floating point appears
anywhere.

A process run (`python -m mazurtate.cli`, the `mazurtate` script) ends as
soon as its report is flushed, without the interpreter's teardown; a closed
stdout ends it with exit code 1.  main(argv) is the in-process entry: it
returns the exit code and never ends the process.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cache
from .curves import ELL_BOUND, EllipticCurve, parse_lratio
from .errors import BoundExceeded, InputError, MazurTateError
from .modsym import check_level, quotient_basis
from .primes import is_prime

CSV_ANALYZE_COLUMNS = [
    "label", "p", "mode", "n", "mu_coh", "mu", "lambda",
    "is_maximal", "integral", "stab_mu", "stab_lambda", "verdict",
]
CSV_INVARIANTS_COLUMNS = ["label", "p", "mode", "n", "mu_coh", "mu", "lambda"]
DEFAULT_SELFTEST_CASES = 500
MAX_SELFTEST_CASES = 20 * DEFAULT_SELFTEST_CASES


def _fixture_path(name: str) -> Path | None:
    candidate = Path(__file__).parent / "fixtures" / f"{name}.json"
    return candidate if candidate.is_file() else None


def load_curve(args) -> EllipticCurve:
    if args.curve and args.coeffs:
        raise InputError("--curve and --coeffs are mutually exclusive")
    if args.curve:
        for flag in ("conductor", "label"):
            if getattr(args, flag) is not None:
                raise InputError(f"--{flag} goes with --coeffs, not --curve")
        path = Path(args.curve)
        if not path.is_file():
            fixture = _fixture_path(args.curve)
            if fixture is None:
                raise InputError(f"no such curve file or fixture: {args.curve}")
            path = fixture
        curve = EllipticCurve.from_json_file(path)
    elif args.coeffs:
        try:
            a1, a2, a3, a4, a6 = (int(x) for x in args.coeffs.split(","))
        except ValueError as exc:
            raise InputError(f"--coeffs expects a1,a2,a3,a4,a6: {exc}") from exc
        if args.conductor is None:
            raise InputError("--coeffs requires --conductor")
        # every curve command works at level N = conductor: a level past the
        # bound is refused before the model is checked against it
        check_level(args.conductor)
        curve = EllipticCurve(a1, a2, a3, a4, a6, conductor=args.conductor, label=args.label)
    else:
        raise InputError("provide --curve PATH or --coeffs a1,a2,a3,a4,a6 --conductor N")
    if args.lratio:
        curve.lratio = parse_lratio(args.lratio)
        curve.lratio_source = "user-supplied"
    return curve


def resolve_mode(args, curve) -> str:
    mode = args.mode
    if mode == "auto":
        return "neron" if curve.lratio is not None else "cohomological"
    return {"coh": "cohomological", "neron": "neron"}[mode]


def _check_p(p: int):
    if p > ELL_BOUND:  # before is_prime, which trial-divides up to sqrt(p)
        raise BoundExceeded(f"--p {p} exceeds the point-counting bound {ELL_BOUND}")
    if p == 2 or not is_prime(p):
        raise InputError(f"--p must be an odd prime, got {p}")


def emit(args, text: str):
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    else:
        print(text)


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def render_csv(columns, payload: dict) -> str:
    """One row per entry of payload["per_level"]; stab_mu and stab_lambda are blank where no stabilized row is.

    csv.writer quotes a field holding a comma, a quote, "\r" or "\n" and
    writes every other field as is.  Each row is written alone, ended by
    "\r\n" so that every Python quotes "\r" (before 3.13 only the terminator's
    characters are), and the rows are joined by "\n".
    """
    import csv
    import io

    def line(fields) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(fields)
        return out.getvalue()[:-2]

    stab = {r["n"]: r for r in payload.get("stabilized", ())}
    lines = [line(columns)]
    for r in payload["per_level"]:
        s = stab.get(r["n"], {})
        row = {**r, "label": payload["label"] or "", "p": payload["p"], "mode": payload["mode"],
               "stab_mu": s.get("mu", ""), "stab_lambda": s.get("lambda", ""), "verdict": payload.get("verdict")}
        lines.append(line(row[c] for c in columns))
    return "\n".join(lines)


def text_analyze(d: dict) -> str:
    lines = [f"curve {d['label'] or '(unnamed)'}  p={d['p']}  mode={d['mode']}  verdict={d['verdict']}"]
    lines.append(f"{'n':>3} {'mu_coh':>7} {'mu':>5} {'lambda':>7} {'maximal':>8} {'integral':>9} {'stab(mu,lam)':>14}")
    stab = {r["n"]: r for r in d["stabilized"]}
    for r in d["per_level"]:
        s = stab.get(r["n"])
        stxt = f"({s['mu']},{s['lambda']})" if s else "-"
        lines.append(
            f"{r['n']:>3} {r['mu_coh']:>7} {r['mu']:>5} {r['lambda']:>7} "
            f"{str(r['is_maximal']):>8} {str(r['integral']):>9} {stxt:>14}"
        )
    lines.append(f"norm relation verified: {d['norm_relation_verified']}; "
                 f"theta0 identity: {d['theta0_identity_verified']}")
    b = d["boundary"]
    state = "solvable" if b["solvable"] else "unsolvable"
    lines.append(f"boundary congruence mod {b['p']}: {state} on classes {b['cusp_classes']}")
    if "witness" in b:
        lines.append(f"  witness psi (gauge psi(inf)=0): {b['witness']}")
    if "refutation" in b:
        lines.append(f"  refutation combination (generator, coeff): {b['refutation']['combination']}")
    for diag in d["diagnostics"]:
        lines.append(f"note: {diag}")
    if d["commentary"]:
        lines.append(d["commentary"])
    return "\n".join(lines)


def text_invariants(d: dict) -> str:
    lines = [f"curve {d['label'] or '(unnamed)'}  p={d['p']}  mode={d['mode']}"]
    lines.append(f"{'n':>3} {'mu_coh':>7} {'mu':>5} {'lambda':>7}")
    for r in d["per_level"]:
        lines.append(f"{r['n']:>3} {r['mu_coh']:>7} {r['mu']:>5} {r['lambda']:>7}")
    return "\n".join(lines)


def text_boundary(d: dict) -> str:
    lines = [f"curve {d['label'] or '(unnamed)'}  p={d['p']}  "
             f"{'congruent to a boundary symbol' if d['solvable'] else 'NOT congruent to any boundary symbol'}"]
    lines.append(f"cusp classes: {d['cusp_classes']} (boundary rank {d['boundary_rank']})")
    if "witness" in d:
        lines.append(f"witness psi (gauge psi(inf)=0): {d['witness']}")
    else:
        lines.append(f"refutation: sum of rows {d['refutation']['combination']} "
                     f"gives 0 = {d['refutation']['inconsistent_value']} mod {d['p']}")
    return "\n".join(lines)


def text_eigensymbol(d: dict) -> str:
    return "\n".join(f"{k}: {v}" for k, v in d.items())


def text_selftest(d: dict) -> str:
    lines = [f"self-test (seed {d['seed']})"]
    for r in d["suites"]:
        lines.append(f"  {'FAIL' if r['violations'] else 'PASS'}  {r['name']}: {r['cases']} cases, "
                     f"{r['violations']} violations")
    if "cache" in d:
        lines.append(f"  cache: {d['cache']['clean']} clean, {d['cache']['corrupted']} corrupted (rebuilt)")
    lines.append("all suites passed" if d["passed"] else "FAILURES PRESENT")
    return "\n".join(lines)


def cmd_analyze(args, curve):
    from .classify import classify

    report = classify(curve, args.p, args.n_max, resolve_mode(args, curve), args.cache)
    return report, 0 if report["verdict"] in ("CaseA", "CaseB") else 2


def cmd_invariants(args, curve):
    from .elements import MazurTateTower, check_levels, level_rows, normalization_shift

    mode = resolve_mode(args, curve)
    check_levels(args.p, args.n_max)
    sym, scalar = cache.load_symbol(curve, mode, args.cache)
    shift = normalization_shift(scalar, args.p)
    return {"label": curve.label, "p": args.p, "mode": mode, "normalization_shift": shift,
            "per_level": level_rows(MazurTateTower(sym, args.p, args.n_max), shift)}, 0


def cmd_boundary(args, curve):
    from .boundary import boundary_congruence

    sym, _ = cache.load_symbol(curve, "cohomological", args.cache)
    return {"label": curve.label, **boundary_congruence(sym, args.p)}, 0


def cmd_eigensymbol(args, curve):
    sym, _ = cache.load_symbol(curve, "cohomological", args.cache)
    # coordinates over the full quotient's basis: each basis generator's
    # expression is its own unit vector, so coordinate t is the value on basis[t]
    basis = quotient_basis(curve.conductor)
    values = sym.generator_values()
    return {
        "label": curve.label,
        "level": sym.space.N,
        "dimension": len(basis),
        "sign": "+",
        "coords": [str(values[b]) for b in basis],
        "generator_values": [str(v) for v in values],
        "value_at_infinity_minus_zero": str(sym.value_infinity_minus(0)),
    }, 0


def cmd_selftest(args):
    if args.cases < 1:
        raise InputError(f"--cases must be at least 1, got {args.cases}")
    if args.cases > MAX_SELFTEST_CASES:
        raise BoundExceeded(f"--cases {args.cases} exceeds the bound {MAX_SELFTEST_CASES}")
    cache_dir = cache.resolve_cache_dir(args.cache) if args.cache else None  # refuses a non-directory up front
    from .suites import run_all_suites  # only selftest pays for the suites' import

    results = run_all_suites(cases_per_pair=args.cases, seed=args.seed)
    payload = {
        "seed": args.seed,
        "suites": [{"name": r.name, "cases": r.cases, "violations": r.violations} for r in results],
        "passed": all(r.passed for r in results),
    }
    if cache_dir:
        payload["cache"] = cache.verify_cache_dir(cache_dir)
    return payload, 0 if payload["passed"] else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error (exit 3), not argparse's exit 2
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mazurtate", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    curve_parent = argparse.ArgumentParser(add_help=False)
    curve_parent.add_argument("--curve", help="curve JSON file, or the name of a shipped fixture")
    curve_parent.add_argument("--coeffs", help="inline a1,a2,a3,a4,a6")
    curve_parent.add_argument("--conductor", type=int, help="conductor (with --coeffs)")
    curve_parent.add_argument("--lratio", help="L(E,1)/Omega_E as num/den")
    curve_parent.add_argument("--label", help="curve label (with --coeffs)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"], default="text")
    common.add_argument("--cache", type=Path, default=None,
                        help=f"cache directory (falls back to ${cache.ENV_CACHE_DIR})")
    common.add_argument("--output", help="write the report here instead of stdout")
    common.set_defaults(columns=None)  # a command with a CSV form names its columns

    padic = argparse.ArgumentParser(add_help=False)
    padic.add_argument("--p", type=int, required=True, help="odd prime")
    padic.add_argument("--n-max", type=int, default=2, dest="n_max")
    padic.add_argument("--mode", choices=["coh", "neron", "auto"], default="auto")

    sp = sub.add_parser("analyze", parents=[curve_parent, padic, common],
                        help="classify the Iwasawa-invariant dichotomy")
    sp.set_defaults(func=cmd_analyze, text=text_analyze, columns=CSV_ANALYZE_COLUMNS)
    sp = sub.add_parser("invariants", parents=[curve_parent, padic, common],
                        help="per-level (n, mu, lambda) table, no classification")
    sp.set_defaults(func=cmd_invariants, text=text_invariants, columns=CSV_INVARIANTS_COLUMNS)
    sp = sub.add_parser("boundary", parents=[curve_parent, common],
                        help="test the mod-p congruence with a boundary symbol")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_boundary, text=text_boundary)
    sp = sub.add_parser("eigensymbol", parents=[curve_parent, common],
                        help="dump the (cached) plus-eigensymbol")
    sp.set_defaults(func=cmd_eigensymbol, text=text_eigensymbol)
    sp = sub.add_parser("selftest", parents=[common],
                        help="run the randomized property battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=DEFAULT_SELFTEST_CASES,
                    help=f"N, 1 to {MAX_SELFTEST_CASES}: cases per (p, n) pair of the corestriction and "
                         "projection suites; the others run max(100, N//5) per pair (linearity), "
                         "max(500, N) in all (sum cancellation, generator independence) and the "
                         "synthetic towers 125 for each of p = 3, 5")
    sp.set_defaults(func=cmd_selftest, text=text_selftest)
    return parser


def main(argv=None) -> int:
    """Parse, load and check the curve once (the four curve commands), run the command, render its payload."""
    try:
        args = build_parser().parse_args(argv)
        if args.format == "csv" and args.columns is None:
            raise InputError(f"--format csv is not available for {args.command}")
        if args.output and (Path(args.output).is_dir() or not Path(args.output).parent.is_dir()):
            emit(args, "")  # fails as writing the report would, before anything is computed
        if "coeffs" in args:  # a curve command
            curve = load_curve(args)
            if "p" in args:
                _check_p(args.p)
            payload, code = args.func(args, curve)
        else:
            payload, code = args.func(args)
        if args.format == "json":
            emit(args, render_json(payload))
        elif args.format == "csv":
            emit(args, render_csv(args.columns, payload))
        else:
            emit(args, args.text(payload))
        return code
    except MazurTateError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(json.dumps({"error": "input_error", "message": str(exc)}), file=sys.stderr)
        return 3


def run():
    """The process entry of `python -m mazurtate.cli` and the `mazurtate` script.

    Runs main(), flushes stdout and stderr, and ends the process with
    os._exit, which skips the interpreter's teardown: module cleanup, object
    deallocation and the final garbage collection.  Every file a command
    writes is closed by then.  sys.exit ends the process instead while a
    profiler, tracer or coverage tool is attached, so that it can write its
    report at exit.  An exception from main, --help's SystemExit included,
    propagates as usual.  A reader that closed stdout ends the run with exit
    code 1 and no traceback, as in the note on SIGPIPE in Python's signal
    docs.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout is pointed at devnull, so that no flush at exit can fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage can attach here
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
