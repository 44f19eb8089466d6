"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is exact (integer / rational equality) or a
p-adic identity checked mod p^P on exact lifts, P the stated working precision.
"""
import time
from fractions import Fraction

import pytest

from mazurtate.boundary import boundary_congruence
from mazurtate.classify import classify
from mazurtate.elements import (
    MazurTateTower,
    check_norm_relation,
    check_theta0_identity,
    mazur_tate,
    stabilized_mazur_tate,
    theta0_interpolation_factor,
)
from mazurtate.errors import NotGoodOrdinary
from mazurtate.hecke import eigensymbol
from mazurtate.modsym import INFINITY, build_space
from mazurtate.padics import unit_root, valuation
from mazurtate.suites import run_all_suites

from .conftest import make_curve, unit_root_inverse, working_precision
from .test_elements import bottom_interpolation_residual

GOOD_ORDINARY_FIXTURES = (("11a", 5), ("26b1", 7), ("174b1", 7))


def report(num, ok, text):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def test_criterion_1_11a_maximal_lambda_tower():
    start = time.monotonic()
    curve = make_curve("11a")
    sym = eigensymbol(build_space(11), curve)
    lams = [mazur_tate(sym, 5, n).iwasawa_invariants().lam for n in range(4)]
    elapsed = time.monotonic() - start
    ok = lams == [5**n - 1 for n in range(4)] and elapsed < 60
    report(1, ok, f"11a/p=5 lambda(theta_n) = {lams} = 5^n - 1 for n<=3 in {elapsed:.1f}s")


def test_criterion_2_26b1_case_b():
    start = time.monotonic()
    rep = classify(make_curve("26b1"), 7, 2, "neron")
    elapsed = time.monotonic() - start
    ok = (
        rep.verdict == "CaseB"
        and all(row.mu == -1 for row in rep.per_level)
        and [row.lam for row in rep.per_level] == [7**n - 1 for n in range(3)]
        and elapsed < 300
    )
    report(2, ok, f"26b1/p=7 neron: verdict={rep.verdict}, mu=-1, lambda={[r.lam for r in rep.per_level]} in {elapsed:.1f}s")


def test_criterion_3_boundary_congruences(eigensymbols):
    res26 = boundary_congruence(eigensymbols["26b1"], 7)
    t = res26.witness.table if res26.solvable else None
    pattern = False
    if res26.solvable:
        v = res26.witness.values
        cls = [t.classify(x) for x in (INFINITY, 0, Fraction(1, 2), Fraction(1, 13))]
        pattern = (
            len(set(cls)) == 4
            and v[cls[1]] == v[cls[3]]
            and v[cls[0]] == v[cls[2]]
            and v[cls[0]] != v[cls[1]]
        )
    res174 = boundary_congruence(eigensymbols["174b1"], 7)
    ok = res26.solvable and pattern and not res174.solvable
    report(3, ok, f"26b1/p=7 boundary witness two-valued on 4 classes: {pattern}; 174b1/p=7 unsolvable: {not res174.solvable}")


def test_criterion_4_norm_relation_residuals(eigensymbols):
    failures = []
    for label, p in GOOD_ORDINARY_FIXTURES:
        for n in (1, 2, 3):
            if not check_norm_relation(eigensymbols[label], p, n).passed:
                failures.append((label, n))
    report(4, not failures, f"norm-relation residual exactly 0 for all good-ordinary fixtures, n<=3 (failures: {failures})")


def test_criterion_5_stabilized_integrality(eigensymbols):
    failures = []
    for label, p in GOOD_ORDINARY_FIXTURES:
        curve = make_curve(label)
        inverse = unit_root_inverse(curve.a_ell(p), p, working_precision(3))
        for n in range(4):
            st = stabilized_mazur_tate(eigensymbols[label], inverse, p, n)
            if any(valuation(c, p) < 0 for c in st.coeffs):
                failures.append((label, n))
    report(5, not failures, f"all coefficients of theta_n(phi^alpha) have valuation >= 0, n<=3 (failures: {failures})")


def test_criterion_6_theta0_interpolation(eigensymbols):
    identity_ok = all(
        check_theta0_identity(eigensymbols[label], make_curve(label), p)
        for label, p in GOOD_ORDINARY_FIXTURES
    )
    # additive fixture: same identity with the eps(p) = 0 factor a_p - 1
    identity_ok = identity_ok and check_theta0_identity(eigensymbols["50b1"], make_curve("50b1"), 5)
    factor_ok = all(
        theta0_interpolation_factor(make_curve(label), p) == make_curve(label).a_ell(p) - 2
        for label, p in GOOD_ORDINARY_FIXTURES
    )
    aug_ok = True
    for label, p in GOOD_ORDINARY_FIXTURES:
        precision = working_precision(1)
        alpha = unit_root(make_curve(label).a_ell(p), p, precision)
        residual = bottom_interpolation_residual(MazurTateTower(eigensymbols[label], p, 0), alpha, precision)
        if valuation(residual, p) < precision:
            aug_ok = False
    ok = identity_ok and factor_ok and aug_ok
    report(6, ok, "theta_0 = (a_p - 2) phi({inf}-{0}) sigma_1 exactly; "
                  "aug(theta_0(phi^alpha))/alpha = (1 - 1/alpha)^2 phi({inf}-{0}) to precision "
                  f"(identity: {identity_ok}, augmentation: {aug_ok})")


def test_criterion_7_randomized_property_suites():
    start = time.monotonic()
    results = run_all_suites(cases_per_pair=500, seed=0)
    elapsed = time.monotonic() - start
    tower_cases = sum(r.cases for r in results if r.name.startswith("synthetic towers"))
    big_enough = all(r.cases >= 500 for r in results if not r.name.startswith(("synthetic", "corestriction linearity")))
    ok = all(r.passed for r in results) and big_enough and tower_cases >= 200 and elapsed < 120
    detail = ", ".join(f"{r.name}: {r.cases}/{r.violations}" for r in results)
    report(7, ok, f"randomized suites in {elapsed:.1f}s ({detail})")


def test_criterion_8_174b1_stabilization():
    rep = classify(make_curve("174b1"), 7, 3, "neron")
    mu0_ok = rep.per_level[0].mu >= 0
    top, prev = rep.stabilized[3], rep.stabilized[2]
    agree = (top.mu, top.lam) == (prev.mu, prev.lam)
    match = all(
        (s.mu, s.lam) == (r.mu_coh, r.lam)
        for s, r in ((top, rep.per_level[3]), (prev, rep.per_level[2]))
    )
    ok = mu0_ok and agree and match and rep.verdict == "CaseA"
    report(8, ok, f"174b1/p=7: mu(theta_0)={rep.per_level[0].mu}>=0; stabilized (mu,lambda)=({top.mu},{top.lam}) "
                  f"agrees between n=2,3 and equals the plain invariants; verdict {rep.verdict}")


def test_criterion_9_50b1_additive():
    curve = make_curve("50b1")
    sym = eigensymbol(build_space(50), curve)
    lams = [mazur_tate(sym, 5, n).iwasawa_invariants().lam for n in range(3)]
    lam_ok = lams == [5**n - 1 for n in range(3)]
    with pytest.raises(NotGoodOrdinary):
        classify(curve, 5, 2)
    report(9, lam_ok, f"50b1/p=5 (additive): lambda(theta_n) = {lams} = 5^n - 1 for n<=2; classifier refuses with NotGoodOrdinary")
