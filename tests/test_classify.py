import time
from fractions import Fraction

import pytest

from mazurtate import classify as classify_module
from mazurtate.classify import _solving_units, classify, maximality_criterion
from mazurtate.elements import MazurTateTower
from mazurtate.errors import BoundExceeded, InputError, NotGoodOrdinary
from mazurtate.padics import unit_root

from .conftest import make_curve, record_cusps


def test_26b1_case_b():
    report = classify(make_curve("26b1"), 7, 2, "neron")
    assert report.verdict == "CaseB"
    assert report.lratio_valuation == -1
    for row in report.per_level:
        assert row.mu == -1
        assert row.lam == 7**row.n - 1
        assert row.is_maximal and not row.integral
    assert report.norm_relation_verified
    assert report.theta0_identity_verified
    assert report.boundary.solvable
    assert report.exit_code == 0


def test_11a_case_b_with_neron_mode():
    report = classify(make_curve("11a"), 5, 3, "neron")
    assert report.verdict == "CaseB"
    assert [row.lam for row in report.per_level] == [0, 4, 24, 124]
    assert [row.mu for row in report.per_level] == [-1, -1, -1, -1]
    assert [row.mu_coh for row in report.per_level] == [0, 0, 0, 0]


def test_174b1_case_a():
    report = classify(make_curve("174b1"), 7, 3, "neron")
    assert report.verdict == "CaseA"
    assert all(row.integral for row in report.per_level)
    top, prev = report.stabilized[-1], report.stabilized[-2]
    assert (top.mu, top.lam) == (prev.mu, prev.lam)
    plain = report.per_level[-1]
    assert (top.mu, top.lam) == (plain.mu_coh, plain.lam)
    assert not report.boundary.solvable
    assert report.exit_code == 0


def test_cohomological_mode_gives_same_lambda_different_mu():
    neron = classify(make_curve("26b1"), 7, 2, "neron")
    coh = classify(make_curve("26b1"), 7, 2, "cohomological")
    assert [r.lam for r in neron.per_level] == [r.lam for r in coh.per_level]
    shift = neron.normalization_shift
    assert shift == -1
    assert all(rn.mu == rc.mu + shift for rn, rc in zip(neron.per_level, coh.per_level))
    # cohomological mode cannot certify case B
    assert coh.verdict == "Inconclusive"


def test_additive_prime_refused():
    with pytest.raises(NotGoodOrdinary):
        classify(make_curve("50b1"), 5, 2)


def test_p_dividing_conductor_refused():
    with pytest.raises(NotGoodOrdinary):
        classify(make_curve("26b1"), 13, 1)


def test_nonordinary_prime_refused():
    curve = make_curve("11a")
    assert curve.a_ell(19) % 19 == 0  # supersingular for 11a
    with pytest.raises(NotGoodOrdinary):
        classify(curve, 19, 1)


def test_report_serialization_has_no_floats():
    report = classify(make_curve("26b1"), 7, 1, "neron")
    d = report.to_dict()

    def scan(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                scan(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                scan(v)

    scan(d)
    assert d["verdict"] == "CaseB"
    assert {"n", "mu_coh", "mu", "lambda", "is_maximal", "integral"} <= set(d["per_level"][0])


def test_maximality_criterion_11a():
    from .conftest import make_curve
    from mazurtate.hecke import eigensymbol
    from mazurtate.modsym import build_space

    sym = eigensymbol(build_space(11), make_curve("11a"))
    rep = maximality_criterion(sym, 5, 2, t=1)
    assert rep.holds
    assert rep.alphas == (1,)
    assert rep.ord_p_phi0 == 0
    assert rep.conclusions_verified


def test_maximality_criterion_walks_each_cusp_once(eigensymbols, monkeypatch):
    # the criterion reads the tower's walk: phi({inf}-{0}), then the cusps
    # a/5^k, a < 5^k/2, k = 1..6, each evaluated once per call, and no cusp
    # of a loop of its own
    sym = eigensymbols["11a"]
    cusps = record_cusps(monkeypatch)
    for t, alphas in ((1, (1,)), (2, (6,))):
        cusps.clear()
        rep = maximality_criterion(sym, 5, 5, t=t)
        assert (rep.holds, rep.alphas, rep.ord_p_phi0, rep.conclusions_verified) == (True, alphas, 0, True)
        assert len(cusps) == len(set(cusps)) == 1 + 2 + 10 + 50 + 250 + 1250 + 6250
        assert maximality_criterion(sym, 5, 5, t=t) == rep


@pytest.mark.parametrize(("n_max", "t", "error"), [
    (1, 0, InputError),
    (1, -1, InputError),
    (1, 40, BoundExceeded),  # p^t = 5^40: the units mod p^t are never listed
    (7, 1, BoundExceeded),   # the tower bounds, checked before the first level
    (200, 1, BoundExceeded),
])
def test_maximality_criterion_refuses_before_evaluating(eigensymbols, monkeypatch, n_max, t, error):
    cusps = record_cusps(monkeypatch)
    with pytest.raises(error):
        maximality_criterion(eigensymbols["11a"], 5, n_max, t=t)
    assert cusps == []


def test_maximality_criterion_fails_for_case_a_curve(eigensymbols):
    rep = maximality_criterion(eigensymbols["174b1"], 7, 1, t=1)
    assert not rep.holds
    assert rep.alphas == ()


def test_maximality_criterion_constant_synthetic_symbol():
    class ConstantSymbol:
        def values_at(self, q, nums):
            return [Fraction(3) for _ in nums]

    rep = maximality_criterion(ConstantSymbol(), 5, 1, t=1)
    # alpha = 1 satisfies the congruence; conclusions about theta_n hold too
    assert rep.holds
    assert 1 in rep.alphas


def test_maximality_criterion_keeps_one_coset_of_candidates():
    # every pair of a symbol constant at 5^5 reads u = 1 mod 5 at t = 6, so
    # 3125 units stay candidates to the end; filtering them pair by pair made
    # the t = 6 run about 45 times the t = 1 run (4 candidates) at n_max = 4
    class ConstantSymbol:
        def values_at(self, q, nums):
            return [5**5 for _ in nums]

    def best_time(t):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            rep = maximality_criterion(ConstantSymbol(), 5, 4, t=t)
            times.append(time.perf_counter() - start)
        return min(times), rep

    elapsed, rep = best_time(6)
    assert (rep.holds, rep.ord_p_phi0, rep.conclusions_verified) == (True, 5, True)
    assert rep.alphas == tuple(range(1, 5**6, 5))
    assert elapsed < 3 * best_time(1)[0] + 0.01


@pytest.mark.parametrize(("p", "t"), [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_solving_units_is_the_coset_of_solutions(p, t):
    modulus = p**t
    for x in range(modulus):
        for y in range(modulus):
            coset = _solving_units(x, y, p, t)
            units = {u for u in range(modulus) if u % p and (y - u * x) % modulus == 0}
            if coset is None:
                assert not units
            else:
                v, i = coset
                assert units == {u for u in range(modulus) if u % p and u % p**i == v}


def test_classify_refuses_bad_arguments_before_loading_the_symbol(monkeypatch):
    monkeypatch.setattr(classify_module, "load_symbol", lambda *a, **k: pytest.fail("symbol loaded"))
    with pytest.raises(ValueError, match="levels start at 0"):
        classify(make_curve("11a"), 5, -1)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        classify(make_curve("11a"), 5, 1, mode="bogus")
    with pytest.raises(BoundExceeded):
        classify(make_curve("11a"), 5, 6)


def test_classify_evaluates_each_cusp_once(monkeypatch):
    # every cusp a/p^k of the tower is evaluated once; only {inf}-{0} repeats,
    # in the normalization (content-one rescaling and the Neron scalar)
    calls = record_cusps(monkeypatch)
    report = classify(make_curve("26b1"), 7, 3, "neron")
    assert report.norm_relation_verified and report.theta0_identity_verified
    assert len(calls) <= len(set(calls)) + 2
    # phi({inf}-{0}) and a/7^k, a < 7^k/2, k = 1..4: the walk went through the loop
    assert len({cusp for _, cusp in calls}) == 1 + 3 + 21 + 147 + 1029


def test_classify_builds_each_stabilized_element_once(monkeypatch):
    # the norm relation is checked exactly over Q, so it builds no stabilized
    # element; classify builds theta_n(phi^alpha) once for n = 0 .. n_max
    original = MazurTateTower.stabilized
    calls = []

    def counted(tower, inverse, n):
        calls.append(n)
        return original(tower, inverse, n)

    monkeypatch.setattr(MazurTateTower, "stabilized", counted)
    report = classify(make_curve("26b1"), 7, 3, "neron")
    assert report.norm_relation_verified
    assert calls == [0, 1, 2, 3]


def test_classify_computes_one_unit_root(monkeypatch):
    # the precision is derived from the tower, so one unit root serves every
    # stabilized element, with no retry
    calls = []

    def counted(a_p, p, precision):
        calls.append((a_p, p, precision))
        return unit_root(a_p, p, precision)

    monkeypatch.setattr(classify_module, "unit_root", counted)
    for label, p, n_max in (("11a", 5, 2), ("26b1", 7, 3), ("174b1", 7, 3)):
        calls.clear()
        curve = make_curve(label)
        report = classify(curve, p, n_max, "neron")
        tower = MazurTateTower(classify_module.load_symbol(curve)[0], p, n_max)
        assert calls == [(curve.a_ell(p), p, tower.stabilized_precision(curve.a_ell(p)))]
        assert len(report.stabilized) == n_max + 1
