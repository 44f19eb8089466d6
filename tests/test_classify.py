from fractions import Fraction

import pytest

from mazurtate.classify import MAX_PRECISION, MAXIMALITY_SAMPLE_BOUND, MTRequest, classify, maximality_criterion
from mazurtate.elements import MazurTateTower
from mazurtate.errors import BoundExceeded, InputError, NotGoodOrdinary, PrecisionInsufficient
from mazurtate.modsym import ModularSymbol, as_cusp

from .conftest import make_curve


def test_26b1_case_b():
    report = classify(MTRequest(make_curve("26b1"), 7, 2, "neron"))
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
    report = classify(MTRequest(make_curve("11a"), 5, 3, "neron"))
    assert report.verdict == "CaseB"
    assert [row.lam for row in report.per_level] == [0, 4, 24, 124]
    assert [row.mu for row in report.per_level] == [-1, -1, -1, -1]
    assert [row.mu_coh for row in report.per_level] == [0, 0, 0, 0]


def test_174b1_case_a():
    report = classify(MTRequest(make_curve("174b1"), 7, 3, "neron"))
    assert report.verdict == "CaseA"
    assert all(row.integral for row in report.per_level)
    top, prev = report.stabilized[-1], report.stabilized[-2]
    assert (top.mu, top.lam) == (prev.mu, prev.lam)
    plain = report.per_level[-1]
    assert (top.mu, top.lam) == (plain.mu_coh, plain.lam)
    assert not report.boundary.solvable
    assert report.exit_code == 0


def test_cohomological_mode_gives_same_lambda_different_mu():
    neron = classify(MTRequest(make_curve("26b1"), 7, 2, "neron"))
    coh = classify(MTRequest(make_curve("26b1"), 7, 2, "cohomological"))
    assert [r.lam for r in neron.per_level] == [r.lam for r in coh.per_level]
    shift = neron.normalization_shift
    assert shift == -1
    assert all(rn.mu == rc.mu + shift for rn, rc in zip(neron.per_level, coh.per_level))
    # cohomological mode cannot certify case B
    assert coh.verdict == "Inconclusive"


def test_additive_prime_refused():
    with pytest.raises(NotGoodOrdinary):
        classify(MTRequest(make_curve("50b1"), 5, 2))


def test_p_dividing_conductor_refused():
    with pytest.raises(NotGoodOrdinary):
        classify(MTRequest(make_curve("26b1"), 13, 1))


def test_nonordinary_prime_refused():
    curve = make_curve("11a")
    assert curve.a_ell(19) % 19 == 0  # supersingular for 11a
    with pytest.raises(NotGoodOrdinary):
        classify(MTRequest(curve, 19, 1))


def test_report_serialization_has_no_floats():
    report = classify(MTRequest(make_curve("26b1"), 7, 1, "neron"))
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


def test_maximality_criterion_samples_past_the_bound(eigensymbols, monkeypatch):
    # at n = 5 the level 5^6 exceeds the bound, so a is sampled there, by a seeded rng
    assert 5**5 <= MAXIMALITY_SAMPLE_BOUND < 5**6
    sym = eigensymbols["11a"]
    original = ModularSymbol.value_infinity_minus
    sampled = set()

    def counted(self, r):
        if isinstance(r, Fraction) and r.denominator == 5**6:  # the tower passes (a, q) pairs
            sampled.add(r)
        return original(self, r)

    monkeypatch.setattr(ModularSymbol, "value_infinity_minus", counted)
    for t, alphas in ((1, (1,)), (2, (6,))):
        rep = maximality_criterion(sym, 5, 5, t=t)
        assert (rep.holds, rep.alphas, rep.ord_p_phi0, rep.conclusions_verified) == (True, alphas, 0, True)
        assert maximality_criterion(sym, 5, 5, t=t) == rep
    assert 0 < len(sampled) <= 200


def test_maximality_criterion_fails_for_case_a_curve(eigensymbols):
    rep = maximality_criterion(eigensymbols["174b1"], 7, 1, t=1)
    assert not rep.holds
    assert rep.alphas == ()


def test_maximality_criterion_constant_synthetic_symbol():
    class ConstantSymbol:
        def value_infinity_minus(self, r):
            return Fraction(3)

    rep = maximality_criterion(ConstantSymbol(), 5, 1, t=1)
    # alpha = 1 satisfies the congruence; conclusions about theta_n hold too
    assert rep.holds
    assert 1 in rep.alphas


def test_mtrequest_validation():
    with pytest.raises(ValueError):
        MTRequest(make_curve("11a"), 5, -1)
    with pytest.raises(ValueError):
        MTRequest(make_curve("11a"), 5, 1, mode="bogus")


@pytest.mark.parametrize("precision", [-5, 0])
def test_mtrequest_refuses_precision_below_one(precision):
    with pytest.raises(InputError, match=f"precision must be at least 1, got {precision}"):
        MTRequest(make_curve("11a"), 5, 1, precision=precision)


def test_mtrequest_precision_range():
    for precision in (None, 1, MAX_PRECISION):
        assert MTRequest(make_curve("11a"), 5, 1, precision=precision).precision == precision
    with pytest.raises(BoundExceeded):
        MTRequest(make_curve("11a"), 5, 1, precision=MAX_PRECISION + 1)


def test_classify_evaluates_each_cusp_once(monkeypatch):
    # every cusp a/p^k of the tower is evaluated once; only {inf}-{0} repeats,
    # in the normalization (content-one rescaling and the Neron scalar)
    original = ModularSymbol.value_infinity_minus
    calls = []

    def counted(sym, r):
        calls.append((sym.coords, as_cusp(r)))
        return original(sym, r)

    monkeypatch.setattr(ModularSymbol, "value_infinity_minus", counted)
    report = classify(MTRequest(make_curve("26b1"), 7, 3, "neron"))
    assert report.norm_relation_verified and report.theta0_identity_verified
    assert len(calls) <= len(set(calls)) + 2


def test_classify_builds_each_stabilized_element_once(monkeypatch):
    # the norm relation is checked exactly over Q, so it builds no stabilized
    # element; classify builds theta_n(phi^alpha) once for n = 0 .. n_max
    original = MazurTateTower.stabilized
    calls = []

    def counted(tower, alpha, n):
        calls.append(n)
        return original(tower, alpha, n)

    monkeypatch.setattr(MazurTateTower, "stabilized", counted)
    report = classify(MTRequest(make_curve("26b1"), 7, 3, "neron"))
    assert report.norm_relation_verified
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("precision", [None, 6])
def test_precision_retry_reports_the_last_precision_tried(monkeypatch, precision):
    tried = []

    def insufficient(tower, alpha, n):
        tried.append(alpha.precision)
        raise PrecisionInsufficient("forced")

    monkeypatch.setattr(MazurTateTower, "stabilized", insufficient)
    with pytest.raises(PrecisionInsufficient) as excinfo:
        classify(MTRequest(make_curve("11a"), 5, 2, "neron", precision))
    base = precision or tried[0]
    assert tried == [base, 2 * base, 4 * base]
    assert str(excinfo.value) == f"stabilized invariants undetermined at precision {4 * base}"
