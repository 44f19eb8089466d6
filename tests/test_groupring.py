import math
import random
from fractions import Fraction

import pytest

from mazurtate import cache, groupring
from mazurtate.classify import normalization_shift
from mazurtate.elements import MazurTateTower, working_precision
from mazurtate.errors import NotAGenerator, PrecisionInsufficient, ZeroElement
from mazurtate.groupring import (
    GroupLevel,
    GroupRingElement,
    invariants_with_generator,
    one_unit_exponent,
    sum_cancellation_check,
)
from mazurtate.padics import PAdic, unit_root, valuation

from .conftest import make_curve


def test_t_basis_of_gamma():
    L = GroupLevel(5, 1)
    gamma = GroupRingElement(L, [0, 1, 0, 0, 0])
    assert gamma.t_coefficients() == [1, 1, 0, 0, 0]


def test_t_basis_of_norm_element():
    L = GroupLevel(5, 1)
    norm = GroupRingElement.norm_element(L)
    assert norm.t_coefficients() == [math.comb(5, k + 1) for k in range(5)]
    inv = norm.iwasawa_invariants()
    assert (inv.mu, inv.lam) == (0, 4)


def test_t_basis_roundtrip_random():
    rng = random.Random(0)
    for _ in range(100):
        p, n = rng.choice([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
        L = GroupLevel(p, n)
        F = GroupRingElement(L, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(L.order)])
        assert GroupRingElement.from_t_coefficients(L, F.t_coefficients()) == F


def test_invariants_examples():
    L = GroupLevel(5, 1)
    F = GroupRingElement.from_t_coefficients(L, [Fraction(5), Fraction(1), Fraction(25), 0, 0])
    assert F.iwasawa_invariants().as_tuple() == (0, 1)
    G = GroupRingElement.identity(L).scale(5)
    assert G.iwasawa_invariants().as_tuple() == (1, 0)


def test_invariants_zero_element():
    with pytest.raises(ZeroElement):
        GroupRingElement.zero(GroupLevel(3, 1)).iwasawa_invariants()


def test_invariants_negative_mu():
    L = GroupLevel(3, 1)
    F = GroupRingElement(L, [Fraction(1, 9), 0, 0])
    inv = F.iwasawa_invariants()
    assert (inv.mu, inv.lam) == (-2, 0)


def test_corestriction_of_identity_is_norm():
    one = GroupRingElement.identity(GroupLevel(5, 0))
    assert one.corestriction() == GroupRingElement.norm_element(GroupLevel(5, 1))


def test_projection_composition_identities():
    rng = random.Random(1)
    for _ in range(50):
        p, n = rng.choice([(3, 1), (5, 1), (5, 2), (7, 1)])
        L = GroupLevel(p, n)
        F = GroupRingElement(L, [Fraction(rng.randint(-9, 9)) for _ in range(L.order)])
        assert F.corestriction().project() == F.scale(p)
    norm = GroupRingElement.norm_element(GroupLevel(5, 1))
    assert norm.project() == GroupRingElement.identity(GroupLevel(5, 0)).scale(5)
    assert GroupRingElement.zero(GroupLevel(5, 0)).corestriction().is_zero()


def test_scalar_shift_of_invariants():
    rng = random.Random(2)
    for _ in range(50):
        p, n = rng.choice([(3, 2), (5, 1), (7, 1)])
        L = GroupLevel(p, n)
        F = GroupRingElement(L, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(L.order)])
        if F.is_zero():
            continue
        inv = F.iwasawa_invariants()
        scaled = F.scale(Fraction(p**2, p + 2)).iwasawa_invariants()
        assert scaled.mu == inv.mu + 2
        assert scaled.lam == inv.lam


def test_generator_independence_examples():
    L = GroupLevel(5, 2)
    rng = random.Random(3)
    F = GroupRingElement(L, [Fraction(rng.randint(-9, 9), 5 ** rng.randint(0, 1)) for _ in range(25)])
    base = F.iwasawa_invariants().as_tuple()
    assert invariants_with_generator(F, 2).as_tuple() == base  # gamma' = gamma^2
    assert invariants_with_generator(F, 1).as_tuple() == base
    with pytest.raises(NotAGenerator):
        invariants_with_generator(F, 5)
    with pytest.raises(NotAGenerator):
        invariants_with_generator(F, 10)


def test_alternative_generator_unit_in_level():
    # the layer built on sigma_u for another unit u gives the same invariants
    F_default = GroupRingElement(GroupLevel(5, 2), [Fraction(k % 7 - 3, 5) for k in range(25)])
    inv = F_default.iwasawa_invariants()
    # sigma_{1+p} exponent table consistency
    assert one_unit_exponent(6, 5, 2) == 1
    with pytest.raises(NotAGenerator):
        GroupLevel(5, 2, generator_unit=1 + 25)  # 1 + p^2 is not a layer generator
    other = GroupLevel(5, 2, generator_unit=11)  # sigma_11 generates
    coeffs = [None] * 25
    for k in range(25):
        coeffs[other.exponent_of(pow(6, k, 125))] = F_default.coeffs[k]
    F_other = GroupRingElement(other, coeffs)
    assert F_other.iwasawa_invariants().as_tuple() == inv.as_tuple()


def test_sum_cancellation_constructed_instance():
    # F1 = T, F2 = -T + p*u: the sum has lambda 0 and mu >= 1
    L = GroupLevel(5, 1)
    F1 = GroupRingElement.from_t_coefficients(L, [0, 1, 0, 0, 0])
    F2 = GroupRingElement.from_t_coefficients(L, [Fraction(10), -1, 0, 0, 0])
    rep = sum_cancellation_check(F1, F2)
    assert rep.hypothesis_met
    assert rep.conclusion_holds
    assert rep.sum_invariants.lam == 0 and rep.sum_invariants.mu >= 1


def test_sum_cancellation_hypothesis_not_met():
    L = GroupLevel(5, 1)
    F1 = GroupRingElement.from_t_coefficients(L, [1, 0, 0, 0, 0])
    F2 = GroupRingElement.from_t_coefficients(L, [0, 1, 0, 0, 0])
    rep = sum_cancellation_check(F1, F2)
    assert not rep.hypothesis_met
    assert rep.conclusion_holds is None


def test_mixed_coefficient_kinds_forbidden():
    with pytest.raises(ValueError):
        GroupRingElement(GroupLevel(3, 1), [Fraction(1), PAdic(3, 1, 5), Fraction(0)])


def test_padic_invariants_and_precision_guard():
    L = GroupLevel(5, 1)
    F = GroupRingElement(L, [PAdic(5, 5, 6), PAdic(5, 1, 6), PAdic(5, 0, 6), PAdic(5, 0, 6), PAdic(5, 0, 6)])
    inv = F.iwasawa_invariants()
    assert (inv.mu, inv.lam) == (0, 0)  # T-coeffs start 5+1+... = 6, a unit
    allz = GroupRingElement(L, [PAdic(5, 0, 4)] * 5)
    with pytest.raises(PrecisionInsufficient):
        allz.iwasawa_invariants()


def test_serialization_roundtrip():
    L = GroupLevel(7, 1, generator_unit=8)
    F = GroupRingElement(L, [Fraction(k - 3, 7) for k in range(7)])
    assert GroupRingElement.from_dict(F.to_dict()) == F
    d = F.to_dict()
    assert all(isinstance(s, str) for s in d["coeffs"])


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        GroupRingElement(GroupLevel(3, 2), [Fraction(1)] * 3)


# -- the invariants against the full-shift route --


def full_shift_invariants(F):
    """Reference route: mu and lambda read off every exact T-coefficient."""
    if F.is_zero():
        if F.is_padic:
            raise PrecisionInsufficient("all coefficients vanish to working precision")
        raise ZeroElement("invariants of the zero element are undefined")
    tc = F.t_coefficients()
    if F.is_padic:
        certified = [(i, c.valuation()) for i, c in enumerate(tc) if not c.is_zero_to_precision]
        if not certified:
            raise PrecisionInsufficient("all T-coefficients vanish to working precision")
        mu = min(v for _, v in certified)
        if any(c.precision <= mu for c in tc if c.is_zero_to_precision):
            raise PrecisionInsufficient("an uncertified coefficient could attain the minimum valuation")
        return (mu, next(i for i, v in certified if v == mu))
    vals = [valuation(c, F.level.p) for c in tc]
    mu = min(vals)
    return (int(mu), vals.index(mu))


def outcome(invariants, F):
    try:
        return invariants(F)
    except (PrecisionInsufficient, ZeroElement) as exc:
        return (type(exc), str(exc))


def assert_same_as_full_shift(F):
    new = outcome(lambda G: G.iwasawa_invariants().as_tuple(), F)
    assert new == outcome(full_shift_invariants, F)
    return new


def random_rational(rng, p):
    if rng.random() < 0.3:
        return Fraction(0)
    den = p ** rng.choice([0, 0, 1, 2]) * rng.choice([1, 2, 13, 16])
    return Fraction(rng.randint(-99, 99) * p ** rng.choice([0, 0, 1, 3]), den)


LEVELS = [(p, n) for p in (3, 5, 7, 11) for n in range(4) if p**n <= 343] + [(11, 3)]


@pytest.mark.parametrize("p, n", LEVELS)
def test_exact_invariants_match_full_shift(p, n):
    rng = random.Random(p * 10 + n)
    L = GroupLevel(p, n)
    cases = 2 if L.order > 343 else 12
    for _ in range(cases):
        F = GroupRingElement(L, [random_rational(rng, p) for _ in range(L.order)])
        assert_same_as_full_shift(F)
        assert_same_as_full_shift(F.scale(Fraction(p**3, 2)))
        assert_same_as_full_shift(F.scale(Fraction(1, p**2)))
    assert_same_as_full_shift(GroupRingElement.zero(L))
    assert_same_as_full_shift(GroupRingElement.norm_element(L))


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (11, 2)])
def test_invariants_from_t_coefficients_match_full_shift(p, n):
    # T-coefficients divisible by p below a chosen index push lambda up to it
    rng = random.Random(p * 100 + n)
    L = GroupLevel(p, n)
    lams = set()
    for _ in range(10):
        lam = rng.randrange(L.order)
        mu = rng.randint(-2, 2)
        unit = Fraction(p) ** mu
        t = [unit * p * Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4])) for _ in range(lam)]
        t.append(unit * Fraction(rng.choice([1, -1, 2, p - 1]), rng.choice([1, 2, 4])))
        t += [unit * p**2 * random_rational(rng, p) for _ in range(L.order - lam - 1)]
        F = GroupRingElement.from_t_coefficients(L, t)
        assert assert_same_as_full_shift(F) == (mu, lam)
        lams.add(lam)
    assert len(lams) > 1


@pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (7, 2), (11, 1), (11, 2)])
def test_padic_invariants_match_full_shift(p, n):
    rng = random.Random(p * 1000 + n)
    L = GroupLevel(p, n)
    for _ in range(20):
        precs = [rng.randint(1, 6) for _ in range(L.order)]
        least = min(precs)
        coeffs = []
        for prec in precs:
            kind = rng.random()
            if kind < 0.3:
                r = 0
            elif kind < 0.6:
                r = p**least * rng.randint(1, p**prec)  # vanishes once reduced to the least precision
            else:
                r = p ** rng.randint(0, prec) * rng.randint(1, p**prec)
            coeffs.append(PAdic(p, r, prec))
        assert_same_as_full_shift(GroupRingElement(L, coeffs))
    assert_same_as_full_shift(GroupRingElement(L, [PAdic(p, 0, 3)] * L.order))
    vanishing = [PAdic(p, p**2, 3)] + [PAdic(p, 0, 2)] * (L.order - 1)
    assert outcome(lambda G: G.iwasawa_invariants().as_tuple(), GroupRingElement(L, vanishing)) == (
        PrecisionInsufficient, "all T-coefficients vanish to working precision")
    assert_same_as_full_shift(GroupRingElement(L, vanishing))


# (curve, p, n_max): the towers the benchmark runs, and 50b1 at the p = 3 depth of the level ladder
FIXTURE_TOWERS = [("11a", 5, 5), ("11a", 3, 7), ("26b1", 7, 3), ("174b1", 5, 4), ("174b1", 7, 3), ("50b1", 3, 5)]


@pytest.mark.parametrize("label, p, n_max", FIXTURE_TOWERS)
def test_fixture_tower_invariants_match_full_shift(label, p, n_max, monkeypatch):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    curve = make_curve(label)
    sym, norm = cache.load_symbol(curve, "neron")
    tower = MazurTateTower(sym, p, n_max)
    alpha = unit_root(curve.a_ell(p), p, working_precision(n_max, min(0, normalization_shift(norm, p))))
    for n in range(n_max + 1):
        assert_same_as_full_shift(tower.thetas[n])
        assert_same_as_full_shift(tower.stabilized(alpha, n))


def test_invariants_never_take_the_exact_shift(monkeypatch):
    L = GroupLevel(5, 2)
    elements = [
        GroupRingElement(L, [Fraction(k % 7 - 3, 5) for k in range(25)]),
        GroupRingElement.norm_element(L),
        GroupRingElement(L, [PAdic(5, 5 * k + 5, 4) for k in range(25)]),
    ]
    expected = [full_shift_invariants(F) for F in elements]

    def refuse(coeffs):
        raise AssertionError("the exact Taylor shift was called")

    monkeypatch.setattr(groupring, "_taylor_shift_by_one", refuse)
    assert [F.iwasawa_invariants().as_tuple() for F in elements] == expected
    with pytest.raises(AssertionError):
        elements[0].t_coefficients()
