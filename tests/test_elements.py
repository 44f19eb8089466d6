import math
import random
from fractions import Fraction

import pytest

from mazurtate import cache
from mazurtate.elements import (
    MazurTateTower,
    check_norm_relation,
    check_theta0_identity,
    mazur_tate,
    raw_mazur_tate,
    stabilized_mazur_tate,
    theta0_interpolation_factor,
)
from mazurtate.errors import ZeroElement
from mazurtate.groupring import GroupLevel, GroupRingElement
from mazurtate.modsym import ModularSymbol
from mazurtate.padics import unit_root, valuation
from mazurtate.primes import int_valuation

from .conftest import Scaled, make_curve, sign_parts, unit_root_inverse, working_precision, zero_symbol
from .test_groupring import FIXTURE_TOWERS, one_unit_dlog


def test_raw_element_coefficient_sum(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    assert sum(raw[1:]) == sum(sym.value_infinity_minus(Fraction(a, 5)) for a in (1, 2, 3, 4))
    assert [a for a, v in enumerate(raw) if v is not None] == [1, 2, 3, 4]


def test_raw_values_share_bounded_denominator(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    # integral normalization: every value is an integer
    assert all(type(v) is int for v in raw[1:])


def test_raw_element_of_zero_symbol(spaces):
    z = zero_symbol(spaces[11])
    assert not any(raw_mazur_tate(z, 5, 2))
    assert mazur_tate(z, 5, 1).is_zero()


def test_theta0_identity_good_fixtures(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        assert check_theta0_identity(eigensymbols[label], curves[label], p)
        assert theta0_interpolation_factor(curves[label], p) == curves[label].a_ell(p) - 2


def test_theta0_identity_additive_fixture_uses_up_variant(eigensymbols, curves):
    # p | N: the operator at p is U_p and the factor becomes a_p - 1
    assert theta0_interpolation_factor(curves["50b1"], 5) == curves["50b1"].a_ell(5) - 1 == -1
    assert check_theta0_identity(eigensymbols["50b1"], curves["50b1"], 5)


def test_theta_depends_only_on_plus_part(full_spaces):
    rng = random.Random(8)
    sp = full_spaces[11]
    psi = ModularSymbol(sp, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(sp.dimension)])
    plus, minus = sign_parts(psi)
    for n in (0, 1):
        assert mazur_tate(psi, 5, n) == mazur_tate(plus, 5, n)
        assert mazur_tate(minus, 5, n).is_zero()


def test_corestriction_identity_of_scaled_symbol(eigensymbols):
    # theta_n(phi | [[p,0],[0,1]]) = cor(theta_{n-1}(phi))
    sym = eigensymbols["11a"]
    for n in (1, 2):
        lhs = mazur_tate(Scaled(sym, 5), 5, n)
        rhs = mazur_tate(sym, 5, n - 1).corestriction()
        assert lhs == rhs


def test_stabilized_integrality_11a(eigensymbols, curves):
    inverse = unit_root_inverse(curves["11a"].a_ell(5), 5, working_precision(3))
    for n in range(4):
        st = stabilized_mazur_tate(eigensymbols["11a"], inverse, 5, n)
        assert all(valuation(c, 5) >= 0 for c in st.coeffs)


def test_norm_relation_residual_zero(eigensymbols):
    for label, p in (("11a", 5), ("26b1", 7)):
        for n in (1, 2, 3):
            rep = check_norm_relation(eigensymbols[label], p, n)
            assert rep.passed
            assert set(rep.residual_valuation_floors) == {math.inf}


def test_norm_relation_holds_for_any_symbol(spaces):
    # the relation is an identity of the construction, not of eigenness
    rng = random.Random(12)
    sp = spaces[26]
    psi = ModularSymbol(sp, [Fraction(rng.randint(-5, 5)) for _ in range(sp.dimension)])
    assert check_norm_relation(psi, 7, 1).passed
    assert check_norm_relation(psi, 7, 2).passed


def test_direct_and_cor_route_elements_agree(eigensymbols, curves):
    # reference: theta_n - alpha^{-1} cor(theta_{n-1}) for n >= 1, and at n = 0
    # theta_0 - alpha^{-1} (p - 1) phi({inf}-{0}), since phi|[[p,0],[0,1]] at
    # a/p is phi({inf}-{0}) for each of the p - 1 units a
    sym, p, prec = eigensymbols["26b1"], 7, 15
    inverse = unit_root_inverse(curves["26b1"].a_ell(p), p, prec)
    for n in (0, 1, 2):
        theta = mazur_tate(sym, p, n)
        if n:
            lifted = mazur_tate(sym, p, n - 1).corestriction()
        else:
            lifted = GroupRingElement(theta.level, [(p - 1) * sym.value_infinity_minus(0)])
        assert stabilized_mazur_tate(sym, inverse, p, n) == theta - lifted.scale(inverse)


def test_stabilized_invariants_of_a_non_p_integral_symbol_shift_by_its_scale(eigensymbols, curves):
    # the exact lift needs no p-integrality: scaling phi by 1/5 or 3/25 lowers
    # every stabilized mu by 1 or 2 and keeps lambda, each tower at its own
    # derived precision
    p, a_p = 5, curves["11a"].a_ell(5)
    tower = MazurTateTower(eigensymbols["11a"], p, 2)
    base = stabilized_invariants(tower, unit_root_inverse(a_p, p, tower.stabilized_precision(a_p)))
    for scale, shift in ((Fraction(1, 5), 1), (Fraction(3, 25), 2)):
        scaled = MazurTateTower(scale * eigensymbols["11a"], p, 2)
        inverse = unit_root_inverse(a_p, p, scaled.stabilized_precision(a_p))
        assert [(inv.mu + shift, inv.lam) for inv in stabilized_invariants(scaled, inverse)] == base


def test_exact_norm_relation_negative_control(eigensymbols, curves):
    # perturb one coefficient of S_2 by p^k: the exact check sees ord_p = k at
    # every k, and its floors are those of the difference of the two routes,
    # as the lift of alpha^-1 is a unit
    p, prec = 5, 8
    inverse = unit_root_inverse(curves["11a"].a_ell(p), p, prec)
    for k in (0, 1, 3, prec - 1, prec, prec + 2, 3 * prec):
        tower = MazurTateTower(eigensymbols["11a"], p, 2)
        assert tower.norm_relation(2).passed
        coeffs = list(tower.scaled[2].coeffs)
        coeffs[7] += p**k
        tower.scaled[2] = GroupRingElement(tower.scaled[2].level, coeffs)
        rep = tower.norm_relation(2)
        assert not rep.passed
        assert [(i, f) for i, f in enumerate(rep.residual_valuation_floors) if f != math.inf] == [(7, k)]
        cor_route = tower.thetas[2] - tower.thetas[1].corestriction().scale(inverse)
        diff = tower.stabilized(inverse, 2) - cor_route
        assert rep.residual_valuation_floors == tuple(valuation(c, p) for c in diff.coeffs)
        assert tower.norm_relation(1).passed


def test_exact_norm_relation_floors_of_a_non_p_integral_symbol(eigensymbols):
    # with p in the denominators, a perturbation of ord_p = k - 3 shows as that floor
    p = 5
    for k in (0, 2, 5, 11):
        tower = MazurTateTower(Fraction(1, p) * eigensymbols["11a"], p, 2)
        assert tower.norm_relation(2).passed
        coeffs = list(tower.scaled[2].coeffs)
        coeffs[7] += Fraction(p**k, p**3)
        tower.scaled[2] = GroupRingElement(tower.scaled[2].level, coeffs)
        rep = tower.norm_relation(2)
        assert [f for f in rep.residual_valuation_floors if f != math.inf] == [k - 3]


def ordinary_traces(p):
    """Every a_p with a_p^2 < 4p (the Hasse bound) that p does not divide."""
    bound = math.isqrt(4 * p)
    return [a for a in range(-bound, bound + 1) if a % p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_root_difference_valuation_is_bounded_by_the_norm_form(p):
    # (alpha x - y)(beta x - y) = p x^2 - a_p x y + y^2 with beta = p / alpha in pZ_p
    rng = random.Random(p)
    for a_p in ordinary_traces(p):
        alpha = unit_root(a_p, p, 60)
        for trial in range(300):
            x = rng.randint(-p**3, p**3) * p ** rng.randint(0, 12)
            if trial % 2:  # y near alpha x, so that alpha x - y is divisible by a high power of p
                k = rng.randint(1, 20)
                y = alpha * x % p**k + rng.randint(-2, 2) * p ** (k + rng.randint(0, 3))
            else:
                y = rng.randint(-p**3, p**3) * p ** rng.randint(0, 12)
            if x == y == 0:
                continue
            norm = p * x * x - a_p * x * y + y * y
            assert norm > 0
            # mod p^60 alpha x - y is known; inf (a residue of 0) would fail
            assert int_valuation((alpha * x - y) % p**60, p) <= int_valuation(norm, p) < 60


def stabilized_invariants(tower, inverse):
    return [tower.stabilized(inverse, n).iwasawa_invariants() for n in range(len(tower.thetas))]


@pytest.mark.parametrize("label, p, n_max", FIXTURE_TOWERS + [("26b1", 7, 2), ("11a", 5, 3)])
def test_invariants_at_the_derived_precision_equal_those_at_precision_60(label, p, n_max, monkeypatch):
    # every tower the benchmark and the fixture reports classify, at every depth up to n_max
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    curve = make_curve(label)
    sym, _ = cache.load_symbol(curve, "cohomological")
    a_p = curve.a_ell(p)
    for depth in range(n_max + 1):
        tower = MazurTateTower(sym, p, depth)
        precision = tower.stabilized_precision(a_p)
        assert 1 <= precision <= 5
        # any lift of alpha^-1 mod p^precision gives the invariants of the lift mod p^60
        inverse = unit_root_inverse(a_p, p, precision)
        expected = stabilized_invariants(tower, unit_root_inverse(a_p, p, 60))
        for lift in (inverse, inverse + 3 * p**precision, inverse - p**precision):
            assert stabilized_invariants(tower, lift) == expected


def test_derived_precision_on_random_symbols(spaces):
    rng = random.Random(22)
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        sp = spaces[rng.choice((11, 26))]
        sym = ModularSymbol(sp, [rng.randint(-9, 9) * p ** rng.choice((0, 0, 1, 3)) for _ in range(sp.dimension)])
        a_p = rng.choice(ordinary_traces(p))
        tower = MazurTateTower(sym, p, {3: 3, 5: 2, 7: 1}[p])
        if any(t.is_zero() and s.is_zero() for t, s in zip(tower.thetas, tower.scaled)):
            with pytest.raises(ZeroElement):
                tower.stabilized_precision(a_p)
            continue
        precision = tower.stabilized_precision(a_p)
        inverse = unit_root_inverse(a_p, p, precision)
        expected = stabilized_invariants(tower, unit_root_inverse(a_p, p, 60))
        for lift in (inverse, inverse + rng.randint(-9, 9) * p**precision):
            assert stabilized_invariants(tower, lift) == expected


def test_derived_precision_refuses_a_trace_outside_the_hasse_bound(eigensymbols):
    tower = MazurTateTower(eigensymbols["11a"], 5, 1)
    with pytest.raises(ValueError, match="Hasse bound"):
        tower.stabilized_precision(6)


def vanishes_mod(F, p, precision):
    """F = 0 mod p^precision: its denominator is prime to p and p^precision divides every int."""
    return F.den % p != 0 and all(b % p**precision == 0 for b in F.ints)


def norm_compatibility_residual(tower, alpha, precision, n):
    """project(theta_{n+1}(phi^alpha)) - alpha * theta_n(phi^alpha), on the lifts
    through alpha^-1 mod p^precision, which a non-unit alpha does not have.

    It vanishes mod p^precision precisely when alpha is the unit root and the
    symbol is the matching eigensymbol.
    """
    inverse = pow(alpha, -1, tower.p**precision)
    return tower.stabilized(inverse, n + 1).project() - tower.stabilized(inverse, n).scale(alpha)


def test_norm_compatibility_and_negative_control(eigensymbols, curves):
    p, precision = 5, working_precision(3)
    tower = MazurTateTower(eigensymbols["11a"], p, 3)
    alpha = unit_root(curves["11a"].a_ell(p), p, precision)
    for n in (0, 1, 2):
        assert vanishes_mod(norm_compatibility_residual(tower, alpha, precision, n), p, precision)
    diff = norm_compatibility_residual(tower, alpha + p, precision, 1)  # unit, not a root
    assert not vanishes_mod(diff, p, precision)
    assert min(valuation(c, p) for c in diff.coeffs) <= 2
    with pytest.raises(ValueError):
        norm_compatibility_residual(tower, 2 * p, precision, 1)  # alpha must be a unit


def bottom_interpolation_residual(tower, alpha, precision):
    """alpha^-1 aug(theta_0(phi^alpha)) - (1 - 1/alpha)^2 phi({inf}-{0}), through
    the lift of alpha^-1 mod p^precision; a rational, 0 mod p^precision when the law holds.

    The norm-compatible system divides theta_n(phi^alpha) by alpha^(n+1), so
    its bottom layer interpolates the trivial character.
    """
    inverse = pow(alpha, -1, tower.p**precision)
    return inverse * tower.stabilized(inverse, 0).augmentation() - (1 - inverse) ** 2 * tower.phi0


def test_interpolation_at_trivial_character(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        alpha = unit_root(curves[label].a_ell(p), p, 20)
        tower = MazurTateTower(eigensymbols[label], p, 0)
        assert valuation(bottom_interpolation_residual(tower, alpha, 20), p) >= 20
        # a unit that is not the root breaks it, and a non-unit has no lift of alpha^-1
        assert valuation(bottom_interpolation_residual(tower, alpha + p, 20), p) < 20
        with pytest.raises(ValueError):
            bottom_interpolation_residual(tower, 2 * p, 20)


def test_interpolation_value_matches_hand_computation(eigensymbols, curves):
    # aug(theta_0(phi^alpha)) = (a_p - 2 - (p-1)/alpha) * phi({inf}-{0}), and
    # exactly so on the lift through a = alpha^-1 mod p^20
    sym = eigensymbols["11a"]
    p, prec = 5, 20
    a_p = curves["11a"].a_ell(p)
    inverse = unit_root_inverse(a_p, p, prec)
    aug = stabilized_mazur_tate(sym, inverse, p, 0).augmentation()
    assert aug == (a_p - 2 - (p - 1) * inverse) * sym.value_infinity_minus(0)


def test_tower_congruence_mod_p(eigensymbols):
    # for these curves the symbol values repeat mod p along the tower, so
    # theta_n = cor^n(theta_0) mod p; this ties together divisor evaluation,
    # the discrete-log indexing and corestriction in one identity
    for label, p, depth in (("11a", 5, 3), ("26b1", 7, 2)):
        theta0 = mazur_tate(eigensymbols[label], p, 0)
        lifted = theta0
        for n in range(1, depth + 1):
            lifted = lifted.corestriction()
            diff = mazur_tate(eigensymbols[label], p, n) - lifted
            assert all(valuation(c, p) >= 1 for c in diff.coeffs)


def test_raw_levels_require_n_at_least_one(eigensymbols):
    with pytest.raises(ValueError):
        raw_mazur_tate(eigensymbols["11a"], 5, 0)
    with pytest.raises(ValueError):
        check_norm_relation(eigensymbols["11a"], 5, 0)


def test_tower_scaled_sums_match_the_scaled_symbol(eigensymbols):
    # the tower reads phi|[[p,0],[0,1]] at a/p^(n+1) off the level below;
    # compare with evaluating the scaled symbol at every divisor
    sym, p = eigensymbols["26b1"], 5
    tower = MazurTateTower(sym, p, 2)
    scaled = Scaled(sym, p)
    for n in range(3):
        level = GroupLevel(p, n)
        sums = [Fraction(0)] * level.order
        for a in range(1, p ** (n + 1)):
            if a % p:
                sums[one_unit_dlog(a, p, n)] += scaled.value_infinity_minus(Fraction(a, p ** (n + 1)))
        assert tower.scaled[n].coeffs == tuple(sums)
        assert tower.thetas[n] == mazur_tate(sym, p, n)


def test_tower_serves_every_route_at_any_precision(eigensymbols):
    # one tower serves its stabilized elements through lifts at any two
    # precisions; both are at least the derived one, so they agree on invariants
    tower = MazurTateTower(eigensymbols["11a"], 5, 3)
    assert tower.stabilized_precision(1) <= 4
    low, high = unit_root_inverse(1, 5, 4), unit_root_inverse(1, 5, 30)
    for n in range(4):
        coarse, fine = tower.stabilized(low, n), tower.stabilized(high, n)
        assert vanishes_mod(coarse - fine, 5, 4)  # equal modulo 5^4
        assert coarse.iwasawa_invariants() == fine.iwasawa_invariants()
    assert all(tower.norm_relation(n).passed for n in range(1, 4))
    with pytest.raises(ValueError):
        MazurTateTower(eigensymbols["11a"], 5, -1)


def count_evaluations(monkeypatch):
    """Record every ModularSymbol.values_at call, one run of the cusp loop, as (q, numerators)."""
    original = ModularSymbol.values_at
    calls = []

    def counted(sym, q, nums):
        calls.append((q, tuple(nums)))
        return original(sym, q, nums)

    monkeypatch.setattr(ModularSymbol, "values_at", counted)
    return calls


def test_plus_symbol_tower_evaluates_half_the_cusps(eigensymbols, monkeypatch):
    sym = eigensymbols["11a"]
    assert sym.is_plus()
    calls = count_evaluations(monkeypatch)
    tower = MazurTateTower(sym, 5, 3)
    # phi({inf}-{0}), then each level 5^k once, k = 1..4, at a < 5^k/2 prime to 5: 2 + 10 + 50 + 250
    assert [q for q, _ in calls] == [1, 5, 25, 125, 625]
    cusps = [(a, q) for q, nums in calls for a in nums]
    assert len(cusps) == len(set(cusps)) == 313
    assert all(2 * a < q for a, q in cusps[1:])
    for n, theta in enumerate(tower.thetas):
        assert all(type(c) is Fraction for c in theta.coeffs)
        assert all(type(c) is Fraction for c in tower.scaled[n].coeffs)


def test_level_values_equal_one_cusp_values(eigensymbols, full_spaces):
    # each level is one values_at call, halved for a plus symbol; entry a must
    # be the one-cusp value at a/q, of the same type: an int exactly when integral
    rng = random.Random(3)
    sp = full_spaces[26]
    forged = ModularSymbol(sp, [rng.randint(-9, 9) for _ in range(sp.dimension)], sign="+")
    halves = [Fraction(1, 2) * sym for sym in eigensymbols.values()]
    assert not forged.is_plus() and all(half.is_plus() for half in halves)
    for sym in [*eigensymbols.values(), *halves, forged]:
        for p, k_max in ((3, 4), (5, 3), (7, 2)):
            for k in range(1, k_max + 1):
                q = p**k
                raw = raw_mazur_tate(sym, p, k)
                assert [a for a, v in enumerate(raw) if v is not None] == [a for a in range(q) if a % p]
                for a in range(1, q):
                    if a % p:
                        expected = sym.value_infinity_minus(Fraction(a, q))
                        assert raw[a] == expected
                        assert type(raw[a]) is type(expected) is (int if expected.denominator == 1 else Fraction)
    assert any(type(v) is Fraction for v in raw_mazur_tate(halves[0], 5, 2) if v is not None)


def test_forged_plus_label_keeps_the_full_loop(full_spaces, monkeypatch):
    rng = random.Random(5)
    sp = full_spaces[26]
    forged = ModularSymbol(sp, [rng.randint(-9, 9) for _ in range(sp.dimension)], sign="+")
    assert not forged.is_plus()
    expected = {a: forged.value_infinity_minus(Fraction(a, 49)) for a in range(1, 49) if a % 7}
    calls = count_evaluations(monkeypatch)
    raw = raw_mazur_tate(forged, 7, 2)
    assert calls == [(49, tuple(expected))]
    assert {a: raw[a] for a in expected} == expected
    # copying values[q - a] would be wrong here, and would break theta(phi) = theta(phi^+)
    assert any(v != expected[49 - a] for a, v in expected.items())
    assert mazur_tate(forged, 7, 1) == mazur_tate(sign_parts(forged)[0], 7, 1)
