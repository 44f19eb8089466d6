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
from mazurtate.errors import PrecisionInsufficient, ZeroElement
from mazurtate.groupring import GroupLevel, GroupRingElement
from mazurtate.modsym import ModularSymbol
from mazurtate.padics import PAdic, unit_root
from mazurtate.primes import int_valuation

from .conftest import Scaled, make_curve, sign_parts, working_precision, zero_symbol
from .test_groupring import FIXTURE_TOWERS, one_unit_dlog


def test_raw_element_coefficient_sum(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    assert sum(raw.values()) == sum(sym.value_infinity_minus(Fraction(a, 5)) for a in (1, 2, 3, 4))
    assert set(raw) == {1, 2, 3, 4}


def test_raw_values_share_bounded_denominator(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    # integral normalization: every value is an integer
    assert all(v.denominator == 1 for v in raw.values())


def test_raw_element_of_zero_symbol(spaces):
    z = zero_symbol(spaces[11])
    assert sum(raw_mazur_tate(z, 5, 2).values()) == 0
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
    alpha = unit_root(curves["11a"].a_ell(5), 5, working_precision(3))
    for n in range(4):
        st = stabilized_mazur_tate(eigensymbols["11a"], alpha, 5, n)
        for c in st.coeffs:
            assert c.is_zero_to_precision or c.valuation() >= 0


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
    alpha = unit_root(curves["26b1"].a_ell(p), p, prec)
    inv_alpha = alpha.inverse()
    for n in (0, 1, 2):
        theta = mazur_tate(sym, p, n)
        if n:
            lifted = mazur_tate(sym, p, n - 1).corestriction()
        else:
            lifted = GroupRingElement(theta.level, [(p - 1) * sym.value_infinity_minus(0)])
        b = theta.to_padic(prec) - lifted.to_padic(prec).scale(inv_alpha)
        a = stabilized_mazur_tate(sym, alpha, p, n)
        assert all((x - y).is_zero_to_precision for x, y in zip(a.coeffs, b.coeffs))
        assert [x.precision for x in a.coeffs] == [y.precision for y in b.coeffs] == [prec] * theta.level.order


def test_stabilized_refuses_a_non_p_integral_symbol_as_the_padic_route_did(eigensymbols, curves):
    p, prec = 5, 10
    alpha = unit_root(curves["11a"].a_ell(p), p, prec)
    for scale in (Fraction(1, 5), Fraction(3, 25)):
        tower = MazurTateTower(scale * eigensymbols["11a"], p, 2)
        for n in range(3):
            with pytest.raises(ValueError) as padic_route:
                tower.thetas[n].to_padic(prec) - tower.scaled[n].to_padic(prec).scale(alpha.inverse())
            with pytest.raises(ValueError) as one_residue:
                tower.stabilized(alpha, n)
            assert str(one_residue.value) == str(padic_route.value)
            assert str(one_residue.value).endswith(f" is not p-integral at p={p}")


def test_exact_norm_relation_negative_control(eigensymbols, curves):
    # perturb one coefficient of S_2 by p^k: the exact check sees ord_p = k at
    # every k, and its floors, capped at prec, are those of the p-adic
    # comparison of the two routes, which cannot see k >= prec
    p, prec = 5, 8
    alpha = unit_root(curves["11a"].a_ell(p), p, prec)
    inv_alpha = alpha.inverse()
    for k in (0, 1, 3, prec - 1, prec, prec + 2, 3 * prec):
        tower = MazurTateTower(eigensymbols["11a"], p, 2)
        assert tower.norm_relation(2).passed
        coeffs = list(tower.scaled[2].coeffs)
        coeffs[7] += p**k
        tower.scaled[2] = GroupRingElement(tower.scaled[2].level, coeffs)
        rep = tower.norm_relation(2)
        assert not rep.passed
        assert [(i, f) for i, f in enumerate(rep.residual_valuation_floors) if f != math.inf] == [(7, k)]
        cor_route = (tower.thetas[2].to_padic(prec)
                     - tower.thetas[1].corestriction().to_padic(prec).scale(inv_alpha))
        diff = tower.stabilized(alpha, 2) - cor_route
        capped = tuple(min(f, prec) for f in rep.residual_valuation_floors)
        assert capped == tuple(c.valuation_lower_bound() for c in diff.coeffs)
        assert tower.norm_relation(1).passed
    with pytest.raises(PrecisionInsufficient):
        tower.stabilized(PAdic(p, 10, prec), 2)  # alpha must be a unit


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
                y = alpha.residue * x % p**k + rng.randint(-2, 2) * p ** (k + rng.randint(0, 3))
            else:
                y = rng.randint(-p**3, p**3) * p ** rng.randint(0, 12)
            if x == y == 0:
                continue
            norm = p * x * x - a_p * x * y + y * y
            assert norm > 0
            assert (alpha * x - y).valuation() <= int_valuation(norm, p) < 60


def stabilized_invariants(tower, alpha):
    return [tower.stabilized(alpha, n).iwasawa_invariants() for n in range(len(tower.thetas))]


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
        assert stabilized_invariants(tower, unit_root(a_p, p, precision)) == stabilized_invariants(
            tower, unit_root(a_p, p, 60))


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
        assert stabilized_invariants(tower, unit_root(a_p, p, precision)) == stabilized_invariants(
            tower, unit_root(a_p, p, 60))


def test_derived_precision_refuses_a_trace_outside_the_hasse_bound(eigensymbols):
    tower = MazurTateTower(eigensymbols["11a"], 5, 1)
    with pytest.raises(ValueError, match="Hasse bound"):
        tower.stabilized_precision(6)


def norm_compatibility_residual(tower, alpha, n):
    """project(theta_{n+1}(phi^alpha)) - alpha * theta_n(phi^alpha).

    It vanishes to precision precisely when alpha is the unit root and the
    symbol is the matching eigensymbol.
    """
    return tower.stabilized(alpha, n + 1).project() - tower.stabilized(alpha, n).scale(alpha)


def test_norm_compatibility_and_negative_control(eigensymbols, curves):
    tower = MazurTateTower(eigensymbols["11a"], 5, 3)
    alpha = unit_root(curves["11a"].a_ell(5), 5, working_precision(3))
    for n in (0, 1, 2):
        assert norm_compatibility_residual(tower, alpha, n).is_zero()
    corrupted = PAdic(5, alpha.residue + 5, alpha.precision)  # unit, not a root
    diff = norm_compatibility_residual(tower, corrupted, 1)
    assert not diff.is_zero()
    assert min(c.valuation_lower_bound() for c in diff.coeffs) <= 2


def bottom_interpolation_residual(tower, alpha):
    """alpha^-1 aug(theta_0(phi^alpha)) - (1 - 1/alpha)^2 phi({inf}-{0}).

    The norm-compatible system divides theta_n(phi^alpha) by alpha^(n+1), so
    its bottom layer interpolates the trivial character.
    """
    p, precision = tower.p, alpha.precision
    inv_alpha = alpha.inverse()
    one = PAdic.from_rational(1, p, precision)
    expected = (one - inv_alpha) * (one - inv_alpha) * PAdic.from_rational(tower.phi0, p, precision)
    return inv_alpha * tower.stabilized(alpha, 0).augmentation() - expected


def test_interpolation_at_trivial_character(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        alpha = unit_root(curves[label].a_ell(p), p, 20)
        tower = MazurTateTower(eigensymbols[label], p, 0)
        assert bottom_interpolation_residual(tower, alpha).is_zero_to_precision
        # a unit that is not the root breaks it
        assert not bottom_interpolation_residual(tower, PAdic(p, alpha.residue + p, 20)).is_zero_to_precision


def test_interpolation_value_matches_hand_computation(eigensymbols, curves):
    # aug(theta_0(phi^alpha)) = (a_p - 2 - (p-1)/alpha) * phi({inf}-{0})
    sym = eigensymbols["11a"]
    p, prec = 5, 20
    alpha = unit_root(curves["11a"].a_ell(p), p, prec)
    aug = stabilized_mazur_tate(sym, alpha, p, 0).augmentation()
    phi0 = PAdic.from_rational(sym.value_infinity_minus(0), p, prec)
    ap = PAdic.from_rational(curves["11a"].a_ell(p), p, prec)
    pm1 = PAdic.from_rational(p - 1, p, prec)
    expected = (ap - 2 - pm1 * alpha.inverse()) * phi0
    assert (aug - expected).is_zero_to_precision


def test_tower_congruence_mod_p(eigensymbols):
    # for these curves the symbol values repeat mod p along the tower, so
    # theta_n = cor^n(theta_0) mod p; this ties together divisor evaluation,
    # the discrete-log indexing and corestriction in one identity
    from mazurtate.padics import valuation

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
    # one tower serves its stabilized elements at any two precisions
    tower = MazurTateTower(eigensymbols["11a"], 5, 3)
    low, high = unit_root(1, 5, 4), unit_root(1, 5, 30)
    for n in range(4):
        coarse, fine = tower.stabilized(low, n), tower.stabilized(high, n)
        assert {c.precision for c in coarse.coeffs} == {4}
        assert {c.precision for c in fine.coeffs} == {30}
        assert coarse == fine  # equal modulo 5^4
    assert all(tower.norm_relation(n).passed for n in range(1, 4))
    with pytest.raises(ValueError):
        MazurTateTower(eigensymbols["11a"], 5, -1)


def count_evaluations(monkeypatch):
    """Record the cusp of every ModularSymbol.value_infinity_minus call."""
    original = ModularSymbol.value_infinity_minus
    cusps = []

    def counted(sym, r):
        cusps.append(r)
        return original(sym, r)

    monkeypatch.setattr(ModularSymbol, "value_infinity_minus", counted)
    return cusps


def test_plus_symbol_tower_evaluates_half_the_cusps(eigensymbols, monkeypatch):
    sym = eigensymbols["11a"]
    assert sym.is_plus()
    cusps = count_evaluations(monkeypatch)
    tower = MazurTateTower(sym, 5, 3)
    # phi({inf}-{0}), then a < 5^k/2 prime to 5 for k = 1..4: 2 + 10 + 50 + 250
    assert len(cusps) == 313
    assert len(set(cusps)) == 313
    assert all(2 * a < q for a, q in cusps[1:])
    for n, theta in enumerate(tower.thetas):
        assert all(type(c) is Fraction for c in theta.coeffs)
        assert all(type(c) is Fraction for c in tower.scaled[n].coeffs)


def test_halved_raw_values_match_every_cusp(eigensymbols):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 5)):
        sym = eigensymbols[label]
        for n in (1, 2):
            q = p**n
            raw = raw_mazur_tate(sym, p, n)
            assert list(raw) == [a for a in range(1, q) if a % p]
            assert all(v == sym.value_infinity_minus(Fraction(a, q)) for a, v in raw.items())


def test_forged_plus_label_keeps_the_full_loop(full_spaces, monkeypatch):
    rng = random.Random(5)
    sp = full_spaces[26]
    forged = ModularSymbol(sp, [rng.randint(-9, 9) for _ in range(sp.dimension)], sign="+")
    assert not forged.is_plus()
    expected = {a: forged.value_infinity_minus(Fraction(a, 49)) for a in range(1, 49) if a % 7}
    cusps = count_evaluations(monkeypatch)
    raw = raw_mazur_tate(forged, 7, 2)
    assert sorted(a for a, _ in cusps) == sorted(expected)
    assert raw == expected
    # copying values[q - a] would be wrong here, and would break theta(phi) = theta(phi^+)
    assert any(v != expected[49 - a] for a, v in expected.items())
    assert mazur_tate(forged, 7, 1) == mazur_tate(sign_parts(forged)[0], 7, 1)
