import random
from fractions import Fraction

import pytest

from mazurtate.elements import (
    MazurTateTower,
    check_norm_compatibility,
    check_norm_relation,
    check_theta0_identity,
    interpolation_at_trivial_character,
    mazur_tate,
    raw_mazur_tate,
    stabilized_mazur_tate,
    stabilized_mazur_tate_direct,
    theta0_interpolation_factor,
    working_precision,
)
from mazurtate.groupring import GroupLevel
from mazurtate.padics import PAdic, unit_root


def test_raw_element_coefficient_sum(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    assert raw.coefficient_sum() == sum(sym.value_infinity_minus(Fraction(a, 5)) for a in (1, 2, 3, 4))
    assert set(raw.values) == {1, 2, 3, 4}


def test_raw_values_share_bounded_denominator(eigensymbols):
    sym = eigensymbols["11a"]
    raw = raw_mazur_tate(sym, 5, 1)
    # integral normalization: every value is an integer
    assert all(v.denominator == 1 for v in raw.values.values())


def test_raw_element_of_zero_symbol(spaces):
    z = spaces[11].zero_symbol()
    assert raw_mazur_tate(z, 5, 2).coefficient_sum() == 0
    assert mazur_tate(z, 5, 1).is_zero()


def test_theta0_identity_good_fixtures(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        assert check_theta0_identity(eigensymbols[label], curves[label], p)
        assert theta0_interpolation_factor(curves[label], p) == curves[label].a_ell(p) - 2


def test_theta0_identity_additive_fixture_uses_up_variant(eigensymbols, curves):
    # p | N: the operator at p is U_p and the factor becomes a_p - 1
    assert theta0_interpolation_factor(curves["50b1"], 5) == curves["50b1"].a_ell(5) - 1 == -1
    assert check_theta0_identity(eigensymbols["50b1"], curves["50b1"], 5)


def test_theta_depends_only_on_plus_part(spaces):
    rng = random.Random(8)
    sp = spaces[11]
    psi = sp.symbol([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(sp.dimension)])
    plus = psi.plus_part()
    for n in (0, 1):
        assert mazur_tate(psi, 5, n) == mazur_tate(plus, 5, n)
        assert mazur_tate(psi.minus_part(), 5, n).is_zero()


def test_corestriction_identity_of_scaled_symbol(eigensymbols):
    # theta_n(phi | [[p,0],[0,1]]) = cor(theta_{n-1}(phi))
    sym = eigensymbols["11a"]
    for n in (1, 2):
        lhs = mazur_tate(sym.scaled(5), 5, n)
        rhs = mazur_tate(sym, 5, n - 1).corestriction()
        assert lhs == rhs


def test_stabilized_integrality_11a(eigensymbols, curves):
    alpha = unit_root(curves["11a"].a_ell(5), 5, working_precision(3))
    for n in range(4):
        st = stabilized_mazur_tate(eigensymbols["11a"], alpha, 5, n)
        for c in st.coeffs:
            assert c.is_zero_to_precision or c.valuation() >= 0


def test_norm_relation_residual_zero(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7)):
        alpha = unit_root(curves[label].a_ell(p), p, working_precision(3))
        for n in (1, 2, 3):
            rep = check_norm_relation(eigensymbols[label], alpha, p, n)
            assert rep.passed
            assert rep.min_floor >= alpha.precision


def test_norm_relation_holds_for_any_symbol(spaces):
    # the relation is an identity of the construction, not of eigenness
    rng = random.Random(12)
    sp = spaces[26]
    psi = sp.symbol([Fraction(rng.randint(-5, 5)) for _ in range(sp.dimension)])
    alpha = PAdic(7, 3, 18)  # any unit works
    assert check_norm_relation(psi, alpha, 7, 1).passed
    assert check_norm_relation(psi, alpha, 7, 2).passed


def test_direct_and_cor_route_elements_agree(eigensymbols, curves):
    alpha = unit_root(curves["26b1"].a_ell(7), 7, 15)
    for n in (0, 1, 2):
        a = stabilized_mazur_tate(eigensymbols["26b1"], alpha, 7, n)
        b = stabilized_mazur_tate_direct(eigensymbols["26b1"], alpha, 7, n)
        assert all((x - y).is_zero_to_precision for x, y in zip(a.coeffs, b.coeffs))


def test_norm_compatibility_and_negative_control(eigensymbols, curves):
    sym = eigensymbols["11a"]
    alpha = unit_root(curves["11a"].a_ell(5), 5, working_precision(3))
    for n in (0, 1, 2):
        assert check_norm_compatibility(sym, alpha, 5, n).passed
    corrupted = PAdic(5, alpha.residue + 5, alpha.precision)  # unit, not a root
    rep = check_norm_compatibility(sym, corrupted, 5, 1)
    assert not rep.passed
    assert rep.min_floor <= 2


def test_interpolation_at_trivial_character(eigensymbols, curves):
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        alpha = unit_root(curves[label].a_ell(p), p, 20)
        assert interpolation_at_trivial_character(eigensymbols[label], alpha, p).passed


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
        check_norm_relation(eigensymbols["11a"], PAdic(5, 1, 5), 5, 0)


def test_tower_scaled_sums_match_the_scaled_symbol(eigensymbols):
    # the tower reads phi|[[p,0],[0,1]] at a/p^(n+1) off the level below;
    # compare with evaluating the scaled symbol at every divisor
    sym, p = eigensymbols["26b1"], 5
    tower = MazurTateTower(sym, p, 2)
    scaled = sym.scaled(p)
    for n in range(3):
        level = GroupLevel(p, n)
        sums = [Fraction(0)] * level.order
        for a in range(1, p ** (n + 1)):
            if a % p:
                sums[level.exponent_of(a)] += scaled.value_infinity_minus(Fraction(a, p ** (n + 1)))
        assert tower.scaled[n].coeffs == tuple(sums)
        assert tower.thetas[n] == mazur_tate(sym, p, n)


def test_tower_serves_every_route_at_any_precision(eigensymbols):
    # one tower, rebuilt at two precisions, as classify does on a retry
    tower = MazurTateTower(eigensymbols["11a"], 5, 3)
    low, high = unit_root(1, 5, 4), unit_root(1, 5, 30)
    for n in range(4):
        coarse, fine = tower.stabilized(low, n), tower.stabilized(high, n)
        assert {c.precision for c in coarse.coeffs} == {4}
        assert {c.precision for c in fine.coeffs} == {30}
        assert coarse == fine  # equal modulo 5^4
    assert all(tower.norm_relation(alpha, n).passed for alpha in (low, high) for n in range(1, 4))
    with pytest.raises(ValueError):
        MazurTateTower(eigensymbols["11a"], 5, -1)
