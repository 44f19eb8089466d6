import random
from fractions import Fraction

from mazurtate.groupring import GroupLevel, GroupRingElement
from mazurtate.suites import check_tower, make_admissible_tower, make_plain_tower, tower_suite


def test_pure_corestriction_tower():
    # theta_0 = p^{-1} sigma_1, all stabilized increments zero, alpha = 1
    theta = GroupRingElement(GroupLevel(5, 0), [Fraction(1, 5)])
    seq = [theta]
    for _ in range(3):
        theta = theta.corestriction()
        seq.append(theta)
    assert check_tower(5, Fraction(1), tuple(seq)) is True
    for n, el in enumerate(seq):
        inv = el.iwasawa_invariants()
        assert inv.mu == -1
        assert inv.lam == 5**n - 1


def test_admissible_towers_have_negative_constant_mu():
    rng = random.Random(4)
    _, seq = make_admissible_tower(3, 3, rng, depth=2)
    mu0 = seq[0].iwasawa_invariants().mu
    assert mu0 == -2
    for n, el in enumerate(seq):
        inv = el.iwasawa_invariants()
        assert inv.mu == mu0
        assert inv.lam == 3**n - 1


def test_plain_towers_not_applicable():
    rng = random.Random(5)
    for _ in range(20):
        alpha, seq = make_plain_tower(5, 2, rng)
        assert check_tower(5, alpha, seq) is None


def test_suite_200_admissible_sequences_zero_violations():
    # 100 admissible towers and 25 plain ones for each p; an admissible tower
    # that is not applicable counts as a violation, so all 200 are applicable
    for p in (3, 5):
        result = tower_suite(p, 100, seed=7)
        assert (result.cases, result.violations) == (125, 0)


def test_non_unit_alpha_breaks_the_conclusion():
    # alpha = 5 is not a unit: theta_1 = cor(theta_0)/5 has integral increment
    # and mu(theta_1) = -2 != mu(theta_0) = -1, so the checker must say so
    theta0 = GroupRingElement(GroupLevel(5, 0), [Fraction(1, 5)])
    theta1 = theta0.corestriction().scale(Fraction(1, 5))
    assert check_tower(5, Fraction(5), (theta0, theta1)) is False


def test_zero_level_fails_the_conclusion():
    # theta_0 = 0, theta_1 = 1, theta_2 = cor(theta_1)/5 with alpha = 5: the
    # increments are integral and mu(theta_2) = -1, but level 0 is zero
    theta0 = GroupRingElement(GroupLevel(5, 0), [Fraction(0)])
    theta1 = GroupRingElement(GroupLevel(5, 1), [Fraction(1)] + [Fraction(0)] * 4)
    theta2 = theta1.corestriction().scale(Fraction(1, 5))
    assert theta2.iwasawa_invariants().mu == -1
    assert check_tower(5, Fraction(5), (theta0, theta1, theta2)) is False
