import random
from fractions import Fraction

from mazurtate.groupring import GroupLevel, GroupRingElement
from mazurtate.synthetic import (
    TowerCase,
    TowerVerdict,
    check_tower,
    make_admissible_tower,
    make_plain_tower,
    run_tower_suite,
)


def test_pure_corestriction_tower():
    # theta_0 = p^{-1} sigma_1, all stabilized increments zero, alpha = 1
    theta = GroupRingElement(GroupLevel(5, 0), [Fraction(1, 5)])
    seq = [theta]
    for _ in range(3):
        theta = theta.corestriction()
        seq.append(theta)
    case = TowerCase(5, Fraction(1), tuple(seq), True)
    verdict = check_tower(case)
    assert verdict.applicable and verdict.conclusion_holds
    for n, el in enumerate(seq):
        inv = el.iwasawa_invariants()
        assert inv.mu == -1
        assert inv.lam == 5**n - 1


def test_admissible_towers_have_negative_constant_mu():
    rng = random.Random(4)
    case = make_admissible_tower(3, 3, rng, depth=2)
    mu0 = case.sequence[0].iwasawa_invariants().mu
    assert mu0 == -2
    for n, el in enumerate(case.sequence):
        inv = el.iwasawa_invariants()
        assert inv.mu == mu0
        assert inv.lam == 3**n - 1


def test_plain_towers_not_applicable():
    rng = random.Random(5)
    for _ in range(20):
        case = make_plain_tower(5, 2, rng)
        verdict = check_tower(case)
        assert not verdict.applicable
        assert verdict.conclusion_holds is None


def test_suite_200_admissible_sequences_zero_violations():
    total_admissible = 0
    for p in (3, 5):
        report = run_tower_suite(p, 3, 100, seed=7)
        assert report.violations == 0 and report.false_assertions == 0
        total_admissible += report.applicable
    assert total_admissible == 200


def test_non_unit_alpha_breaks_the_conclusion():
    # alpha = 5 is not a unit: theta_1 = cor(theta_0)/5 has integral increment
    # and mu(theta_1) = -2 != mu(theta_0) = -1, so the checker must say so
    theta0 = GroupRingElement(GroupLevel(5, 0), [Fraction(1, 5)])
    theta1 = theta0.corestriction().scale(Fraction(1, 5))
    verdict = check_tower(TowerCase(5, Fraction(5), (theta0, theta1), True))
    assert verdict == TowerVerdict(True, False)


def test_zero_level_fails_the_conclusion():
    # theta_0 = 0, theta_1 = 1, theta_2 = cor(theta_1)/5 with alpha = 5: the
    # increments are integral and mu(theta_2) = -1, but level 0 is zero
    theta0 = GroupRingElement(GroupLevel(5, 0), [Fraction(0)])
    theta1 = GroupRingElement(GroupLevel(5, 1), [Fraction(1)] + [Fraction(0)] * 4)
    theta2 = theta1.corestriction().scale(Fraction(1, 5))
    assert theta2.iwasawa_invariants().mu == -1
    verdict = check_tower(TowerCase(5, Fraction(5), (theta0, theta1, theta2), True))
    assert verdict == TowerVerdict(True, False)
