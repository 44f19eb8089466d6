"""Synthetic towers for the abstract maximality statement.

A sequence {theta_n} with (1) mu bounded below, (2) theta_n - alpha^{-1}
cor(theta_{n-1}) integral for a unit alpha, and (3) mu(theta_n) < 0 somewhere
must have mu(theta_n) = mu(theta_0) < 0 and lambda(theta_n) = p^n - 1 at
every level.  This module builds random sequences satisfying the hypotheses
by construction (choose the integral increments freely and unroll), verifies
the conclusion exactly, and confirms that nothing is asserted for
hypothesis-violating sequences.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .groupring import GroupLevel, GroupRingElement
from .records import Record


class TowerCase(Record, frozen=True):
    p: int
    alpha: Fraction          # unit rational standing in for the p-adic unit
    sequence: tuple          # GroupRingElement per level 0..n_max
    hypotheses_met: bool


class TowerSuiteReport(Record):
    p: int
    n_max: int
    cases: int = 0
    applicable: int = 0
    violations: int = 0
    false_assertions: int = 0

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.false_assertions == 0


def _random_unit(p: int, rng) -> Fraction:
    num = rng.randrange(1, 50)
    den = rng.randrange(1, 50)
    while num % p == 0:
        num += 1
    while den % p == 0:
        den += 1
    return Fraction(num, den)


def _random_integral(level: GroupLevel, rng) -> GroupRingElement:
    return GroupRingElement(level, [Fraction(rng.randint(-9, 9)) for _ in range(level.order)])


def make_admissible_tower(p: int, n_max: int, rng, depth: int | None = None) -> TowerCase:
    """Random sequence with integral stabilized increments and mu(theta_0) < 0."""
    t = depth if depth is not None else rng.randint(1, 3)
    alpha = _random_unit(p, rng)
    level0 = GroupLevel(p, 0)
    u = rng.randrange(1, p)
    theta = GroupRingElement(level0, [Fraction(u, p**t)])
    seq = [theta]
    for n in range(1, n_max + 1):
        increment = _random_integral(GroupLevel(p, n), rng)
        theta = increment + theta.corestriction().scale(1 / alpha)
        seq.append(theta)
    return TowerCase(p, alpha, tuple(seq), True)


def make_plain_tower(p: int, n_max: int, rng) -> TowerCase:
    """All-integral sequence: the negative-mu hypothesis fails by design."""
    seq = [_random_integral(GroupLevel(p, n), rng) for n in range(n_max + 1)]
    return TowerCase(p, _random_unit(p, rng), tuple(seq), False)


class TowerVerdict(Record, frozen=True):
    applicable: bool          # hypotheses (integral increments, some mu < 0) hold
    conclusion_holds: bool | None


def check_tower(case: TowerCase) -> TowerVerdict:
    """Decide applicability from the data alone, then verify the conclusion."""
    p = case.p
    seq = case.sequence
    increments = (seq[n] - seq[n - 1].corestriction().scale(1 / case.alpha) for n in range(1, len(seq)))
    increments_integral = all(d.den % p for d in increments)
    invs = [None if theta.is_zero() else theta.iwasawa_invariants() for theta in seq]
    some_negative = any(inv is not None and inv.mu < 0 for inv in invs)
    if not (increments_integral and some_negative):
        return TowerVerdict(False, None)
    # with alpha a unit, integral increments would make every level integral
    # if one were zero; a zero level (alpha not a unit) has no invariants, so
    # the conclusion fails there
    if None in invs:
        return TowerVerdict(True, False)
    mu0 = invs[0].mu
    holds = all(inv.mu == mu0 and inv.lam == p**n - 1 for n, inv in enumerate(invs))
    return TowerVerdict(True, holds)


def run_tower_suite(p: int, n_max: int, count: int, seed: int = 0) -> TowerSuiteReport:
    """Random admissible towers must satisfy the conclusion with no exception;
    hypothesis-violating towers must never be flagged as applicable."""
    rng = random.Random(seed)
    report = TowerSuiteReport(p, n_max)
    for _ in range(count):
        case = make_admissible_tower(p, n_max, rng)
        verdict = check_tower(case)
        report.cases += 1
        if verdict.applicable:
            report.applicable += 1
            if not verdict.conclusion_holds:
                report.violations += 1
        else:
            report.violations += 1  # admissible-by-construction must be applicable
    for _ in range(count // 4 or 1):
        case = make_plain_tower(p, n_max, rng)
        verdict = check_tower(case)
        report.cases += 1
        if verdict.applicable:
            # an all-integral tower has mu >= 0 everywhere; claiming the
            # hypotheses hold for it would be a checker bug
            report.false_assertions += 1
    return report
