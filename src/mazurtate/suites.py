"""Randomized property suites for the group-ring layer.

Each suite draws deterministic pseudo-random elements, checks one exact law,
and reports (cases, violations).  They back both the CLI self-test and the
acceptance tests.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .groupring import GroupLevel, GroupRingElement, invariants_with_generator, sum_cancellation_check
from .records import Record

SUITE_PARAMS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


class SuiteResult(Record):
    name: str
    cases: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_element(level: GroupLevel, rng, p_power: int = 2) -> GroupRingElement:
    p = level.p
    coeffs = []
    for _ in range(level.order):
        num = rng.randint(-30, 30)
        coeffs.append(Fraction(num, p ** rng.randint(0, p_power)))
    return GroupRingElement(level, coeffs)


def corestriction_law_suite(cases_per_pair: int, seed: int = 0) -> SuiteResult:
    """mu(cor F) = mu(F) and lambda(cor F) = p^n - p^{n-1} + lambda(F)."""
    rng = random.Random(seed)
    cases = violations = 0
    for p, n in SUITE_PARAMS:
        level = GroupLevel(p, n - 1)
        for _ in range(cases_per_pair):
            F = _random_element(level, rng)
            if F.is_zero():
                continue
            cases += 1
            a = F.iwasawa_invariants()
            b = F.corestriction().iwasawa_invariants()
            if not (b.mu == a.mu and b.lam == p**n - p ** (n - 1) + a.lam):
                violations += 1
    return SuiteResult("corestriction invariants", cases, violations)


def projection_mu_suite(cases_per_pair: int, seed: int = 0) -> SuiteResult:
    """Integral F with mu(project F) = 0 must have mu(F) = 0."""
    rng = random.Random(seed)
    cases = violations = 0
    for p, n in SUITE_PARAMS:
        level = GroupLevel(p, n)
        for _ in range(cases_per_pair):
            coeffs = [Fraction(rng.randint(-20, 20) * p ** rng.randint(0, 1)) for _ in range(level.order)]
            F = GroupRingElement(level, coeffs)
            if F.is_zero() or F.project().is_zero():
                continue
            if F.project().iwasawa_invariants().mu != 0:
                continue
            cases += 1
            if F.iwasawa_invariants().mu != 0:
                violations += 1
    return SuiteResult("projection mu transfer", cases, violations)


def stabilization_identity_suite(cases_per_pair: int, seed: int = 0) -> SuiteResult:
    """project(cor F) = p F and cor distributes over the layer maps linearly."""
    rng = random.Random(seed)
    cases = violations = 0
    for p, n in SUITE_PARAMS:
        level = GroupLevel(p, n - 1)
        for _ in range(cases_per_pair):
            F = _random_element(level, rng)
            G = _random_element(level, rng)
            cases += 1
            lhs = (F + G).corestriction()
            rhs = F.corestriction() + G.corestriction()
            if lhs != rhs or F.corestriction().project() != F.scale(p):
                violations += 1
    return SuiteResult("corestriction linearity / projection composite", cases, violations)


def sum_cancellation_suite(cases: int, seed: int = 0) -> SuiteResult:
    """Whenever lambda drops under addition, mu rises and the inputs matched.

    Hypothesis-meeting pairs are built directly: F2 = P - F1, where P has
    T-coefficients of valuation mu+1 placed before lambda(F1) only, so the
    sum's leading term moves left while mu goes up.
    """
    rng = random.Random(seed)
    met = violations = tried = 0
    while met < cases and tried < cases * 20:
        tried += 1
        p, n = rng.choice(SUITE_PARAMS)
        level = GroupLevel(p, n)
        F1 = _random_element(level, rng, p_power=1)
        if F1.is_zero():
            continue
        inv1 = F1.iwasawa_invariants()
        if rng.random() < 0.8 and inv1.lam >= 1:
            perturbation = [0] * level.order
            j0 = rng.randrange(inv1.lam)
            for j in {j0, rng.randrange(inv1.lam)}:
                u = rng.choice([1, 2, -1, p + 1])
                perturbation[j] += u * Fraction(p) ** (inv1.mu + 1)
            F2 = GroupRingElement.from_t_coefficients(level, perturbation) - F1
        else:
            F2 = _random_element(level, rng, p_power=1)
        if F2.is_zero() or (F1 + F2).is_zero():
            continue
        rep = sum_cancellation_check(F1, F2)
        if not rep.hypothesis_met:
            continue
        met += 1
        if not rep.conclusion_holds:
            violations += 1
    return SuiteResult("sum cancellation law", met, violations)


def generator_independence_suite(cases: int, seed: int = 0) -> SuiteResult:
    """(mu, lambda) agree for every generator gamma^t of the layer (p^n <= 125)."""
    rng = random.Random(seed)
    done = violations = 0
    params = [(p, n) for p, n in SUITE_PARAMS if p**n <= 125]
    while done < cases:
        p, n = rng.choice(params)
        level = GroupLevel(p, n)
        F = _random_element(level, rng)
        if F.is_zero():
            continue
        done += 1
        base = F.iwasawa_invariants().as_tuple()
        for t in range(1, level.order):
            if math.gcd(t, p) != 1:
                continue
            if invariants_with_generator(F, t).as_tuple() != base:
                violations += 1
                break
    return SuiteResult("generator independence", done, violations)


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


def make_admissible_tower(p: int, n_max: int, rng, depth: int | None = None):
    """(alpha, sequence): integral stabilized increments and mu(theta_0) < 0."""
    t = depth if depth is not None else rng.randint(1, 3)
    alpha = _random_unit(p, rng)
    seq = [GroupRingElement(GroupLevel(p, 0), [Fraction(rng.randrange(1, p), p**t)])]
    for n in range(1, n_max + 1):
        seq.append(_random_integral(GroupLevel(p, n), rng) + seq[-1].corestriction().scale(1 / alpha))
    return alpha, tuple(seq)


def make_plain_tower(p: int, n_max: int, rng):
    """(alpha, sequence), all integral: the negative-mu hypothesis fails by design."""
    seq = [_random_integral(GroupLevel(p, n), rng) for n in range(n_max + 1)]
    return _random_unit(p, rng), tuple(seq)


def check_tower(p: int, alpha: Fraction, seq) -> bool | None:
    """None if the hypotheses (integral increments, some mu < 0) fail, decided
    from the data alone; otherwise whether the conclusion holds."""
    increments = (seq[n] - seq[n - 1].corestriction().scale(1 / alpha) for n in range(1, len(seq)))
    invs = [None if theta.is_zero() else theta.iwasawa_invariants() for theta in seq]
    if not (all(d.den % p for d in increments) and any(inv is not None and inv.mu < 0 for inv in invs)):
        return None
    # with alpha a unit, integral increments would make every level integral
    # if one were zero; a zero level (alpha not a unit) has no invariants, so
    # the conclusion fails there
    return None not in invs and all(inv.mu == invs[0].mu and inv.lam == p**n - 1 for n, inv in enumerate(invs))


def tower_suite(p: int, count: int, seed: int = 0) -> SuiteResult:
    """The abstract maximality statement on random towers to level 3.

    A sequence {theta_n} with (1) mu bounded below, (2) theta_n - alpha^-1
    cor(theta_(n-1)) integral for a unit alpha and (3) mu(theta_n) < 0
    somewhere has mu(theta_n) = mu(theta_0) < 0 and lambda(theta_n) = p^n - 1
    at every level.  Each of count towers built to meet the hypotheses (the
    integral increments chosen freely and unrolled) must be applicable and
    meet the conclusion; none of count // 4 all-integral towers may be
    flagged as applicable.
    """
    rng = random.Random(seed)
    violations = sum(not check_tower(p, *make_admissible_tower(p, 3, rng)) for _ in range(count))
    plain = count // 4 or 1
    # an all-integral tower has mu >= 0 everywhere; claiming the hypotheses
    # hold for it would be a checker bug
    violations += sum(check_tower(p, *make_plain_tower(p, 3, rng)) is not None for _ in range(plain))
    return SuiteResult(f"synthetic towers p={p}", count + plain, violations)


def run_all_suites(cases_per_pair: int = 500, seed: int = 0):
    """The full randomized battery, deterministic in the seed."""
    return [
        corestriction_law_suite(cases_per_pair, seed),
        projection_mu_suite(cases_per_pair, seed + 1),
        stabilization_identity_suite(max(100, cases_per_pair // 5), seed + 2),
        sum_cancellation_suite(max(500, cases_per_pair), seed + 3),
        generator_independence_suite(max(500, cases_per_pair), seed + 4),
        tower_suite(3, 100, seed + 3),
        tower_suite(5, 100, seed + 5),
    ]
