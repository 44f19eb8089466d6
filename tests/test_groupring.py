import math
import random
from fractions import Fraction

import pytest

from mazurtate import cache, groupring
from mazurtate.elements import MazurTateTower
from mazurtate.errors import NotAGenerator, ZeroElement
from mazurtate.groupring import (
    GroupLevel,
    GroupRingElement,
    _lambda_mod_p,
    invariants_with_generator,
    sum_cancellation_check,
)
from mazurtate.padics import valuation

from .conftest import make_curve, unit_root_inverse


def test_t_basis_of_gamma():
    L = GroupLevel(5, 1)
    gamma = GroupRingElement(L, [0, 1, 0, 0, 0])
    assert gamma.t_coefficients() == [1, 1, 0, 0, 0]


def norm_element(level):
    """The sum of every group element of the layer."""
    return GroupRingElement(level, [1] * level.order)


def test_t_basis_of_norm_element():
    L = GroupLevel(5, 1)
    norm = norm_element(L)
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
    assert F.iwasawa_invariants() == (0, 1)
    G = GroupRingElement.identity(L).scale(5)
    assert G.iwasawa_invariants() == (1, 0)


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
    assert one.corestriction() == norm_element(GroupLevel(5, 1))


def test_projection_composition_identities():
    rng = random.Random(1)
    for _ in range(50):
        p, n = rng.choice([(3, 1), (5, 1), (5, 2), (7, 1)])
        L = GroupLevel(p, n)
        F = GroupRingElement(L, [Fraction(rng.randint(-9, 9)) for _ in range(L.order)])
        assert F.corestriction().project() == F.scale(p)
    norm = norm_element(GroupLevel(5, 1))
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


def one_unit_dlog(a: int, p: int, n: int) -> int:
    """Reference dlog: k with sigma_a = gamma^k on the level-n layer, gamma = sigma_{1+p}.

    a^(p-1) drops the Teichmuller part of a and equals (1+p)^(k(p-1)) mod
    p^(n+1); walk the powers of 1+p to it, then divide by p - 1 mod p^n.
    """
    modulus = p ** (n + 1)
    target = pow(a, p - 1, modulus)
    x = 1
    for j in range(p**n):
        if x == target:
            return j * pow(p - 1, -1, p**n) % p**n
        x = x * (1 + p) % modulus
    raise ValueError(f"{a} is not a unit mod {p}^{n + 1}")


def test_generator_independence_examples():
    L = GroupLevel(5, 2)
    rng = random.Random(3)
    F = GroupRingElement(L, [Fraction(rng.randint(-9, 9), 5 ** rng.randint(0, 1)) for _ in range(25)])
    assert one_unit_dlog(6, 5, 2) == 1
    sigma_11 = one_unit_dlog(11, 5, 2)
    assert sigma_11 == 22  # sigma_11 = gamma^22 generates the 5^2 layer
    for G in (F, GroupRingElement(L, [Fraction(k % 7 - 3, 5) for k in range(25)])):
        base = G.iwasawa_invariants()
        assert invariants_with_generator(G, 2) == base  # gamma' = gamma^2
        assert invariants_with_generator(G, 1) == base
        assert invariants_with_generator(G, sigma_11) == base
    with pytest.raises(NotAGenerator):
        invariants_with_generator(F, 5)
    with pytest.raises(NotAGenerator):
        invariants_with_generator(F, 10)
    with pytest.raises(NotAGenerator):
        invariants_with_generator(F, one_unit_dlog(1 + 25, 5, 2))  # sigma_{1+p^2} does not generate


def layer_units(p: int, n: int):
    """The units mod p^{n+1} by their image in the level-n layer: entry k lists
    omega(b) (1+p)^k mod p^{n+1} for b = 1 .. p - 1, the units sent to gamma^k.

    omega(b) = b^{p^n} mod p^{n+1} is the Teichmuller lift of b, so each unit
    in entry k is sent to gamma^k; no discrete logarithm is taken.  This is
    the indexing elements.walk_levels sums theta_n and S_n by.
    """
    modulus = p ** (n + 1)
    lifts = [pow(b, p**n, modulus) for b in range(1, p)]
    out = []
    g = 1
    for _ in range(p**n):
        out.append([w * g % modulus for w in lifts])
        g = g * (1 + p) % modulus
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(5))
def test_layer_units_walk_the_units_in_generator_order(p, n):
    units = layer_units(p, n)
    assert len(units) == p**n and all(len(us) == p - 1 for us in units)
    assert sorted(a for us in units for a in us) == [a for a in range(p ** (n + 1)) if a % p]
    assert all(one_unit_dlog(a, p, n) == k for k, us in enumerate(units) for a in us)


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


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        GroupRingElement(GroupLevel(3, 2), [Fraction(1)] * 3)


# -- the invariants against the full-shift route --


def full_shift_invariants(F):
    """Reference route: mu and lambda read off every exact T-coefficient."""
    if F.is_zero():
        raise ZeroElement("invariants of the zero element are undefined")
    tc = F.t_coefficients()
    vals = [valuation(c, F.level.p) for c in tc]
    mu = min(vals)
    return (int(mu), vals.index(mu))


def outcome(invariants, F):
    try:
        return invariants(F)
    except ZeroElement as exc:
        return (type(exc), str(exc))


def assert_same_as_full_shift(F):
    new = outcome(lambda G: G.iwasawa_invariants(), F)
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
    assert_same_as_full_shift(norm_element(L))


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
    # p-adic residues mod p^prec, held as integer lifts over a denominator
    # prime to p: while they are not all 0, every lift has the invariants of
    # the residues, which is what the stabilized elements' lifts rely on
    rng = random.Random(p * 1000 + n)
    L = GroupLevel(p, n)
    for trial in range(20):
        prec, den = rng.randint(1, 6), rng.choice([1, 2, 13, 16])
        m = p**prec
        low = prec - 1 if trial % 4 == 0 else 0  # every residue divisible by p^(prec-1)
        residues = [0 if rng.random() < 0.3 else p ** rng.randint(low, prec - 1) * rng.randrange(1, m) % m
                    for _ in range(L.order)]
        if not any(residues):
            residues[-1] = p ** (prec - 1)
        lifts = [r + m * rng.randint(-p**3, p**3) for r in residues]
        F = GroupRingElement(L, [Fraction(r, den) for r in residues])
        assert assert_same_as_full_shift(F) == assert_same_as_full_shift(
            GroupRingElement(L, [Fraction(b, den) for b in lifts]))
        assert F.iwasawa_invariants().mu < prec
    assert outcome(lambda G: G.iwasawa_invariants(), GroupRingElement.zero(L)) == (
        ZeroElement, "invariants of the zero element are undefined")


# (curve, p, n_max): the towers the benchmark runs, and 50b1 at the p = 3 depth of the level ladder
FIXTURE_TOWERS = [("11a", 5, 5), ("11a", 3, 7), ("26b1", 7, 3), ("174b1", 5, 4), ("174b1", 7, 3), ("50b1", 3, 5)]


@pytest.mark.parametrize("label, p, n_max", FIXTURE_TOWERS)
def test_fixture_tower_invariants_match_full_shift(label, p, n_max, monkeypatch):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    curve = make_curve(label)
    sym, _ = cache.load_symbol(curve, "neron")
    tower = MazurTateTower(sym, p, n_max)
    inverse = unit_root_inverse(curve.a_ell(p), p, tower.stabilized_precision(curve.a_ell(p)))
    for n in range(n_max + 1):
        assert_same_as_full_shift(tower.thetas[n])
        assert_same_as_full_shift(tower.stabilized(inverse, n))


def test_invariants_never_take_the_exact_shift(monkeypatch):
    L = GroupLevel(5, 2)
    elements = [
        GroupRingElement(L, [Fraction(k % 7 - 3, 5) for k in range(25)]),
        norm_element(L),
        GroupRingElement(L, [5 * k + 5 for k in range(25)]),
    ]
    expected = [full_shift_invariants(F) for F in elements]

    def refuse(coeffs):
        raise AssertionError("the exact Taylor shift was called")

    monkeypatch.setattr(groupring, "_taylor_shift_by_one", refuse)
    assert [F.iwasawa_invariants() for F in elements] == expected
    with pytest.raises(AssertionError):
        elements[0].t_coefficients()


# -- lambda by digit descent against the full shift mod p --


def taylor_shift_mod_p(coeffs, p):
    """Reference: coefficients of f(x+1) mod p from those of f(x), for len(coeffs) = p^n.

    By Lucas's theorem the shift is one p-point shift per base-p digit: each
    pass applies Horner's scheme mod p to every block of p consecutive
    entries, then lists the entries lowest digit first (the slices c[j::p]),
    which rotates the digits one place; after n passes every digit has been
    shifted once and the order is restored.
    """
    c = [x % p for x in coeffs]
    m = len(c)
    while m > 1:
        m //= p
        for start in range(0, len(c), p):
            for i in range(start, start + p - 1):
                for j in range(start + p - 2, i - 1, -1):
                    c[j] = (c[j] + c[j + 1]) % p
        c = [x for j in range(p) for x in c[j::p]]
    return c


def times_x_minus_one_power(a, b, j, k, m, p):
    """(x - 1)^k (a + b x^j) mod p as m coefficients, for j + k < m.

    (x - 1)^k = prod_d (x^(p^d) - 1)^(k_d) mod p over the base-p digits k_d of k.
    """
    c = [0] * m
    c[0] += a
    c[j] += b
    step = 1
    while k:
        for _ in range(k % p):
            c = [((c[i - step] if i >= step else 0) - c[i]) % p for i in range(m)]
        k //= p
        step *= p
    return c


DESCENT_ORDERS = [(p, n) for p in (3, 5, 7, 11) for n in range(1, 8) if p**n <= 3125]


def descent_inputs(p, n):
    """Coefficient lists of order p^n, none all divisible by p, with the lambda each must have
    (None where only the full shift knows it)."""
    rng = random.Random(p**n)
    m = p**n
    cases = []
    for _ in range(6):  # random elements
        c = [rng.randrange(p) for _ in range(m)]
        c[rng.randrange(m)] = rng.randrange(1, p)
        cases.append((c, None))
    for k in sorted({0, 1, m // 2, m - 2, m - 1, rng.randrange(m), rng.randrange(m)}):
        a, b = rng.randrange(p), rng.randrange(1, p)
        a += (a + b) % p == 0  # a + b x^j is a unit at x = 1, so lambda((x - 1)^k (a + b x^j)) = k
        cases.append((times_x_minus_one_power(a, b, rng.randrange(m - k), k, m, p), k))
    for j in sorted({0, 1, m - 1, rng.randrange(m)}):  # monomials: lambda(x^j) = 0
        cases.append(([rng.randrange(1, p) if i == j else 0 for i in range(m)], 0))
    # the norm element (x - 1)^(m - 1) mod p and its multiples, unreduced too: maximal lambda
    cases += [([1] * m, m - 1), ([rng.randrange(1, p)] * m, m - 1), ([p * rng.randint(-5, 5) + 2] * m, m - 1)]
    return cases


def test_descent_inputs_are_many_and_of_every_kind():
    cases = [case for p, n in DESCENT_ORDERS for case in descent_inputs(p, n)]
    assert len(cases) >= 270
    orders = [p**n for p, n in DESCENT_ORDERS]
    assert (min(orders), max(orders)) == (3, 3125)
    assert {lam for _, lam in cases} >= {None, 0} | {p**n - 1 for p, n in DESCENT_ORDERS}


@pytest.mark.parametrize("p, n", DESCENT_ORDERS)
def test_lambda_by_digit_descent_matches_the_full_shift(p, n):
    for c, lam in descent_inputs(p, n):
        shifted = taylor_shift_mod_p(c, p)
        expected = next(k for k, a in enumerate(shifted) if a)
        assert lam is None or lam == expected
        assert _lambda_mod_p(c, p) == expected


# -- from_t_coefficients against the binomial formula --


def binomial_from_t_coefficients(level, t_coeffs):
    """Reference inverse transform: T^k = sum_j C(k, j) (-1)^(k - j) gamma^j."""
    m = level.order
    coeffs = []
    for j in range(m):
        acc = sum(((-1) ** (k - j)) * math.comb(k, j) * t_coeffs[k] for k in range(j, m) if t_coeffs[k])
        coeffs.append(acc if acc else Fraction(0))
    return GroupRingElement(level, coeffs)


SMALL_LEVELS = [(p, n) for p in (3, 5, 7, 11) for n in range(4) if p**n <= 125]


@pytest.mark.parametrize("p, n", SMALL_LEVELS)
def test_from_t_coefficients_matches_binomial_formula(p, n):
    rng = random.Random(p * 7 + n)
    L = GroupLevel(p, n)
    for _ in range(10):
        t = [random_rational(rng, p) for _ in range(L.order)]
        assert GroupRingElement.from_t_coefficients(L, t) == binomial_from_t_coefficients(L, t)


@pytest.mark.parametrize("p, n", SMALL_LEVELS)
def test_padic_from_t_coefficients_matches_binomial_formula(p, n):
    # residues mod p^prec in, residues out: the transform is unitriangular
    # over Z, so any integer lift of the T-coefficients gives a lift of the
    # gamma-coefficients
    rng = random.Random(p * 11 + n)
    L = GroupLevel(p, n)
    for _ in range(10):
        prec = rng.randint(1, 6)
        m = p**prec
        t = [rng.randrange(m) if rng.random() < 0.7 else 0 for _ in range(L.order)]
        new = GroupRingElement.from_t_coefficients(L, [c + m * rng.randint(-9, 9) for c in t])
        old = binomial_from_t_coefficients(L, t)
        assert new.den == old.den == 1
        assert [b % m for b in new.ints] == [b % m for b in old.ints]


@pytest.mark.parametrize("length", [8, 10])
def test_from_t_coefficients_wrong_length_rejected(length):
    with pytest.raises(ValueError):
        GroupRingElement.from_t_coefficients(GroupLevel(3, 2), [Fraction(1)] * length)


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (5, 3)])
def test_from_t_coefficients_is_linear(p, n):
    # the sum-cancellation suite builds F2 = from_t(d) - F1 instead of from_t(-t(F1) + d)
    rng = random.Random(p * 13 + n)
    L = GroupLevel(p, n)
    for _ in range(10):
        F = GroupRingElement(L, [random_rational(rng, p) for _ in range(L.order)])
        d = [0] * L.order
        for j in rng.sample(range(L.order), 2):
            d[j] = rng.choice([1, 2, -1, p + 1]) * Fraction(p) ** rng.randint(-2, 2)
        assert GroupRingElement.from_t_coefficients(L, d) - F == GroupRingElement.from_t_coefficients(
            L, [-c + e for c, e in zip(F.t_coefficients(), d)])


def test_constructor_keeps_fractions_and_converts_other_rationals():
    half = Fraction(1, 2)
    F = GroupRingElement(GroupLevel(3, 1), [half, 2, 0.25])
    assert all(type(c) is Fraction for c in F.coeffs)
    assert F.coeffs == (half, Fraction(2), Fraction(1, 4))


# -- the integer form against coefficient-wise Fraction arithmetic --


def typed(coeffs):
    """Coefficients with their types: a GroupRingElement gives back Fractions."""
    return [(type(c), c) for c in coeffs]


def outcome_of(operation):
    """An operation's result in a comparable form, or the error it raised.

    An element or a list compares by its coefficients, a tuple as it is, and a
    single Fraction as a list of one.
    """
    try:
        value = operation()
    except (ValueError, ZeroElement) as exc:
        return (type(exc), str(exc))
    if isinstance(value, GroupRingElement):
        assert_canonical(value)
        return typed(value.coeffs)
    if isinstance(value, tuple):
        return value
    return typed(value if isinstance(value, list) else [value])


def assert_canonical(F):
    assert F.den > 0 and math.gcd(F.den, *F.ints) == 1
    assert type(F.ints) is tuple and len(F.ints) == F.level.order


def random_coefficients(rng, L, padic):
    """Random rationals, or (padic) integer lifts of residues mod p^prec, as Fractions."""
    p = L.p
    if not padic:
        return [random_rational(rng, p) for _ in range(L.order)]
    coeffs = []
    for _ in range(L.order):
        prec = rng.randint(1, 6)
        r = 0 if rng.random() < 0.2 else p ** rng.randint(0, prec) * rng.randint(1, p**prec)
        coeffs.append(Fraction(r))
    return coeffs


def random_scalar(rng, p):
    """A random rational, or an integer lift of a residue mod p^prec, as a stabilized element scales by."""
    if rng.random() < 0.5:
        return random_rational(rng, p)
    return rng.randrange(p ** rng.randint(1, 8))


def reference_t_coefficients(coeffs):
    """a_k = sum_i C(i, k) c_i, coefficient by coefficient."""
    m = len(coeffs)
    return [sum((math.comb(i, k) * coeffs[i] for i in range(k + 1, m)), coeffs[k]) for k in range(m)]


def reference_invariants(coeffs, p):
    """(mu, lambda) read off every T-coefficient of reference_t_coefficients."""
    tc = reference_t_coefficients(coeffs)
    vals = [valuation(c, p) for c in tc]
    mu = min(vals)
    if mu == math.inf:
        raise ZeroElement("invariants of the zero element are undefined")
    return (mu, vals.index(mu))


DIFFERENTIAL_LEVELS = [(3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1)]


# padic: integer lifts of p-adic residues, the form of the stabilized elements
@pytest.mark.parametrize("padic", [False, True], ids=["exact", "padic"])
@pytest.mark.parametrize("p, n", DIFFERENTIAL_LEVELS)
def test_integer_form_matches_coefficientwise_arithmetic(p, n, padic):
    rng = random.Random(p * 100 + n * 10 + padic)
    L = GroupLevel(p, n)
    m = L.order
    for _ in range(12):
        a, b = random_coefficients(rng, L, padic), random_coefficients(rng, L, padic)
        F, G = GroupRingElement(L, a), GroupRingElement(L, b)
        assert_canonical(F)
        assert typed(F.coeffs) == typed(a)
        s = random_scalar(rng, p)
        t = rng.choice([u for u in range(1, 2 * m + 2) if u % p])
        pairs = [
            (lambda: F + G, lambda: [x + y for x, y in zip(a, b)]),
            (lambda: F - G, lambda: [x - y for x, y in zip(a, b)]),
            (lambda: -F, lambda: [-x for x in a]),
            (lambda: F.scale(s), lambda: [s * x for x in a]),
            (lambda: F.corestriction(), lambda: a * p),
            (lambda: F.reindexed_by_generator_power(t), lambda: [a[j * t % m] for j in range(m)]),
            (lambda: GroupRingElement.from_t_coefficients(L, a),
             lambda: [sum((-1) ** (k - j) * math.comb(k, j) * a[k] for k in range(j, m)) for j in range(m)]),
            (lambda: F.augmentation(), lambda: sum(a[1:], a[0])),
            (lambda: F.t_coefficients(), lambda: reference_t_coefficients(a)),
            (lambda: F.iwasawa_invariants(), lambda: reference_invariants(a, p)),
        ]
        if n:
            stride = m // p
            pairs.append((lambda: F.project(), lambda: [sum(a[j + stride:m:stride], a[j]) for j in range(stride)]))
        for result, reference in pairs:
            assert outcome_of(result) == outcome_of(reference)


def test_stabilized_invariants_build_no_padic_per_coefficient(monkeypatch):
    # a stabilized element is integer arithmetic on the tower's ints: building
    # it and reading its invariants makes no p-adic number and at most one
    # Fraction (the scalar of scale), at any layer size
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    curve = make_curve("11a")
    sym, _ = cache.load_symbol(curve, "neron")
    tower = MazurTateTower(sym, 5, 3)
    inverse = unit_root_inverse(curve.a_ell(5), 5, tower.stabilized_precision(curve.a_ell(5)))
    expected_invariants = [full_shift_invariants(tower.stabilized(inverse, n)) for n in range(4)]
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(groupring, "Fraction", counted)
    for n in range(4):
        built.clear()
        F = tower.stabilized(inverse, n)
        assert F.iwasawa_invariants() == expected_invariants[n]
        assert len(built) <= 1 and all(type(b) is int for b in F.ints)
