import functools
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from mazurtate import cache
from mazurtate.cusps import CuspClassTable
from mazurtate.errors import LevelTooLarge
from mazurtate.linalg import echelon
from mazurtate.modsym import (
    INFINITY,
    ManinSymbolSpace,
    P1List,
    ModularSymbol,
    _involution,
    _relations,
    as_cusp,
    build_space,
    cusp_count,
    genus_x0,
    plus_dimension,
    psi_index,
    quotient_basis,
    quotient_dimension,
)

from .conftest import (Scaled, act, divisor_value, involution, involution_matrix, make_curve, relation_actions,
                       sign_parts, zero_symbol)


def random_gamma0(N, rng, steps=8):
    """Random word in the standard parabolic generators of Gamma_0(N)."""
    m = (1, 0, 0, 1)
    for _ in range(steps):
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            g = (1, k, 0, 1)
        else:
            k = rng.randint(-2, 2)
            g = (1, 0, k * N, 1)
        a, b, c, d = m
        e, f, gg, h = g
        m = (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)
    return m


def rank_mod_q(rows, ncols, q):
    """Row rank over F_q by plain elimination; independent of the Q path."""
    mat = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [x * inv % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def full_relation_matrix(N, plus=False):
    """The raw two- and three-term relation rows on P^1(Z/N), and with plus the rows x - x.J."""
    p1 = P1List(N)
    m = len(p1)
    idx = p1.index
    rows = []
    for i, (c, d) in enumerate(p1):
        row = [0] * m
        row[i] += 1
        row[idx(d, -c)] += 1
        rows.append(row)
        row = [0] * m
        row[i] += 1
        row[idx(d, -c - d)] += 1
        row[idx(-c - d, c)] += 1
        rows.append(row)
        if plus:
            row = [0] * m
            row[i] += 1
            row[idx(-c, d)] -= 1
            rows.append(row)
    return rows, m


@pytest.mark.parametrize("N,expected_dim", [(11, 3), (1, 0), (26, 7)])
def test_dimension_against_independent_rank(N, expected_dim):
    space = build_space(N, plus=False)
    assert space.dimension == expected_dim
    rows, m = full_relation_matrix(N)
    # oracle: rank of the raw relation matrix over two large prime fields
    for q in (1000003, 999983):
        assert m - rank_mod_q(rows, m, q) == expected_dim


@pytest.mark.parametrize("N,expected_dim", [(11, 2), (1, 0), (26, 5), (50, 9)])
def test_plus_dimension_against_independent_rank(N, expected_dim):
    space = build_space(N)
    assert space.dimension == expected_dim
    rows, m = full_relation_matrix(N, plus=True)
    for q in (1000003, 999983):
        assert m - rank_mod_q(rows, m, q) == expected_dim


def test_dimension_formula_for_all_levels_up_to_60_and_samples():
    for N in list(range(1, 61)) + [89, 98, 100, 121, 144, 174, 200]:
        space = build_space(N, plus=False)
        expected = 2 * genus_x0(N) + cusp_count(N) - 1 if N > 1 else 0
        assert space.dimension == expected


def j_orbits_on_cusp_classes(N):
    """Orbits of r -> -r on the cusp classes, by classifying the representatives."""
    table = CuspClassTable(N)
    return len({frozenset((k, table.classify((-a, c)))) for k, (a, c) in enumerate(table.representatives)})


def test_plus_dimension_formula_for_all_levels_below_300():
    # g + c_J - 1 is the plus build's dimension and that of the +1 part of J
    # on the full quotient, whose rank of J - 1 is taken exactly over Q
    for N in range(1, 300):
        full = build_space(N, plus=False)
        expected = genus_x0(N) + j_orbits_on_cusp_classes(N) - 1
        assert plus_dimension(N) == expected == build_space(N).dimension, N
        shifted = [{**row, t: row.get(t, 0) - 1} for t, row in enumerate(involution_matrix(full))]
        assert full.dimension - len(echelon(shifted)) == expected, N


def test_n26_cusp_count_is_4():
    assert cusp_count(26) == 4
    assert build_space(26, plus=False).dimension == 2 * genus_x0(26) + 4 - 1


def test_level_too_large():
    # 19998 = 2 * 3^2 * 11 * 101 is under the bound, its index is not
    with pytest.raises(LevelTooLarge, match="index 44064 "):
        build_space(19998)


def test_huge_level_is_refused_before_factoring():
    start = time.perf_counter()
    with pytest.raises(LevelTooLarge):
        build_space(11000000000000000000033)
    assert time.perf_counter() - start < 1


# sha256 of (basis, expressions) as recorded before the relation elimination
# moved into linalg.echelon (571, 1000 and 2003: before it kept integral
# entries as ints); the quotient presentation must not change
SPACE_DIGESTS = {
    11: "5ad9458ca15820b02eb3e943eb6aa313aaabb086c22abf26b11e283f0f2ecf1b",
    26: "86bcc480629b9b3e9bc08eaaa60f5cf2f2772158ff14ac51541357ce9c27cbf8",
    174: "eb5b0bf2d8f53660b24cd7d6012a47cca1a7902d49690d98d1d06bd2fc8d7530",
    389: "a822b5fa160635dc1e3b0afd6bce9c459b58e55c08dd7c9eb3df04a9a4624f52",
    571: "91685ba4ce78716b9931e87f5695e1d17face7bc97162d3d0bd6a56aa604bf94",
    681: "c940883d8a72a87e8ef7f58900822bf6f44e3aa9306d2d6d5ae747778989f0c4",
    1000: "07072c8a1dbe7047164263e8cf95565729d20a4687251f87b7b2861de42febfe",
    2003: "11657c63d6c9aa78b5f0fbb5048addf4da136ee22ad868863f7d2b3ff54193b3",
}


@pytest.mark.parametrize("N", sorted(SPACE_DIGESTS))
def test_space_presentation_is_pinned(N):
    sp = build_space(N, plus=False)
    payload = json.dumps([list(sp.basis), [[[t, str(c)] for t, c in e] for e in sp.expressions]])
    assert hashlib.sha256(payload.encode()).hexdigest() == SPACE_DIGESTS[N]


def test_sign_minus_one_generators_share_their_representatives_negated_expression():
    space = build_space(681)
    _, zero, rep, rep_sign, _ = _relations(681, plus=True)
    minus = [i for i in range(len(space.p1)) if not zero[i] and rep_sign[i] == -1]
    negated = {}
    for i in minus:
        assert negated.setdefault(rep[i], space.expressions[i]) is space.expressions[i]
    assert len(negated) < len(minus)  # the orbits {i, Si, Ji, SJi} give most representatives two


def is_exact(x):
    """x is in the one exact format: an int when integral, a Fraction only otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


@pytest.mark.parametrize("N", [26, 174, 681])
def test_expression_entries_are_ints_exactly_when_integral(N):
    for sp in (build_space(N), build_space(N, plus=False)):
        assert all(is_exact(c) for e in sp.expressions for _, c in e)


def dense(expr, dim):
    """The (coordinate, value) pairs of one expression as a dense row."""
    row = [Fraction(0)] * dim
    for t, c in expr:
        row[t] += c
    return row


def densify(row, dim):
    """A sparse row {coordinate: value} as a dense Fraction row."""
    return [row.get(t, Fraction(0)) for t in range(dim)]


def test_relations_hold_identically_on_expressions():
    for N, plus in itertools.product((11, 26, 45, 50), (False, True)):
        sp = build_space(N, plus)
        e = [dense(expr, sp.dimension) for expr in sp.expressions]
        J = _involution(sp.p1)
        sigma, tau = relation_actions(sp.p1)
        for i in range(len(sp.p1)):
            s = [a + b for a, b in zip(e[i], e[sigma[i]])]
            assert all(x == 0 for x in s)
            t = [a + b + c for a, b, c in zip(e[i], e[tau[i]], e[tau[tau[i]]])]
            assert all(x == 0 for x in t)
            assert e[J[i]] == e[i] or not plus


def test_expressions_are_sorted_nonzero_pairs():
    for N, plus in itertools.product((11, 26, 45, 50), (False, True)):
        sp = build_space(N, plus)
        for i, expr in enumerate(sp.expressions):
            coords = [t for t, _ in expr]
            assert coords == sorted(set(coords))
            assert all(c for _, c in expr)
            assert densify(sp.coordinate_row([i]), sp.dimension) == dense(expr, sp.dimension)
        basis_rows = [densify(sp.coordinate_row([b]), sp.dimension) for b in sp.basis]
        assert basis_rows == [[Fraction(int(s == t)) for t in range(sp.dimension)] for s in range(sp.dimension)]


def _indices(xs, bound) -> bool:
    """Every entry is an int in range(bound)."""
    return all(type(x) is int and 0 <= x < bound for x in xs)


def presents_quotient(sp, sigma, tau) -> bool:
    """Exact certificate that sp's expressions are the full quotient map of build_space(N, plus=False).

    sigma and tau must be permutations matching the relation matrices on
    P^1 (by the cross-product test: primitive (c:d) = (c':d') iff
    c d' = c' d mod N), every two-term relation must vanish (the two
    expressions of a sigma-pair are each other's negation, entry by entry,
    as build_space writes them) and so must every three-term relation, each
    basis generator's expression must be its own unit coordinate, and the
    dimension must be 2g + c - 1.  The map then factors through the
    quotient and sends the basis to the unit vectors of a space of the
    quotient's dimension, so it is the one quotient map.  Every index must
    be an int in range, so that evaluating the map cannot fail.
    """
    N, p1 = sp.N, sp.p1
    expressions, dim = sp.expressions, sp.dimension
    m = len(p1)
    if not (len(expressions) == len(sigma) == len(tau) == m == len(set(sigma)) == len(set(tau))
            and _indices(sigma, m) and _indices(tau, m) and _indices(sp.basis, m)
            and _indices((t for e in expressions for t, _ in e), dim)):
        return False
    for (c, d), i, j in zip(p1, sigma, tau):
        (c1, d1), (c2, d2) = p1[i], p1[j]
        # against (d : -c) and (d : -c-d), the images under the order-2 and order-3 matrices
        if (d * d1 + c * c1) % N or (d * d2 + (c + d) * c2) % N:
            return False
    if dim != quotient_dimension(N) or any(expressions[b] != ((t, 1),) for t, b in enumerate(sp.basis)):
        return False
    for i, j in enumerate(sigma):
        if i <= j and expressions[j] != tuple((t, -c) for t, c in expressions[i]):
            return False
    for i, j in enumerate(tau):
        k = tau[j]
        if i <= j and i <= k and sp.coordinate_row([i, j, k]):  # one test per tau-orbit
            return False
    return True


def test_built_spaces_present_their_quotient():
    for N in list(range(1, 80)) + [174, 389, 571, 681]:
        sp = build_space(N, plus=False)
        assert presents_quotient(sp, *relation_actions(sp.p1)), N


def forgeries(sp):
    """Copies of the full space's parts, each broken in one way a checksum does not see, as (space, sigma, tau)."""
    sigma, tau = relation_actions(sp.p1)
    N, p1, basis, expressions = sp.N, sp.p1, list(sp.basis), list(sp.expressions)
    b = basis[1]
    pair = next(i for i in range(len(p1)) if i < sigma[i] and i not in basis and expressions[i])
    out = {}

    def forge(name, sigma=sigma, tau=tau, **parts):
        args = dict(N=N, p1=p1, basis=basis, expressions=expressions, plus=False) | parts
        out[name] = ManinSymbolSpace(**args), sigma, tau

    forge("basis value doubled", expressions=expressions[:b] + [((1, 2),)] + expressions[b + 1:])
    # two sigma-pairs with equal expressions, re-paired crosswise: every relation still vanishes
    x, y = next((x, y) for x in range(len(p1)) for y in range(x + 1, len(p1))
                if expressions[x] and expressions[x] == expressions[y] and sigma[x] not in (x, y))
    crossed = list(sigma)
    crossed[x], crossed[y], crossed[sigma[x]], crossed[sigma[y]] = sigma[y], sigma[x], y, x
    forge("sigma not the relation matrix", sigma=crossed)
    forge("tau run backwards", tau=[tau[j] for j in tau])
    forge("tau not a permutation", tau=[tau[0]] + list(tau[:-1]))
    forge("basis generator dropped", basis=basis[:-1])
    # a sigma-pair moved together keeps the two-term relations, not the three-term ones
    moved = list(expressions)
    (t, c), rest = expressions[pair][0], expressions[pair][1:]
    moved[pair] = ((t, c + 1),) + rest
    moved[sigma[pair]] = tuple((u, -x) for u, x in moved[pair])
    forge("three-term relation broken", expressions=moved)
    forge("coordinate out of range", expressions=[e + ((sp.dimension, 0),) if i in (pair, sigma[pair]) else e
                                                  for i, e in enumerate(expressions)])
    forge("float coordinate", expressions=[((float(t), c),) + e[1:] if i == pair else e
                                           for i, e in enumerate(expressions)])
    return out


@pytest.mark.parametrize("N", [11, 26, 174, 681])
def test_forged_spaces_fail_the_certificate(N):
    sp = build_space(N, plus=False)
    assert presents_quotient(sp, *relation_actions(sp.p1))
    for name, forged in forgeries(sp).items():
        assert not presents_quotient(*forged), name


def test_quotient_basis_is_the_built_basis_below_300():
    # the forward fold fixes the pivot set, so it leaves the build's free generators
    for N in range(1, 300):
        assert quotient_basis(N) == build_space(N, plus=False).basis, N


@pytest.mark.parametrize("N", [389, 571, 681, 2003, 5077])
def test_quotient_basis_is_the_built_basis(N):
    assert quotient_basis(N) == build_space(N, plus=False).basis


def test_quotient_basis_refuses_what_build_space_refuses():
    for N in (0, -5):
        with pytest.raises(ValueError, match="level must be positive"):
            quotient_basis(N)
    with pytest.raises(LevelTooLarge):
        quotient_basis(20011)


def brute_force_p1(N):
    """P^1(Z/N) over all N^2 pairs: primitive pairs modulo units, each class
    named by its least pair, which is met first in this scan."""
    units = [t for t in range(N) if math.gcd(t, N) == 1]
    seen = bytearray(N * N)
    reps = []
    for x in range(N * N):
        if seen[x]:
            continue
        u, v = divmod(x, N)
        if math.gcd(u, v, N) == 1:
            for t in units:
                seen[t * u % N * N + t * v % N] = 1
            reps.append((u, v))
    return reps


@functools.cache
def unit_scalers(N):
    """{u: a unit s with s u = gcd(u, N) mod N} for every u with 0 < u < N, from one pass over the units."""
    units = [t for t in range(1, N) if math.gcd(t, N) == 1]
    return {g * pow(t, -1, N) % N: t for g in range(1, N) if N % g == 0 for t in units}


def reference_normalize(N, u, v):
    """Reference canonical form of (u:v): v' as a minimum over all units t = 1 + k N/g."""
    if N == 1:
        return (0, 0)
    u %= N
    v %= N
    if u == 0:
        return (0, 1) if math.gcd(v, N) == 1 else None
    g = math.gcd(u, N)
    if math.gcd(g, v) > 1:
        return None
    v = (unit_scalers(N)[u] * v) % N
    if g == 1:
        return (1, v)
    return (g, min((v * t) % N for t in range(1, N, N // g) if math.gcd(N, t) == 1))


def test_normalize_matches_the_minimum_over_all_units():
    for N in range(1, 61):
        p1 = P1List(N)
        assert all(p1.normalize(u, v) == reference_normalize(N, u, v) for u in range(N) for v in range(N)), N
    rng = random.Random(1)
    for N in (174, 360, 681, 1000, 2310, 5077):
        p1 = P1List(N)
        pairs = [(rng.randrange(-3 * N, 3 * N), rng.randrange(-3 * N, 3 * N)) for _ in range(3000)]
        pairs += [(g * rng.randrange(N), rng.randrange(N)) for g in range(2, N) if N % g == 0 for _ in range(20)]
        assert all(p1.normalize(u, v) == reference_normalize(N, u, v) for u, v in pairs), N


def test_p1_list_matches_brute_force():
    for N in list(range(1, 301)) + [681]:
        p1 = P1List(N)
        assert list(p1) == brute_force_p1(N), N
        assert len(p1) == psi_index(N)


def test_lookup_matches_the_index():
    # over the units t, (t c : t d) runs once through the class of each
    # representative (c : d), on which index is constant, so every primitive
    # pair mod N is indexed once against index(c, d)
    for N in [*range(1, 300), 389, 681, 2003]:
        p1 = P1List(N)
        assert N == 1 or all(p1[1 + w] == (1, w) for w in range(N))
        units = [t for t in range(N) if math.gcd(t, N) == 1]
        for i, (c, d) in enumerate(p1):
            assert p1.index(c, d) == i
            assert {p1.index(t * c, t * d) for t in units} == {i}, (N, c, d)
        assert all(u * w % N == 1 if N > 1 and math.gcd(u, N) == 1 else w == 0 for u, w in enumerate(p1.inverses))


def test_index_refuses_a_non_primitive_pair():
    p1 = P1List(12)
    for _ in range(2):  # a refusal is not memoized as an index
        with pytest.raises(ValueError, match=r"\(2:4\) is not primitive mod 12"):
            p1.index(2, 4)
    assert p1.index(14, 3) == p1._index[p1.normalize(2, 3)]


def test_psi_index_multiplicative_structure():
    assert psi_index(11) == 12
    assert psi_index(26) == 42
    assert psi_index(174) == 360


@pytest.fixture(scope="module")
def random_symbol():
    sp = build_space(11, plus=False)
    rng = random.Random(9)
    return ModularSymbol(sp, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(sp.dimension)])


def test_degree_zero_identity(random_symbol):
    # one cusp written three ways is one point, so {r} - {r'} is the zero divisor
    for r, r2 in ((Fraction(3, 7), (6, 14)), (Fraction(3, 7), (-3, -7)), (INFINITY, (5, 0)), (0, (0, 9))):
        assert divisor_value(random_symbol, r, r2) == 0


def test_additivity(random_symbol):
    rng = random.Random(2)
    for _ in range(60):
        r, s, t = (Fraction(rng.randint(-25, 25), rng.randint(1, 25)) for _ in range(3))
        left = divisor_value(random_symbol, r, s) + divisor_value(random_symbol, s, t)
        assert left == divisor_value(random_symbol, r, t)


def test_gamma_invariance_100_cases(random_symbol):
    rng = random.Random(3)
    for _ in range(100):
        g = random_gamma0(11, rng)
        r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        s = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert divisor_value(random_symbol, act(g, r), act(g, s)) == divisor_value(random_symbol, r, s)


def test_involution_split(random_symbol):
    plus, minus = sign_parts(random_symbol)
    assert tuple(a + b for a, b in zip(plus.coords, minus.coords)) == random_symbol.coords
    assert involution(plus).coords == plus.coords
    assert involution(minus).coords == tuple(-c for c in minus.coords)
    # an already-even symbol splits as (itself, 0)
    again_plus, again_minus = sign_parts(plus)
    assert again_plus.coords == plus.coords
    assert all(c == 0 for c in again_minus.coords)
    # {inf}-{0} is fixed by the involution, so the odd part vanishes there
    assert minus.value_infinity_minus(0) == 0


def test_sign_symmetry_of_parts(random_symbol):
    plus, minus = sign_parts(random_symbol)
    rng = random.Random(4)
    for _ in range(40):
        r = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert plus.value_infinity_minus(-r) == plus.value_infinity_minus(r)
        assert minus.value_infinity_minus(-r) == -minus.value_infinity_minus(r)


def test_scaled_evaluator(random_symbol):
    assert Scaled(random_symbol, 1).value_infinity_minus(Fraction(3, 25)) == random_symbol.value_infinity_minus(Fraction(3, 25))
    scaled = Scaled(random_symbol, 5)
    for a, n in [(2, 2), (7, 3), (1, 1)]:
        assert scaled.value_infinity_minus(Fraction(a, 5**n)) == random_symbol.value_infinity_minus(Fraction(a, 5 ** (n - 1)))
    assert scaled.value_infinity_minus(INFINITY) == 0


def test_cusp_normalization():
    assert as_cusp(INFINITY) == (1, 0)
    assert as_cusp(Fraction(-4, 6)) == (-2, 3)
    assert as_cusp((2, -4)) == (-1, 2)
    assert act((1, 1, 0, 1), (1, 0)) == (1, 0)
    assert act((1, 0, 11, 1), Fraction(2, 3)) == (2, 25)


def test_zero_symbol_evaluates_to_zero():
    z = zero_symbol(build_space(26))
    assert z.value_infinity_minus(Fraction(5, 49)) == 0


def convergent_symbol_pairs(cusp):
    """Reference path: bottom rows (q_k, +-q_{k-1}) of the unimodular path
    matrices joining the continued-fraction convergents of the cusp to infinity."""
    a, b = cusp
    if b == 0:
        return []
    out = []
    q_km2, q_km1 = 1, 0  # q_{-2}, q_{-1}
    num, den = a, b
    k = 0
    while den != 0:
        digit = num // den
        num, den = den, num - digit * den
        q_k = digit * q_km1 + q_km2
        sign = 1 if k % 2 == 1 else -1
        out.append((q_k, sign * q_km1))
        q_km2, q_km1 = q_km1, q_k
        k += 1
    return out


def reference_value(sym, r):
    """phi({inf}-{r}) as a Fraction sum over the Manin path, through the canonical form, not the inverse table."""
    vals = sym.generator_values()
    p1 = sym.space.p1
    pairs = convergent_symbol_pairs(as_cusp(r))
    return sum((vals[p1._index[p1.normalize(qk, qk1)]] for qk, qk1 in pairs), Fraction(0))


def random_cusps(rng, count=60):
    return [Fraction(rng.randint(-400, 400), rng.randint(1, 400)) for _ in range(count)]


@pytest.mark.parametrize("N", [11, 26, 174, 681])
def test_inline_cusp_walk_matches_the_pair_list_sum(N):
    rng = random.Random(N)
    space = build_space(N)
    sym = ModularSymbol(space, [rng.randint(-9, 9) for _ in range(space.dimension)])
    cusps = random_cusps(rng, 200) + [Fraction(-rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(50)]
    cusps += [rng.randint(-50, 50) for _ in range(10)] + [0, INFINITY, (7, 0), (-3, 1), (5, -N)]
    assert any(as_cusp(r)[0] < 0 for r in cusps)
    for r in cusps:
        assert sym.value_infinity_minus(r) == reference_value(sym, r)
    assert sym.value_infinity_minus(INFINITY) == 0


@pytest.mark.parametrize("label", ["11a", "26b1", "174b1"])
def test_integral_symbol_values_are_ints(eigensymbols, label):
    sym = eigensymbols[label]
    assert all(v.denominator == 1 for v in sym.generator_values())
    for r in random_cusps(random.Random(label)) + [0, INFINITY]:
        value = sym.value_infinity_minus(r)
        assert type(value) is int
        assert value == reference_value(sym, r)
    # a second pass reads the memo and must agree
    for r in random_cusps(random.Random(label)):
        assert sym.value_infinity_minus(r) == reference_value(sym, r)


@pytest.mark.parametrize("label", ["11a", "26b1", "174b1"])
def test_non_integral_symbol_values_are_fractions(eigensymbols, label):
    sym = eigensymbols[label]
    rng = random.Random(7)
    random_sym = ModularSymbol(sym.space, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in sym.coords])
    for phi in (Fraction(1, 7) * sym, random_sym):
        assert any(v.denominator != 1 for v in phi.generator_values())
        values = {r: phi.value_infinity_minus(r) for r in random_cusps(rng)}
        assert any(type(value) is Fraction for value in values.values())
        for r, value in values.items():
            assert is_exact(value)
            assert value == reference_value(phi, r)


def test_generator_values_are_ints_exactly_when_integral(eigensymbols, tmp_path):
    for label in eigensymbols:  # a cold fill, so that the symbols below are read back from disk
        cache.load_symbol(make_curve(label), cache_dir=tmp_path)
    stored = [cache.load_symbol(make_curve(label), cache_dir=tmp_path)[0] for label in eigensymbols]
    for sym in list(eigensymbols.values()) + stored:
        assert all(type(c) is int for c in sym.coords)
        assert all(type(v) is int for v in sym.generator_values())
        for scaled in (Fraction(1, 7) * sym, 7 * (Fraction(1, 7) * sym)):
            # the value table carried through the scaling is the one computed afresh
            fresh = ModularSymbol(sym.space, scaled.coords)
            assert scaled.generator_values() == fresh.generator_values()
            for phi in (scaled, fresh):
                assert all(is_exact(c) for c in phi.coords)
                assert all(is_exact(v) for v in phi.generator_values())
        sevenths = (Fraction(1, 7) * sym).generator_values()
        assert any(type(v) is Fraction for v in sevenths) and any(type(v) is int for v in sevenths)


def test_coordinate_rows_drop_zero_entries(spaces):
    sp = spaces[26]
    sigma, _ = relation_actions(sp.p1)
    for i in range(len(sp.p1)):
        row = sp.coordinate_row([i])
        assert all(row.values())
        # the two-term relation x + x.S = 0 sums to the empty row
        assert sp.coordinate_row([i, sigma[i]]) == {}


def test_is_plus_reads_the_values_not_the_label(eigensymbols, random_symbol):
    plus, minus = sign_parts(random_symbol)
    assert plus.is_plus() and Scaled(plus, 5).is_plus()
    assert not minus.is_plus() and not random_symbol.is_plus()
    # a forged label does not make a symbol J-invariant
    forged = ModularSymbol(random_symbol.space, random_symbol.coords, sign="+")
    assert not forged.is_plus() and not Scaled(forged, 5).is_plus()
    # the zero symbol is J-invariant, and so is every stored eigensymbol
    assert zero_symbol(random_symbol.space).is_plus()
    assert all(sym.is_plus() for sym in eigensymbols.values())
